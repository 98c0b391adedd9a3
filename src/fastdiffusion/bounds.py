"""Closed-form constants and inequality right-hand sides.

Everything here is deterministic arithmetic on the coefficients, the
noise size q = sum_i q_i^2 / lambda_i, and the H norms of the starting
points.  Schedule integrals are exact (piecewise closed forms), so the
only error in a reported bound is floating-point roundoff.

The three derived quantities, named by their role:

* exp_moment_weight(T): the multiplier w for which the exponential
  moment E exp(w * integral of |X_t|_{r+1}^{r+1}) stays bounded.
* log_moment_rate(t): the additive rate whose time integral (plus the
  squared H norm of the start) bounds the log of that moment.
* coupling_gain(t): the dissipativity-vs-noise amplitude whose time
  integral sets how much attraction budget a horizon carries; it
  enters the Harnack and density bounds through its integral and
  squared integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CoefficientSet
from .errors import EmptySample, InvalidP, NotTimeHomogeneous, PositiveGamma, ZeroHorizon
from .schedules import combine, weighted_exp_integral
from .spectral import SpectralModel, norm_h

__all__ = [
    "BoundReport",
    "exp_moment_weight",
    "log_moment_rate",
    "log_moment_rate_int",
    "coupling_gain",
    "coupling_gain_int",
    "coupling_gain_sq_int",
    "harnack_exponent_terms",
    "harnack_rhs",
    "density_lp_bound",
    "density_constants",
    "bound_report",
]


def _check_horizon(T: float):
    if not T > 0.0:
        raise ZeroHorizon(f"horizon must be positive, got {T!r}")


def _check_p(p: float):
    if not p > 1.0:
        raise InvalidP(f"integrability exponent must satisfy p > 1, got {p!r}")


def exp_moment_weight(model: SpectralModel, coeffs: CoefficientSet, T: float) -> float:
    """(1/2) exp(-integral_0^T (2 gamma_t + 2 q + 1) dt) * inf_[0,T] delta."""
    _check_horizon(T)
    q = model.hs_norm_sq
    expo = 2.0 * coeffs.gamma.integral(T) + (2.0 * q + 1.0) * T
    return 0.5 * math.exp(-expo) * coeffs.delta.inf_over(T)


def log_moment_rate(model: SpectralModel, coeffs: CoefficientSet, t: float = 0.0) -> float:
    """Pointwise rate q + 2^((r+2)/r) eta_t^((r+1)/r) delta_t^(-1/r)."""
    return coeffs.log_moment_rate_schedule(model.hs_norm_sq)(t)


def log_moment_rate_int(model: SpectralModel, coeffs: CoefficientSet, T: float) -> float:
    """Exact integral_0^T of the log-moment rate."""
    _check_horizon(T)
    return coeffs.log_moment_rate_schedule(model.hs_norm_sq).integral(T)


def _gain_amp(coeffs: CoefficientSet):
    sigma = coeffs.sigma
    return combine(lambda d, xv: (d * xv) ** (1.0 / sigma), coeffs.delta, coeffs.xi)


def coupling_gain(coeffs: CoefficientSet, t: float) -> float:
    """(delta_t xi_t)^(1/sigma) exp(-integral_0^t gamma)."""
    return _gain_amp(coeffs)(t) * math.exp(-coeffs.gamma.integral(t))


def coupling_gain_int(coeffs: CoefficientSet, T: float) -> float:
    """Exact integral_0^T of the coupling gain."""
    _check_horizon(T)
    return weighted_exp_integral(_gain_amp(coeffs), coeffs.gamma, 1.0, T)


def coupling_gain_sq_int(coeffs: CoefficientSet, T: float) -> float:
    """Exact integral_0^T of the squared gain (bound formulas scale it
    by (sigma+2)^2 where needed)."""
    _check_horizon(T)
    amp_sq = _gain_amp(coeffs).map(lambda v: v * v)
    return weighted_exp_integral(amp_sq, coeffs.gamma, 2.0, T)


def harnack_exponent_terms(
    model: SpectralModel,
    coeffs: CoefficientSet,
    T: float,
    p: float,
    x,
    y,
) -> tuple[float, float, float]:
    """The three exponent terms of the power-Harnack right-hand side."""
    _check_horizon(T)
    _check_p(p)
    sigma = coeffs.sigma
    lam = exp_moment_weight(model, coeffs, T)
    th = log_moment_rate_int(model, coeffs, T)
    gi = coupling_gain_int(coeffs, T)
    gsq = coupling_gain_sq_int(coeffs, T)
    nx = float(norm_h(model, x))
    ny = float(norm_h(model, y))
    dist = float(norm_h(model, np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))

    term1 = (p - 1.0) / 4.0 * (2.0 * th + lam * T + nx**2 + ny**2)
    term2 = (p - 1.0) * (sigma + 2.0) ** 2 * gsq / (4.0 * (sigma * gi) ** 2) * dist**2
    term3 = (
        lam ** ((2.0 - sigma) / 2.0)
        * ((sigma + 2.0) / sigma) ** (sigma + 1.0)
        * (2.0 * p * (p + 1.0)) ** (sigma / 2.0)
        / (4.0 * (p - 1.0) ** (sigma - 1.0) * gi**sigma)
        * dist**sigma
    )
    return term1, term2, term3


def harnack_rhs(model: SpectralModel, coeffs: CoefficientSet, T: float, p: float, x, y) -> float:
    """Multiplier bounding (P_T F)^p(y) by P_T F^p(x) for F >= 0.

    Short horizons or distant starts can push the exponent past float
    range; the multiplier is then reported as inf (the bound is valid
    but carries no information).
    """
    return _harnack_multiplier(harnack_exponent_terms(model, coeffs, T, p, x, y))


def _harnack_multiplier(terms: tuple[float, float, float]) -> float:
    """exp of the summed exponent terms, inf where that overflows a float."""
    t1, t2, t3 = terms
    try:
        return math.exp(t1 + t2 + t3)
    except OverflowError:
        return math.inf


def density_constants(model: SpectralModel, coeffs: CoefficientSet, T: float) -> dict:
    """Constant-coefficient closed forms used by the kernel-density bound.

    Written out directly (no schedule machinery) so they double as an
    independent route for cross-checking exp_moment_weight,
    log_moment_rate, and coupling_gain_int in the time-homogeneous case.
    """
    _check_horizon(T)
    if not coeffs.is_time_homogeneous:
        raise NotTimeHomogeneous("kernel-density bound requires constant coefficients")
    gamma = coeffs.gamma(0.0)
    if gamma > 0.0:
        raise PositiveGamma(f"kernel-density bound requires gamma <= 0, got {gamma!r}")
    delta = coeffs.delta(0.0)
    eta = coeffs.eta(0.0)
    xi_v = coeffs.xi(0.0)
    r = coeffs.r
    sigma = coeffs.sigma
    q = model.hs_norm_sq

    lam = 0.5 * delta * math.exp(-(2.0 * gamma + 2.0 * q + 1.0) * T)
    rate = q + 2.0 ** ((r + 2.0) / r) * eta ** ((r + 1.0) / r) * delta ** (-1.0 / r)
    g0 = (delta * xi_v) ** (1.0 / sigma)
    if gamma == 0.0:
        gi = g0 * T
        gsq = g0**2 * T
    else:
        gi = g0 * -math.expm1(-gamma * T) / gamma
        gsq = g0**2 * -math.expm1(-2.0 * gamma * T) / (2.0 * gamma)
    return {
        "exp_moment_weight": lam,
        "log_moment_rate": rate,
        "coupling_gain_int": gi,
        "coupling_gain_sq_int": gsq,
    }


def _density_exponents(model, coeffs, T, p, x, mu_samples) -> np.ndarray:
    consts = density_constants(model, coeffs, T)
    sigma = coeffs.sigma
    lam = consts["exp_moment_weight"]
    rate = consts["log_moment_rate"]
    gi = consts["coupling_gain_int"]
    gsq = consts["coupling_gain_sq_int"]

    x = np.asarray(x, dtype=float)
    ys = np.asarray(mu_samples, dtype=float)
    if ys.ndim == 1:
        ys = ys[None, :]
    nx = float(norm_h(model, x))
    ny = norm_h(model, ys)
    dist = norm_h(model, ys - x)

    a = -(1.0 / (4.0 * (p - 1.0))) * (2.0 * rate * T + lam * T + nx**2 + ny**2)
    b = -((sigma + 2.0) ** 2 * gsq / (4.0 * (p - 1.0) * (sigma * gi) ** 2)) * dist**2
    c = -(
        lam ** ((2.0 - sigma) / 2.0)
        * ((sigma + 2.0) / sigma) ** (sigma + 1.0)
        * 2.0 ** (sigma / 2.0 - 2.0)
        * (p * (2.0 * p - 1.0)) ** (sigma / 2.0)
        / ((p - 1.0) * gi**sigma)
    ) * dist**sigma
    return a + b + c


def density_lp_bound(
    model: SpectralModel,
    coeffs: CoefficientSet,
    T: float,
    p: float,
    x,
    mu_samples,
) -> float:
    """Upper bound on the L^p(mu) norm of the transition density at x.

    mu_samples is an empirical sample of the invariant measure; the
    reciprocal-integral bound mean(exp(e))^(-(p-1)/p) is evaluated
    against it through a shifted log-mean-exp.  Samples far from x make
    the exponents e very negative and the bound large; it is inf where
    it overflows a float.
    """
    _check_p(p)
    e = _density_exponents(model, coeffs, T, p, x, mu_samples)
    if e.size == 0:
        raise EmptySample("mu_samples must be nonempty")
    shift = float(np.max(e))
    log_mean = shift + math.log(float(np.mean(np.exp(e - shift))))
    try:
        return math.exp(-(p - 1.0) / p * log_mean)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundReport:
    """Everything the bound formulas produced for one (T, p, x, y) query."""

    T: float
    p: float | None
    sigma: float
    epsilon: float
    exp_moment_weight: float
    log_moment_rate_int: float
    coupling_gain_int: float
    coupling_gain_sq_int: float
    norm_x_h: float
    norm_y_h: float
    dist_h: float
    harnack_terms: tuple[float, float, float] | None
    harnack_rhs: float | None

    def as_dict(self) -> dict:
        out = {
            "T": self.T,
            "p": self.p,
            "sigma": self.sigma,
            "epsilon": self.epsilon,
            "exp_moment_weight": self.exp_moment_weight,
            "log_moment_rate_int": self.log_moment_rate_int,
            "coupling_gain_int": self.coupling_gain_int,
            "coupling_gain_sq_int": self.coupling_gain_sq_int,
            "norm_x_h": self.norm_x_h,
            "norm_y_h": self.norm_y_h,
            "dist_h": self.dist_h,
        }
        if self.p is not None:
            out["harnack_terms"] = list(self.harnack_terms)
            out["harnack_rhs"] = self.harnack_rhs
        return out


def bound_report(
    model: SpectralModel,
    coeffs: CoefficientSet,
    T: float,
    x,
    y,
    p: float | None = None,
) -> BoundReport:
    """Assemble the closed-form constants, plus the Harnack bound when p is given."""
    _check_horizon(T)
    sigma = coeffs.sigma
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    terms = None
    rhs = None
    if p is not None:
        terms = harnack_exponent_terms(model, coeffs, T, p, x, y)
        rhs = _harnack_multiplier(terms)
    return BoundReport(
        T=float(T),
        p=None if p is None else float(p),
        sigma=sigma,
        epsilon=sigma / (sigma + 2.0),
        exp_moment_weight=exp_moment_weight(model, coeffs, T),
        log_moment_rate_int=log_moment_rate_int(model, coeffs, T),
        coupling_gain_int=coupling_gain_int(coeffs, T),
        coupling_gain_sq_int=coupling_gain_sq_int(coeffs, T),
        norm_x_h=float(norm_h(model, x)),
        norm_y_h=float(norm_h(model, y)),
        dist_h=float(norm_h(model, x - y)),
        harnack_terms=terms,
        harnack_rhs=rhs,
    )
