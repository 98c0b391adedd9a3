"""Closed-form constants and the power-Harnack bound.

Everything here is deterministic arithmetic on the coefficients, the
noise size q = sum_i q_i^2 / lambda_i, and the H norms of the starting
points.  Schedule integrals are exact (piecewise closed forms), so the
only error in a reported bound is floating-point roundoff.

bound_report is the one query.  It evaluates each constant once:

* exp_moment_weight: the multiplier
  w = (1/2) exp(-integral_0^T (2 gamma_t + 2 q + 1) dt) inf_[0,T] delta
  for which the exponential moment E exp(w * integral of
  |X_t|_{r+1}^{r+1}) stays bounded.
* log_moment_rate_int: the integral over [0, T] of the additive rate
  q + 2^((r+2)/r) eta_t^((r+1)/r) delta_t^(-1/r); with the squared H
  norm of the start it bounds the log of that moment.
* coupling_gain_int and coupling_gain_sq_int: the integrals over [0, T]
  of the gain (delta_t xi_t)^(1/sigma) exp(-integral_0^t gamma) and of
  its square.  The gain is the dissipativity-vs-noise amplitude; its
  integral sets how much attraction budget a horizon carries, and
  coupling.make_schedule calibrates the attraction from both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import CoefficientSet
from .errors import InvalidP, ZeroHorizon
from .schedules import combine, weighted_exp_integral
from .spectral import SpectralModel, norm_h

__all__ = ["BoundReport", "bound_report"]


def _constant(name: str, fn) -> float:
    """fn(), with a float overflow reported under the constant's name."""
    try:
        return fn()
    except OverflowError:
        raise OverflowError(f"{name} leaves float range") from None


def _exp(x: float) -> float:
    """math.exp, inf where it overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _term(fn) -> float:
    """An exponent term; inf where a factor leaves float range or is 0 to
    a negative power, which keeps the bound valid and uninformative."""
    try:
        v = fn()
    except (OverflowError, ZeroDivisionError):
        return math.inf
    return math.inf if math.isnan(v) else v


def _coupling_gain(coeffs: CoefficientSet, T: float):
    """epsilon = sigma / (sigma + 2), the gain (delta_t xi_t)^(1/sigma) and
    its integral over [0, T] against exp(-integral_0^t gamma): the one
    calibration of both the coupling schedule and the bounds."""
    sigma = coeffs.sigma
    gain = combine(lambda d, xv: (d * xv) ** (1.0 / sigma), coeffs.delta, coeffs.xi)
    gi = _constant("coupling_gain_int", lambda: weighted_exp_integral(gain, coeffs.gamma, 1.0, T))
    return sigma / (sigma + 2.0), gain, gi


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

    @property
    def attraction_cost_bound(self) -> float:
        """dist_h^2 coupling_gain_sq_int / (epsilon coupling_gain_int)^2, the
        bound on the attraction's H-norm cost integral_0^T beta_t^2
        |X_t - Y_t|_H^(2(1 - epsilon)) dt; inf past float range."""
        return _term(lambda: self.dist_h**2 * self.coupling_gain_sq_int
                     / (self.epsilon * self.coupling_gain_int) ** 2)

    def _harnack_terms(self, p: float) -> tuple[float, float, float]:
        """The three exponent terms of the power-Harnack right-hand side."""
        sigma, lam, gi, dist = self.sigma, self.exp_moment_weight, self.coupling_gain_int, self.dist_h
        term1 = (p - 1.0) / 4.0 * (2.0 * self.log_moment_rate_int + lam * self.T
                                   + self.norm_x_h**2 + self.norm_y_h**2)
        term2 = (p - 1.0) / 4.0 * self.attraction_cost_bound
        term3 = _term(lambda: (
            lam ** ((2.0 - sigma) / 2.0)
            * ((sigma + 2.0) / sigma) ** (sigma + 1.0)
            * (2.0 * p * (p + 1.0)) ** (sigma / 2.0)
            / (4.0 * (p - 1.0) ** (sigma - 1.0) * gi**sigma)
            * dist**sigma
        ))
        return term1, term2, term3

    def as_dict(self) -> dict:
        """Every field; the Harnack fields only when p is given."""
        out = dict(vars(self))
        if self.p is None:
            del out["harnack_terms"], out["harnack_rhs"]
        else:
            out["harnack_terms"] = list(self.harnack_terms)
        return out


def bound_report(
    model: SpectralModel,
    coeffs: CoefficientSet,
    T: float,
    x,
    y,
    p: float | None = None,
) -> BoundReport:
    """Assemble the closed-form constants, plus the Harnack bound when p is given.

    harnack_rhs is the multiplier bounding (P_T F)^p(y) by P_T F^p(x)
    for F >= 0.  Each constant and H norm is evaluated once; the Harnack
    terms are built from those values.  Short horizons or distant starts
    can push the exponent, or a term of it, past float range; the
    multiplier is then inf (the bound is valid but carries no
    information).  A constant past float range raises OverflowError
    under its name.
    """
    if not T > 0.0:
        raise ZeroHorizon(f"horizon must be positive, got {T!r}")
    if p is not None and not p > 1.0:
        raise InvalidP(f"integrability exponent must satisfy p > 1, got {p!r}")
    r = coeffs.r
    q = model.hs_norm_sq
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    expo = 2.0 * coeffs.gamma.integral(T) + (2.0 * q + 1.0) * T
    lam = _constant("exp_moment_weight", lambda: 0.5 * math.exp(-expo) * coeffs.delta.inf_over(T))
    th = _constant("log_moment_rate_int", lambda: combine(
        lambda e, d: q + 2.0 ** ((r + 2.0) / r) * e ** ((r + 1.0) / r) * d ** (-1.0 / r),
        coeffs.eta,
        coeffs.delta,
    ).integral(T))
    eps, gain, gi = _coupling_gain(coeffs, T)
    gsq = _constant("coupling_gain_sq_int", lambda: weighted_exp_integral(
        gain.map(lambda v: v * v), coeffs.gamma, 2.0, T,
    ))
    rep = BoundReport(
        T=float(T), p=None, sigma=coeffs.sigma, epsilon=eps, exp_moment_weight=lam,
        log_moment_rate_int=th, coupling_gain_int=gi, coupling_gain_sq_int=gsq,
        norm_x_h=float(norm_h(model, x)), norm_y_h=float(norm_h(model, y)),
        dist_h=float(norm_h(model, x - y)), harnack_terms=None, harnack_rhs=None,
    )
    if p is None:
        return rep
    terms = rep._harnack_terms(p)
    return replace(rep, p=float(p), harnack_terms=terms, harnack_rhs=_exp(sum(terms)))
