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
  enters the Harnack bound through its integral and squared integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CoefficientSet
from .errors import InvalidP, ZeroHorizon
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
    "harnack_rhs",
    "bound_report",
]


def _check_horizon(T: float):
    if not T > 0.0:
        raise ZeroHorizon(f"horizon must be positive, got {T!r}")


def _check_p(p: float):
    if not p > 1.0:
        raise InvalidP(f"integrability exponent must satisfy p > 1, got {p!r}")


def _named_overflow(fn):
    """Report a float overflow inside fn under fn's name."""
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError:
            raise OverflowError(f"{fn.__name__} leaves float range") from None
    return wrapped


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


@_named_overflow
def exp_moment_weight(model: SpectralModel, coeffs: CoefficientSet, T: float) -> float:
    """(1/2) exp(-integral_0^T (2 gamma_t + 2 q + 1) dt) * inf_[0,T] delta."""
    _check_horizon(T)
    q = model.hs_norm_sq
    expo = 2.0 * coeffs.gamma.integral(T) + (2.0 * q + 1.0) * T
    return 0.5 * math.exp(-expo) * coeffs.delta.inf_over(T)


def log_moment_rate(model: SpectralModel, coeffs: CoefficientSet, t: float = 0.0) -> float:
    """Pointwise rate q + 2^((r+2)/r) eta_t^((r+1)/r) delta_t^(-1/r)."""
    return coeffs.log_moment_rate_schedule(model.hs_norm_sq)(t)


@_named_overflow
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


@_named_overflow
def coupling_gain_int(coeffs: CoefficientSet, T: float) -> float:
    """Exact integral_0^T of the coupling gain."""
    _check_horizon(T)
    return weighted_exp_integral(_gain_amp(coeffs), coeffs.gamma, 1.0, T)


@_named_overflow
def coupling_gain_sq_int(coeffs: CoefficientSet, T: float) -> float:
    """Exact integral_0^T of the squared gain (bound formulas scale it
    by (sigma+2)^2 where needed)."""
    _check_horizon(T)
    amp_sq = _gain_amp(coeffs).map(lambda v: v * v)
    return weighted_exp_integral(amp_sq, coeffs.gamma, 2.0, T)


def _harnack_terms(sigma, p, T, lam, th, gi, gsq, nx, ny, dist) -> tuple[float, float, float]:
    """The three exponent terms of the power-Harnack right-hand side."""
    term1 = (p - 1.0) / 4.0 * (2.0 * th + lam * T + nx**2 + ny**2)
    term2 = _term(lambda: (p - 1.0) * (sigma + 2.0) ** 2 * gsq / (4.0 * (sigma * gi) ** 2) * dist**2)
    term3 = _term(lambda: (
        lam ** ((2.0 - sigma) / 2.0)
        * ((sigma + 2.0) / sigma) ** (sigma + 1.0)
        * (2.0 * p * (p + 1.0)) ** (sigma / 2.0)
        / (4.0 * (p - 1.0) ** (sigma - 1.0) * gi**sigma)
        * dist**sigma
    ))
    return term1, term2, term3


def harnack_rhs(model: SpectralModel, coeffs: CoefficientSet, T: float, p: float, x, y) -> float:
    """Multiplier bounding (P_T F)^p(y) by P_T F^p(x) for F >= 0.

    Short horizons or distant starts can push the exponent, or a term of
    it, past float range; the multiplier is then inf (the bound is valid
    but carries no information).  A constant past float range raises.
    """
    return bound_report(model, coeffs, T, x, y, p).harnack_rhs


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

    Each constant and H norm is evaluated once; the Harnack terms are
    built from those values.
    """
    _check_horizon(T)
    if p is not None:
        _check_p(p)
    sigma = coeffs.sigma
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lam = exp_moment_weight(model, coeffs, T)
    th = log_moment_rate_int(model, coeffs, T)
    gi = coupling_gain_int(coeffs, T)
    gsq = coupling_gain_sq_int(coeffs, T)
    nx = float(norm_h(model, x))
    ny = float(norm_h(model, y))
    dist = float(norm_h(model, x - y))
    terms = None
    rhs = None
    if p is not None:
        terms = _harnack_terms(sigma, p, T, lam, th, gi, gsq, nx, ny, dist)
        rhs = _exp(sum(terms))
    return BoundReport(
        T=float(T),
        p=None if p is None else float(p),
        sigma=sigma,
        epsilon=sigma / (sigma + 2.0),
        exp_moment_weight=lam,
        log_moment_rate_int=th,
        coupling_gain_int=gi,
        coupling_gain_sq_int=gsq,
        norm_x_h=nx,
        norm_y_h=ny,
        dist_h=dist,
        harnack_terms=terms,
        harnack_rhs=rhs,
    )
