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
  integral sets how much attraction budget a horizon carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    sigma = coeffs.sigma
    q = model.hs_norm_sq
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    expo = 2.0 * coeffs.gamma.integral(T) + (2.0 * q + 1.0) * T
    lam = _constant("exp_moment_weight", lambda: 0.5 * math.exp(-expo) * coeffs.delta.inf_over(T))
    th = _constant("log_moment_rate_int", lambda: combine(
        lambda e, d: q + 2.0 ** ((r + 2.0) / r) * e ** ((r + 1.0) / r) * d ** (-1.0 / r),
        coeffs.eta,
        coeffs.delta,
    ).integral(T))
    amp = combine(lambda d, xv: (d * xv) ** (1.0 / sigma), coeffs.delta, coeffs.xi)
    gi = _constant("coupling_gain_int", lambda: weighted_exp_integral(amp, coeffs.gamma, 1.0, T))
    gsq = _constant("coupling_gain_sq_int", lambda: weighted_exp_integral(
        amp.map(lambda v: v * v), coeffs.gamma, 2.0, T,
    ))
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
