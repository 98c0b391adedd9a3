"""Coefficients and the point-space drift formulas.

The state equation is

    dX_t = (L Psi(t, X_t) + gamma_t X_t) dt + Q dW_t

with Psi(t, s) = (delta_t / (2 r)) |s|^(r-1) s for r in (0, 1), diagonal
noise Q in the eigenbasis of -L, and an optional linear mode (Psi = id)
kept solely as a closed-form test oracle.  The ensemble kernel in
montecarlo advances it in eigen-coordinates; drift_eval and apply_drift
are the same step written on point values, which tests use as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedules import PiecewiseConstant, ScheduleLike, as_schedule, combine
from .spectral import SpectralModel, from_spectral, to_spectral

__all__ = [
    "CoefficientSet",
    "psi_eval",
    "drift_eval",
    "apply_drift",
]

SCHEMES = ("tamed_euler", "explicit_euler")
NONLINEARITIES = ("power", "identity")


@dataclass(frozen=True)
class CoefficientSet:
    """Problem coefficients, each either a number or a step schedule.

    r is the diffusion exponent in (0, 1); delta scales the nonlinearity;
    eta is the growth constant of Psi and defaults to delta / (2 r);
    gamma is the linear feedback rate (any sign); sigma >= 4 / (1 + r)
    is the coupling exponent; xi > 0 is the noise-domination constant
    assumed when the coupling schedule is built.
    """

    r: float
    delta: ScheduleLike = 1.0
    eta: ScheduleLike | None = None
    gamma: ScheduleLike = 0.0
    sigma: float | None = None
    xi: ScheduleLike = 1.0
    nonlinearity: str = "power"

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"r must be in (0, 1), got {self.r!r}")
        delta = as_schedule(self.delta)
        if min(delta.values) <= 0.0:
            raise ValueError("delta must be strictly positive")
        eta = self.eta
        if eta is None:
            eta = delta.map(lambda v: v / (2.0 * self.r))
        else:
            eta = as_schedule(eta)
            # eta = 0 is tolerated as a degenerate edge: the growth constant
            # then carries no information and the moment rate drops its
            # nonlinear term.
            if min(eta.values) < 0.0:
                raise ValueError("eta must be nonnegative")
        gamma = as_schedule(self.gamma)
        xi = as_schedule(self.xi)
        if min(xi.values) <= 0.0:
            raise ValueError("xi must be strictly positive")
        sigma = self.sigma
        if sigma is None:
            sigma = 4.0 / (1.0 + self.r)
        if sigma < 4.0 / (1.0 + self.r):
            raise ValueError(
                f"sigma must be at least 4/(1+r) = {4.0 / (1.0 + self.r)!r}, got {sigma!r}"
            )
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "sigma", float(sigma))

    @property
    def is_time_homogeneous(self) -> bool:
        return all(
            s.is_constant for s in (self.delta, self.eta, self.gamma, self.xi)
        )

    def log_moment_rate_schedule(self, hs_norm_sq: float) -> PiecewiseConstant:
        """Moment-bound rate q + 2^((r+2)/r) eta^((r+1)/r) delta^(-1/r)."""
        r = self.r
        return combine(
            lambda e, d: hs_norm_sq + 2.0 ** ((r + 2.0) / r) * e ** ((r + 1.0) / r) * d ** (-1.0 / r),
            self.eta,
            self.delta,
        )


def psi_eval(coeffs: CoefficientSet, s, t: float = 0.0):
    """Pointwise nonlinearity Psi(t, s); accepts scalars or arrays."""
    s = np.asarray(s, dtype=float)
    if coeffs.nonlinearity == "identity":
        out = s.copy()
    else:
        scale = coeffs.delta(t) / (2.0 * coeffs.r)
        out = scale * np.sign(s) * np.abs(s) ** coeffs.r
    return float(out) if out.ndim == 0 else out


def drift_eval(model: SpectralModel, coeffs: CoefficientSet, x, t: float = 0.0) -> np.ndarray:
    """Drift L Psi(t, x) + gamma_t x for a state or batch of states."""
    x = np.asarray(x, dtype=float)
    c = to_spectral(model, psi_eval(coeffs, x, t))
    lpsi = from_spectral(model, -model.eigenvalues * c)
    return lpsi + coeffs.gamma(t) * x


def apply_drift(x, b, dt: float, scheme: str, weights) -> np.ndarray:
    """Drift part of one step; taming divides by 1 + dt * |b| in L2(m)."""
    if scheme == "explicit_euler":
        return x + dt * b
    bnorm = np.sqrt((weights * b * b).sum(axis=-1, keepdims=True))
    return x + dt * b / (1.0 + dt * bnorm)
