"""Asymmetric coupling of two paths and the change-of-measure weight.

Two copies driven by the same noise are coupled by adding a singular
attraction drift

    beta_t (X_t - Y_t) / |X_t - Y_t|_H^epsilon,   epsilon = sigma / (sigma + 2)

to the second copy until the first numerical meeting time, after which
the second copy is forced equal to the first.  The schedule beta is
calibrated so that the attraction alone closes the gap by time T, from
the gain and gain integral that bounds computes for the Harnack bound.
Along the way the ensemble kernel (montecarlo) accumulates the
stochastic and quadratic integrals of

    zeta_t = beta_t Q^(-1) (X_t - Y_t) / |X_t - Y_t|_H^epsilon

whose exponential supermartingale reweights expectations over the first
copy into expectations over an uncoupled copy started at y.  A pair
that leaves the finite range is carried as nan and counted; the kernel
is the one place that evaluates the attraction and zeta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds
from .dynamics import CoefficientSet
from .errors import ZeroHorizon
from .schedules import PiecewiseConstant
from .spectral import SpectralModel, norm_h

__all__ = ["CouplingSchedule", "make_schedule"]

DEFAULT_TOL_FACTOR = 1e-6


@dataclass(frozen=True)
class CouplingSchedule:
    """Calibrated attraction schedule for one pair of starting points.

    beta(t) = c * (epsilon delta_t xi_t)^(1/sigma)
                * exp(-(1 - epsilon) * integral_0^t gamma_s ds)

    with 1 - epsilon = 2 / (sigma + 2).  By construction integral_0^T beta_t
    exp(-epsilon integral_0^t gamma) dt = dist0^epsilon / epsilon, and
    dist0^(2(1 - epsilon)) integral_0^T beta_t^2 exp(-2 epsilon integral_0^t
    gamma) dt is the BoundReport's attraction_cost_bound.
    """

    epsilon: float
    c: float
    T: float
    dist0: float
    amp: PiecewiseConstant = field(repr=False)
    gamma: PiecewiseConstant = field(repr=False)

    def beta(self, t: float) -> float:
        """Attraction amplitude at time t."""
        return self.c * self.amp(t) * math.exp(-(1.0 - self.epsilon) * self.gamma.integral(t))


def make_schedule(model: SpectralModel, coeffs: CoefficientSet, T: float, x, y) -> CouplingSchedule:
    """Calibrate the attraction schedule for starting points x and y.

    The normalizer c is chosen so that the accumulated attraction exactly
    matches the gap: integral_0^T beta_t exp(-epsilon integral_0^t gamma) dt
    = |x - y|_H^epsilon / epsilon, which gives c = |x - y|_H^epsilon /
    (epsilon^(1 + 1/sigma) coupling_gain_int).  Equal starting points give
    the degenerate schedule c = 0.  A gain integral past float range
    raises OverflowError under its name.
    """
    if not T > 0.0:
        raise ZeroHorizon(f"horizon must be positive, got {T!r}")
    eps, gain, gi = bounds._coupling_gain(coeffs, T)
    scale = eps ** (1.0 / coeffs.sigma)
    dist0 = float(norm_h(model, np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    c = 0.0 if dist0 == 0.0 else dist0**eps / (eps * scale * gi)
    amp = gain.map(lambda v: scale * v)
    return CouplingSchedule(epsilon=eps, c=c, T=float(T), dist0=dist0, amp=amp, gamma=coeffs.gamma)
