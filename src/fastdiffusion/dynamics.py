"""Coefficients of the state equation.

The state equation is

    dX_t = (L Psi(t, X_t) + gamma_t X_t) dt + Q dW_t

with Psi(t, s) = (delta_t / (2 r)) |s|^(r-1) s for r in (0, 1), diagonal
noise Q in the eigenbasis of -L, and an optional linear mode (Psi = id)
kept solely as a closed-form test oracle.  The ensemble kernel in
montecarlo is the one place that evaluates the drift: it advances the
state in eigen-coordinates, and a path whose state leaves the finite
range is carried as nan and counted.

The controls of an ensemble (EnsembleConfig) and its noise streams live
here too: path p of a run draws from a Philox stream keyed by (seed, p),
and the sampled condition checks draw from the stream keyed by (seed, 0),
so neither the checks nor config validation need the kernel's module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSampleCount
from .schedules import ScheduleLike, as_schedule

__all__ = ["SCHEMES", "NONLINEARITIES", "CoefficientSet", "EnsembleConfig"]

SCHEMES = ("tamed_euler", "explicit_euler")
NONLINEARITIES = ("power", "identity")
SEED_MAX = 2**64 - 1  # a seed is the first word of a Philox key


def _sigma_floor(r: float) -> float:
    """The smallest admissible coupling exponent, 4/(1+r); also sigma's default."""
    return 4.0 / (1.0 + r)


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
        floor = _sigma_floor(self.r)
        sigma = floor if self.sigma is None else self.sigma
        if sigma < floor:
            raise ValueError(f"sigma must be at least 4/(1+r) = {floor!r}, got {sigma!r}")
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


def _require_int(name: str, v) -> None:
    """Refuse v unless it is a Python or numpy integer; a bool is not one.
    A float seed or count would otherwise be truncated where it becomes a
    Philox key word or an array size."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")


def _check_seed(seed) -> None:
    _require_int("seed", seed)
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed must lie in [0, {SEED_MAX}], got {seed!r}")


@functools.cache
def _zero_seed():
    """A seed sequence whose every word is zero: it reads no OS entropy.
    Made on first use, as importing this module does not load numpy.random."""

    class ZeroSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return ZeroSeed()


def _path_generators(seed: int, lo: int, hi: int):
    """Path p's generator for each p in [lo, hi): Philox keyed by (seed, p).
    The condition sampler takes its stream, keyed by (seed, 0), from here.

    Philox(key=...) first seeds itself from OS entropy, which the key then
    overwrites.  Here each bit generator starts from the zero seed, which
    leaves the zero counter and empty buffer that Philox(key=...) sets,
    and takes its key through the state setter.
    """
    state = np.random.Philox(_zero_seed()).state
    gens = []
    for p in range(lo, hi):
        bit_gen = np.random.Philox(_zero_seed())
        state["state"]["key"] = np.array([seed, p], dtype=np.uint64)
        bit_gen.state = state
        gens.append(np.random.Generator(bit_gen))
    return gens


@dataclass(frozen=True)
class EnsembleConfig:
    """Controls shared by every ensemble estimator."""

    n_paths: int
    dt: float
    T: float
    seed: int = 0
    burn_in: float = 0.0
    scheme: str = "tamed_euler"
    n_workers: int = 1

    def __post_init__(self):
        _require_int("n_paths", self.n_paths)
        if self.n_paths < 2:
            raise InvalidSampleCount(f"n_paths must be at least 2, got {self.n_paths!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        _check_seed(self.seed)
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.burn_in < 0.0 or self.burn_in >= self.T:
            raise ValueError("burn_in must lie in [0, T)")
        _require_int("n_workers", self.n_workers)
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        n_steps = round(self.T / self.dt)
        if n_steps < 1 or abs(n_steps * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise ValueError(f"T = {self.T!r} must be an integer number of dt = {self.dt!r} steps")

    @property
    def n_steps(self) -> int:
        return round(self.T / self.dt)

    @property
    def burn_steps(self) -> int:
        return round(self.burn_in / self.dt)

    @property
    def realized_T(self) -> float:
        return self.n_steps * self.dt
