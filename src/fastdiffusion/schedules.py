"""Piecewise-constant time schedules and exact integral helpers.

Time-dependent coefficients are restricted to right-continuous step
functions on [0, inf).  Restricting to step functions keeps every
integral that the bound and coupling formulas need available in closed
form, so no quadrature error enters the verdicts.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Sequence, Union

__all__ = [
    "PiecewiseConstant",
    "as_schedule",
    "combine",
    "weighted_exp_integral",
]


class PiecewiseConstant:
    """Step function: values[j] applies on [breaks[j], breaks[j+1]).

    The last value extends to +inf.  breaks[0] must be 0.
    """

    __slots__ = ("breaks", "values")

    def __init__(self, breaks: Sequence[float], values: Sequence[float]):
        breaks = tuple(float(b) for b in breaks)
        values = tuple(float(v) for v in values)
        if len(breaks) != len(values):
            raise ValueError("schedule needs one value per break")
        if not breaks or breaks[0] != 0.0:
            raise ValueError("breaks must start at 0.0")
        if any(b >= c for b, c in zip(breaks, breaks[1:])):
            raise ValueError("breaks must be strictly increasing")
        if any(not math.isfinite(v) for v in values):
            raise ValueError("schedule values must be finite")
        self.breaks = breaks
        self.values = values

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstant":
        return cls((0.0,), (float(value),))

    @property
    def is_constant(self) -> bool:
        return len(self.values) == 1 or all(v == self.values[0] for v in self.values)

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ValueError("schedules are defined on [0, inf)")
        return self.values[bisect.bisect_right(self.breaks, t) - 1]

    def integral(self, t: float) -> float:
        """Exact integral of the schedule over [0, t]."""
        if t < 0.0:
            raise ValueError("integration endpoint must be nonnegative")
        total = 0.0
        for j, (b, v) in enumerate(zip(self.breaks, self.values)):
            end = self.breaks[j + 1] if j + 1 < len(self.breaks) else math.inf
            if t <= b:
                break
            total += v * (min(t, end) - b)
        return total

    def inf_over(self, T: float) -> float:
        """Infimum of the schedule over [0, T]."""
        if T <= 0.0:
            return self.values[0]
        lo = math.inf
        for b, v in zip(self.breaks, self.values):
            if b >= T:
                break
            lo = min(lo, v)
        return lo

    def map(self, fn: Callable[[float], float]) -> "PiecewiseConstant":
        return PiecewiseConstant(self.breaks, tuple(fn(v) for v in self.values))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PiecewiseConstant)
            and self.breaks == other.breaks
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.breaks, self.values))

    def __repr__(self) -> str:
        if len(self.values) == 1:
            return f"PiecewiseConstant.constant({self.values[0]!r})"
        return f"PiecewiseConstant({list(self.breaks)!r}, {list(self.values)!r})"


ScheduleLike = Union[float, int, PiecewiseConstant]


def as_schedule(value: ScheduleLike) -> PiecewiseConstant:
    """Promote a plain number to a constant schedule; pass schedules through."""
    if isinstance(value, PiecewiseConstant):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number or PiecewiseConstant, got {type(value).__name__}")
    if not math.isfinite(float(value)):
        raise ValueError("schedule values must be finite")
    return PiecewiseConstant.constant(float(value))


def combine(fn: Callable[..., float], *schedules: ScheduleLike) -> PiecewiseConstant:
    """Pointwise combination of schedules on their merged breakpoints."""
    scheds = [as_schedule(s) for s in schedules]
    cuts = sorted({b for s in scheds for b in s.breaks})
    return PiecewiseConstant(cuts, tuple(fn(*(s(b) for s in scheds)) for b in cuts))


def _piece_exp_factor(x: float, duration: float) -> float:
    """Exact value of integral_0^duration exp(-x * s / duration) ds ... rewritten:

    returns duration * (1 - exp(-x)) / x with the x -> 0 limit handled,
    where x = rate * duration of the decaying exponential on the piece.
    """
    if x == 0.0:
        return duration
    return duration * (-math.expm1(-x) / x)


def weighted_exp_integral(
    amplitude: ScheduleLike,
    rate: ScheduleLike,
    k: float,
    T: float,
) -> float:
    """Exact integral_0^T amplitude(t) * exp(-k * integral_0^t rate(s) ds) dt.

    Both inputs are piecewise constant, so each piece contributes a
    closed-form exponential term; the rate accumulator is carried across
    pieces exactly.
    """
    if T < 0.0:
        raise ValueError("integration endpoint must be nonnegative")
    if T == 0.0:
        return 0.0
    amp = as_schedule(amplitude)
    rt = as_schedule(rate)
    cuts = sorted({b for b in amp.breaks + rt.breaks if b < T} | {0.0})
    cuts.append(T)
    total = 0.0
    acc = 0.0  # integral of rate over [0, a] at the current piece start a
    for a, b in zip(cuts, cuts[1:]):
        v = amp(a)
        rho = rt(a)
        dur = b - a
        total += v * math.exp(-k * acc) * _piece_exp_factor(k * rho * dur, dur)
        acc += rho * dur
    return total
