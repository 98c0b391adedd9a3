"""Checks for when diagonal noise dominates the nonlinear scale.

The simulator assumes a constant xi > 0 with

    |x|_{r+1}^2 |x|_H^(sigma-2) >= xi |x|_Q^sigma   for all states x.   (*)

On a finite model the best xi is a minimum over states, estimated here
by sampling.  The asymptotic checks transcribe the known sufficient
conditions for (*) into exponent inequalities for families with
q_i ~ i^theta and lambda_i >= c i^rho, including the fractional-power
construction and the two worked parameter regimes.  Each check takes the
parameters it reads, and sigma=None stands for its floor 4/(1+r).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import CoefficientSet, _check_seed, _path_generators, _require_int, _sigma_floor
from .errors import InvalidSampleCount
from .spectral import SpectralModel, _panels, _row_dot

__all__ = [
    "ConditionReport",
    "hs_check",
    "check_noise_domination",
    "check_spectral_growth",
    "check_noise_sandwich",
    "check_power_spectrum_window",
    "check_fractional_power",
    "check_embedding_constant",
]


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check.

    clauses maps each named sub-condition to its truth value; numbers
    carries the thresholds, windows, and extremal values behind them.
    """

    holds: bool
    detail: str
    xi_estimate: float = 0.0
    witness: np.ndarray | None = None
    clauses: dict = field(default_factory=dict)
    numbers: dict = field(default_factory=dict)


def _finish(clauses: dict, numbers: dict, label: str, **extra) -> ConditionReport:
    holds = all(clauses.values())
    failing = [name for name, ok in clauses.items() if not ok]
    if holds:
        detail = f"{label}: all clauses hold ({', '.join(clauses)})"
    else:
        detail = f"{label}: failing clauses: {', '.join(failing)}"
    return ConditionReport(holds=holds, detail=detail, clauses=dict(clauses), numbers=dict(numbers), **extra)


def _ratio(num: float, den: float) -> float | None:
    """num / den, or None where den is zero: a threshold that does not exist."""
    return None if den == 0.0 else num / den


def _below(lo: float | None, hi: float | None) -> bool:
    """lo < hi; false where either threshold does not exist."""
    return lo is not None and hi is not None and lo < hi


def hs_check(model: SpectralModel | None = None, theta: float | None = None,
             rho: float = 2.0, alpha: float = 1.0) -> ConditionReport:
    """Finiteness of sum_i q_i^2 / lambda_i.

    Without theta the sum over the model's modes is finite by construction
    and reported.  With theta, for q_i ~ i^theta over the alpha-th power of
    an operator with lambda_i ~ i^rho, the series sum i^(2 theta - alpha rho)
    converges exactly when 2 theta - alpha rho < -1.
    """
    if theta is None:
        if model is None:
            raise ValueError("hs_check needs a model or a theta; got neither")
        value = model.hs_norm_sq
        return ConditionReport(
            holds=True,
            detail=f"noise size sum q_i^2/lambda_i = {value!r} over {model.n} modes",
            numbers={"hs_norm_sq": value},
            clauses={"finite": True},
        )
    exponent = 2.0 * theta - alpha * rho
    ok = exponent < -1.0
    return ConditionReport(
        holds=ok,
        detail=(
            f"series exponent 2*theta - alpha*rho = {exponent!r} "
            f"{'<' if ok else '>='} -1, so the noise-size series "
            f"{'converges' if ok else 'diverges'}"
        ),
        clauses={"series_converges": ok},
        numbers={"series_exponent": exponent},
    )


# the last sample drawn, as (model, n_samples, seed, sample, blocks, norms):
# blocks holds the normalized states' coefficients C and point values X,
# one state per column, PANEL-padded; norms holds their (|x|_H, |x|_Q)
# under "hq" and |x|_p under p.  The sampled checks of one command share it.
_last_sample = None


def _spread(v: np.ndarray, width: int) -> np.ndarray:
    """v as a contiguous block of width columns, each equal to v."""
    return np.repeat(v[:, None], width, axis=1)


def _mixture_samples(model: SpectralModel, n_samples: int, seed: int) -> np.ndarray:
    """Deterministic mixture of mode vectors, dense Gaussian states, and
    sparse point masses, each normalized to unit H norm.

    Row j is the mode vector e_(j//3 mod n) when j % 3 == 0, the state with
    standard normal spectral coefficients when j % 3 == 1, and a point mass
    of size +-(0.5 + U) at a uniform point when j % 3 == 2.  The draws come
    from one Philox stream in four batches, in this order: the Gaussian
    rows' coefficients, then the point masses' signs, their points and their
    sizes U.  State j is column j of two blocks, C and X: one matmul on each
    whole block completes the other, and one row dot gives the |x|_H that
    divides both, so a state's bits do not depend on n_samples.  The
    read-only sample, a view of X, is kept with its blocks and norms for the
    next call with the same model object, n_samples and seed.  n_samples < 1
    is an InvalidSampleCount; a seed outside [0, SEED_MAX], the Philox key
    word's range, and a non-integer seed or n_samples are a ValueError.
    """
    global _last_sample
    _check_seed(seed)
    _require_int("n_samples", n_samples)
    if n_samples < 1:
        raise InvalidSampleCount("n_samples must be at least 1")
    last = _last_sample
    if last is not None and last[0] is model and last[1:3] == (n_samples, seed):
        return last[3]
    (rng,) = _path_generators(seed, 0, 1)  # the Philox stream keyed by (seed, 0)
    n, width = model.n, _panels(n_samples)
    cols = np.arange(n_samples)
    gauss = rng.standard_normal((cols[1::3].size, n))
    k = cols[2::3].size
    sign, point, size = rng.integers(2, size=k), rng.integers(n, size=k), rng.random(k)
    blocks = np.zeros((2, n, width))
    C, X = blocks
    C[cols[0::3] // 3 % n, cols[0::3]] = 1.0
    C[:, 1:n_samples:3] = gauss.T
    X[point, cols[2::3]] = np.where(sign, 1.0, -1.0) * (0.5 + size)
    blocks += [model._analysis @ X, np.ascontiguousarray(model.eigenfunctions.T) @ C]  # C from X, X from C
    blocks[..., :n_samples] /= np.sqrt(_row_dot(C, C, _spread(1.0 / model.eigenvalues, width)))[:n_samples]
    xs = X[:, :n_samples].T
    xs.setflags(write=False)
    _last_sample = (model, n_samples, seed, xs, blocks, {})
    return xs


def _sample_norms(model: SpectralModel, n_samples: int, seed: int, p: float):
    """The mixture sample and its |x|_H, |x|_Q and |x|_p, each computed once
    per sample and exponent and kept with it: one row dot over C each for
    |x|_H and |x|_Q, and one over |X|^p for |x|_p."""
    xs = _mixture_samples(model, n_samples, seed)
    (C, X), norms = _last_sample[4:]  # the entry of xs, which _mixture_samples just made or kept
    width = C.shape[1]
    if "hq" not in norms:
        norms["hq"] = tuple(np.sqrt(_row_dot(C, C, _spread(1.0 / v, width)))[:n_samples]
                            for v in (model.eigenvalues, model.q_diag**2))
    if p not in norms:
        norms[p] = (_row_dot(np.abs(X) ** p, _spread(model.weights, width)) ** (1.0 / p))[:n_samples]
    return xs, *norms["hq"], norms[p]


def check_noise_domination(
    model: SpectralModel,
    coeffs: CoefficientSet,
    n_samples: int = 2000,
    seed: int = 0,
) -> ConditionReport:
    """Sampled lower bound on the noise-domination ratio (*).

    Records the minimum of |x|_{r+1}^2 |x|_H^(sigma-2) / |x|_Q^sigma
    over the mixture sample; that minimum is the largest xi consistent
    with the sample.  holds is true when the configured xi is at most
    the sampled minimum.

    A fixed row of the sample can set the minimum at every seed: on the
    nine-mode Dirichlet model with q_i = i^(-1/2) and r = 1/2 it is row
    24, the mode vector e_8, and seeds 3 and 7 both give
    0.006914940997251271; on the four-mode model, at those seeds, a
    Gaussian row sets it.  A sampled minimum lies above the infimum;
    ROADMAP item 5 plans a search in its place.
    """
    xs, nh, nq, lp = _sample_norms(model, n_samples, seed, coeffs.r + 1.0)
    sigma = coeffs.sigma
    ratios = lp**2 * nh ** (sigma - 2.0) / nq**sigma
    k = int(np.argmin(ratios))
    xi_est = float(ratios[k])
    xi_conf = min(coeffs.xi.values)
    ok = xi_conf <= xi_est
    return ConditionReport(
        holds=ok,
        detail=(
            f"sampled minimum ratio {xi_est!r} over {n_samples} states; "
            f"configured xi = {xi_conf!r} is {'consistent' if ok else 'too large'}"
        ),
        xi_estimate=xi_est,
        witness=xs[k].copy(),
        clauses={"xi_consistent": ok},
        numbers={"min_ratio": xi_est, "configured_xi": xi_conf},
    )


def check_spectral_growth(
    theta: float, d: float, eps: float, r: float, sigma: float | None = None, rho: float = 2.0
) -> ConditionReport:
    """Sufficient conditions for (*) from the Nash-type embedding route.

    Requires the noise-size series to converge, eps in (0, 1), effective
    dimension d below 2 eps (1+r)/(1-r), and noise growth exponent
    theta >= rho (sigma + 2 eps - 2) / (2 sigma).
    """
    sigma = _sigma_floor(r) if sigma is None else sigma
    hs_exponent = 2.0 * theta - rho  # alpha = 1 here: the operator itself
    d_max = 2.0 * eps * (1.0 + r) / (1.0 - r)
    growth_exponent = rho * (sigma + 2.0 * eps - 2.0) / (2.0 * sigma)
    clauses = {
        "hs_finite": hs_exponent < -1.0,
        "eps_in_0_1": 0.0 < eps < 1.0,
        "dimension_window": 0.0 < d < d_max,
        "noise_growth": theta >= growth_exponent,
        "sigma_admissible": sigma >= _sigma_floor(r),
    }
    numbers = {
        "hs_exponent": hs_exponent,
        "d_max": d_max,
        "growth_exponent": growth_exponent,
    }
    return _finish(clauses, numbers, "embedding-route sufficient conditions")


def check_noise_sandwich(
    r: float,
    eps: float,
    alpha_decay: float,
    theta: float | None = None,
    c1: float = 1.0,
    c2: float = 1.0,
    model: SpectralModel | None = None,
) -> ConditionReport:
    """Parameter regime with second-order eigenvalue growth on one dimension.

    Needs r in (1/3, 1), eps strictly between (1-r)/(2(1+r)) and r/(1+r),
    q_i^2 decay exponent alpha_decay < 1, and the sandwich
    c1 i^(eps(r+1)+1-r) <= q_i^2 <= c2 i^alpha_decay, which is possible
    only when eps(r+1) + 1 - r <= alpha_decay.
    """
    eps_lo = (1.0 - r) / (2.0 * (1.0 + r))
    eps_hi = r / (1.0 + r)
    lower_exponent = eps * (r + 1.0) + 1.0 - r
    clauses = {
        "r_in_window": 1.0 / 3.0 < r < 1.0,
        "eps_in_window": eps_lo < eps < eps_hi,
        "decay_below_one": alpha_decay < 1.0,
        "sandwich_compatible": lower_exponent <= alpha_decay,
    }
    numbers = {
        "eps_lo": eps_lo,
        "eps_hi": eps_hi,
        "lower_exponent": lower_exponent,
        "alpha_decay": alpha_decay,
    }
    if theta is not None:
        clauses["q_growth_in_sandwich"] = lower_exponent <= 2.0 * theta <= alpha_decay
        numbers["q_sq_exponent"] = 2.0 * theta
    if model is not None:
        i = np.arange(1, model.n + 1, dtype=float)
        qsq = model.q_diag**2
        clauses["finite_sandwich"] = bool(
            np.all(c1 * i**lower_exponent <= qsq) and np.all(qsq <= c2 * i**alpha_decay)
        )
    return _finish(clauses, numbers, "second-order growth regime")


def check_power_spectrum_window(
    theta: float, d: float, eps: float, r: float, sigma: float | None = None, alpha: float | None = None
) -> ConditionReport:
    """Power-noise regime q_i = i^theta over a fractional power of a base
    operator with lambda_i >= c i^(2/d).

    theta must exceed both (sigma+2eps-2)/(4(1-eps)) and
    (sigma+2eps-2)(1-r)/(2 sigma eps (1+r)); the admissible fractional
    powers form the half-open window
    (max((2 theta + 1) d / 2, (1-r) d / (2 eps (1+r))), sigma theta d / (sigma+2eps-2)].
    A threshold with a zero denominator (eps = 0 or 1, sigma + 2 eps = 2)
    is reported as None and the clauses that need it fail.  Without alpha
    there is no alpha_in_window clause.
    """
    sigma = _sigma_floor(r) if sigma is None else sigma
    s = sigma + 2.0 * eps - 2.0
    thresholds = (_ratio(s, 4.0 * (1.0 - eps)), _ratio(s * (1.0 - r), 2.0 * sigma * eps * (1.0 + r)))
    theta_min = None if None in thresholds else max(thresholds)
    dim_bound = _ratio((1.0 - r) * d, 2.0 * eps * (1.0 + r))
    alpha_lo = None if dim_bound is None else max((2.0 * theta + 1.0) * d / 2.0, dim_bound)
    alpha_hi = _ratio(sigma * theta * d, s)
    clauses = {
        "theta_above_threshold": _below(theta_min, theta),
        "alpha_window_nonempty": _below(alpha_lo, alpha_hi),
    }
    numbers = {"theta_min": theta_min, "alpha_lo": alpha_lo, "alpha_hi": alpha_hi}
    if alpha is not None:
        clauses["alpha_in_window"] = _below(alpha_lo, alpha) and alpha_hi is not None and alpha <= alpha_hi
        numbers["alpha"] = alpha
    return _finish(clauses, numbers, "power-noise fractional regime")


def check_fractional_power(
    theta: float, alpha: float, d: float, eps: float, r: float, sigma: float | None = None, rho: float = 2.0
) -> ConditionReport:
    """Fractional power construction: -(-L0)^alpha with diagonal noise.

    Requires alpha > d (1-r) / (2 eps (1+r)), a convergent noise-size
    series (2 theta - alpha rho < -1), and noise growth
    theta >= alpha rho (sigma + 2 eps - 2) / (2 sigma).  At eps = 0 the
    dimension threshold is reported as None and its clause fails.
    """
    sigma = _sigma_floor(r) if sigma is None else sigma
    alpha_min = _ratio(d * (1.0 - r), 2.0 * eps * (1.0 + r))
    hs_exponent = 2.0 * theta - alpha * rho
    growth_exponent = alpha * rho * (sigma + 2.0 * eps - 2.0) / (2.0 * sigma)
    clauses = {
        "alpha_above_dimension": _below(alpha_min, alpha),
        "hs_finite": hs_exponent < -1.0,
        "noise_growth": theta >= growth_exponent,
    }
    numbers = {
        "alpha_min": alpha_min,
        "hs_exponent": hs_exponent,
        "growth_exponent": growth_exponent,
    }
    return _finish(clauses, numbers, "fractional-power construction")


def check_embedding_constant(
    model: SpectralModel,
    coeffs: CoefficientSet,
    n_samples: int = 2000,
    seed: int = 0,
) -> ConditionReport:
    """Empirical constant of the embedding |x|_H <= c |x|_{r+1}.

    Always holds on a finite model; the report carries the largest
    sampled ratio as the constant.

    A fixed row of the sample can set the maximum at every seed: on the
    nine-mode Dirichlet model with q_i = i^(-1/2) and r = 1/2 it is row
    0, the mode vector e_0 (repeated every 3n rows), and seeds 3 and 7
    both give 0.32862329287222103; on the four-mode model, at those
    seeds, a Gaussian row sets it.  A sampled maximum lies below the
    supremum; ROADMAP item 5 plans a search in its place.
    """
    xs, nh, _, lp = _sample_norms(model, n_samples, seed, coeffs.r + 1.0)
    ratios = nh / lp
    k = int(np.argmax(ratios))
    best = float(ratios[k])
    return ConditionReport(
        holds=True,
        detail=f"empirical embedding constant {best!r} over {n_samples} states",
        witness=xs[k].copy(),
        clauses={"finite_constant": True},
        numbers={"embedding_constant": best},
    )
