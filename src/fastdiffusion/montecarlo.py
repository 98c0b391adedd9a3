"""Path ensembles, estimators, and inequality verdicts.

Paths are independent work items: path j draws its noise from a Philox
stream keyed by (seed, j), step-major and mode-minor, so an estimate is a
pure function of the configuration no matter how paths are batched or
scheduled.  One kernel, _simulate, advances plain and coupled paths in
fixed chunks of CHUNK_PATHS (vectorized within a chunk, chunks optionally
spread over a thread pool).  Within a path every sum runs in a fixed
order, per-path outputs land in preallocated arrays indexed by path, and
every reduction over paths is a numpy pairwise sum over that fixed
ordering.  Results are bit-identical for any chunk size and worker count.

A path whose state leaves the finite range is aborted and counted; a
run fails when more than 0.1 percent of its paths blow up.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds
from .coupling import DEFAULT_TOL_FACTOR, CouplingSchedule, make_schedule
from .dynamics import SCHEMES, CoefficientSet
from .errors import InvalidSampleCount, NonFiniteState, NotTimeHomogeneous, PositiveGamma
from .spectral import SpectralModel, from_spectral, norm_h, to_spectral

__all__ = [
    "EnsembleConfig",
    "Estimate",
    "estimate_from_values",
    "CoupledEnsembleResult",
    "make_test_function",
    "estimate_ptf",
    "estimate_weighted",
    "run_coupled_ensemble",
    "verify_harnack",
    "verify_exp_moment_bound",
    "estimate_invariant",
    "strong_feller_probe",
]

CHUNK_PATHS = 1024
TIME_BLOCK = 256
BLOWUP_BUDGET = 1e-3


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
    test_function: dict | None = None

    def __post_init__(self):
        if self.n_paths < 2:
            raise InvalidSampleCount(f"n_paths must be at least 2, got {self.n_paths!r}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.burn_in < 0.0 or self.burn_in >= self.T:
            raise ValueError("burn_in must lie in [0, T)")
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


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo mean with its standard error over n effective paths."""

    mean: float
    stderr: float
    n: int

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.mean - 1.96 * self.stderr, self.mean + 1.96 * self.stderr)

    def as_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr, "n": self.n, "ci95": list(self.ci95)}


def estimate_from_values(vals: np.ndarray) -> Estimate:
    n = int(vals.size)
    if n < 2:
        raise InvalidSampleCount("an estimate needs at least 2 surviving paths")
    mean = float(np.sum(vals) / n)
    var = float(np.sum((vals - mean) ** 2) / (n - 1))
    return Estimate(mean=mean, stderr=math.sqrt(var / n), n=n)


def make_test_function(model: SpectralModel, spec: dict | None):
    """Bounded test function on states from its config description.

    None falls back to exp(-|x|_H^2), a strictly positive bounded default.
    """
    kind = "exp_neg_h_sq" if spec is None else spec["kind"]
    if kind == "exp_neg_h_sq":
        return lambda X: np.exp(-(norm_h(model, X) ** 2))
    if kind == "rational_h":
        return lambda X: 1.0 / (1.0 + norm_h(model, X) ** 2)
    if kind == "indicator_ball":
        center = np.asarray(spec["center"], dtype=float)
        radius = float(spec["radius"])
        return lambda X: (
            np.asarray(norm_h(model, np.asarray(X, float) - center)) <= radius
        ).astype(float)
    raise ValueError(f"unknown test function kind {kind!r}")


def _chunk_ranges(n_paths: int):
    return [(lo, min(lo + CHUNK_PATHS, n_paths)) for lo in range(0, n_paths, CHUNK_PATHS)]


def _dispatch(work, n_workers: int):
    if n_workers <= 1:
        for item in work:
            item()
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(item) for item in work]
            for f in futures:
                f.result()


def _path_generators(seed: int, lo: int, hi: int):
    return [
        np.random.Generator(np.random.Philox(key=np.array([seed, p], dtype=np.uint64)))
        for p in range(lo, hi)
    ]


def _lp_power(model: SpectralModel, X: np.ndarray, expo: float) -> np.ndarray:
    return (model.space.weights * np.abs(X) ** expo).sum(axis=-1)


def _check_blowups(alive: np.ndarray, what: str):
    dead = int(alive.size - np.count_nonzero(alive))
    if dead > BLOWUP_BUDGET * alive.size:
        raise NonFiniteState(
            f"{dead} of {alive.size} {what} paths left the finite range "
            f"(budget {BLOWUP_BUDGET:.1%})"
        )
    return dead


# ---------------------------------------------------------------------------
# the ensemble kernel
# ---------------------------------------------------------------------------

def _row_sum(A: np.ndarray) -> np.ndarray:
    """Sum of the rows of A, added one row at a time in order.

    numpy's own reductions choose their summation order from the array's
    width, which would make a path's bits depend on how many paths share
    its chunk.
    """
    out = A[0].copy()
    for row in A[1:]:
        out += row
    return out


@dataclass
class _Paths:
    """Per-path output of one kernel run; arrays indexed by path.

    final holds the point values at T of each of the k copies, shape
    (k, n_paths, n).  lp_int is the trapezoid integral of |.|_{r+1}^{r+1}
    per copy, kept the thinned snapshots of a plain run, trace the
    rows (t, |X-Y|_H, beta_t, |zeta_t|^2) of the traced pairs.
    """

    final: np.ndarray
    alive: np.ndarray
    lp_int: np.ndarray | None = None
    kept: np.ndarray | None = None
    coupled: np.ndarray | None = None
    tau: np.ndarray | None = None
    log_stoch_int: np.ndarray | None = None
    zeta_sq_int: np.ndarray | None = None
    f_int: np.ndarray | None = None
    trace: np.ndarray | None = None


def _simulate(
    model: SpectralModel,
    coeffs: CoefficientSet,
    cfg: EnsembleConfig,
    starts,
    sched: CouplingSchedule | None = None,
    couple_tol: float = 0.0,
    want_lp: bool = False,
    thin: int = 0,
    trace_paths: int = 0,
    record_every: int = 1,
) -> _Paths:
    """Advance cfg.n_paths paths, each k = len(starts) copies under shared noise.

    k = 1 is a plain run.  k = 2 is a coupled run: the second copy is
    attracted to the first by sched until their H distance first drops to
    couple_tol, and is equal to it from then on.

    A chunk of P paths is carried as eigen-coefficients in a mode-major
    block of shape (n, k, P).  Each step makes one transform to point
    values, where |x|^r serves Psi, the moments and the f envelope, and
    one transform of Psi back.  Everything else is diagonal in the
    eigenbasis: the drift, the H norms, zeta, the noise q sqrt(dt) xi and,
    because the eigenfunctions are m-orthonormal, the taming norm.
    Every per-path number is a function of its own column only, so
    results do not depend on the chunk or on the worker count.
    """
    n = model.n
    k = len(starts)
    N = cfg.n_paths
    n_steps = cfg.n_steps
    dt = cfg.dt
    coupled_run = sched is not None
    want_lp = want_lp or coupled_run  # the f envelope needs the moments anyway
    r = coeffs.r
    identity = coeffs.nonlinearity == "identity"
    tamed = cfg.scheme != "explicit_euler"
    w = model.space.weights[:, None]
    inv_lam = (1.0 / model.eigenvalues)[:, None]
    inv_q = (1.0 / model.q_diag)[:, None]
    q_sqdt = (model.q_diag * math.sqrt(dt))[:, None]
    c0 = to_spectral(model, np.asarray(starts, dtype=float)).T[:, :, None]

    # time-dependent coefficients, evaluated once per step of the run
    ts = [0.0]
    for _ in range(n_steps):
        ts.append(ts[-1] + dt)
    scales = [1.0 if identity else coeffs.delta(t) / (2.0 * r) for t in ts[:-1]]
    neg_lam = {v: -v * model.eigenvalues[:, None] for v in set(scales)}
    gammas = [coeffs.gamma(t) for t in ts[:-1]]
    if coupled_run:
        eps = sched.epsilon
        betas = [sched.beta(t) for t in ts[:-1]]
        f_expo = ((1.0 - r) / (1.0 + r), 2.0 / (coeffs.sigma - 2.0))

    kept_steps = (
        [s for s in range(cfg.burn_steps + 1, n_steps + 1) if (s - cfg.burn_steps) % thin == 0]
        if thin else []
    )
    n_rec = n_steps // record_every if trace_paths else 0

    out = _Paths(final=np.empty((k, N, n)), alive=np.ones(N, dtype=bool))
    if want_lp:
        out.lp_int = np.zeros((k, N))
    if kept_steps:
        out.kept = np.empty((len(kept_steps), N, n))
    if coupled_run:
        out.coupled = np.zeros(N, dtype=bool)
        out.tau = np.full(N, math.nan)
        out.log_stoch_int = np.zeros(N)
        out.zeta_sq_int = np.zeros(N)
        out.f_int = np.zeros(N)
    if n_rec:
        out.trace = np.empty((trace_paths, n_rec, 4))

    def run_chunk(lo: int, hi: int):
        P = hi - lo
        C = np.empty((n, k, P))
        C[...] = c0
        C2 = C.reshape(n, k * P)
        ok = np.ones(P, dtype=bool)
        gens = _path_generators(cfg.seed, lo, hi)
        noise = np.empty((P, min(TIME_BLOCK, n_steps), n))
        dW = np.empty((n, P))
        if want_lp:
            lp = np.zeros((k, P))
        if coupled_run:
            coupled = np.zeros(P, dtype=bool)
            tau = np.full(P, math.nan)
            log_s = np.zeros(P)
            zsq = np.zeros(P)
            f_acc = np.zeros(P)
        n_tr = max(0, min(hi, trace_paths) - lo)
        ki = 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for s in range(n_steps + 1):
                # the state after s steps, in point values
                Xp = from_spectral(model, C2, mode_major=True)
                if want_lp or not identity:
                    A = np.abs(Xp)
                    Ar = A**r
                if want_lp:
                    V = A * Ar
                    v = _row_sum(V * w).reshape(k, P)
                    if s:
                        lp += 0.5 * (v_prev + v) * dt
                    v_prev = v
                if ki < len(kept_steps) and s == kept_steps[ki]:
                    out.kept[ki, lo:hi] = Xp.T
                    ki += 1
                if n_tr and s and s % record_every == 0:
                    D = C[:, 0, :n_tr] - C[:, 1, :n_tr]
                    dist = np.sqrt(_row_sum(D * D * inv_lam))
                    beta = sched.beta(min(ts[s], sched.T))
                    zc = D * (beta / dist**eps) * inv_q
                    zeta_sq = np.where(coupled[:n_tr] | (dist == 0.0), 0.0, _row_sum(zc * zc))
                    out.trace[lo:lo + n_tr, s // record_every - 1] = np.stack(
                        np.broadcast_arrays(ts[s], dist, beta, zeta_sq), axis=-1
                    )
                if s == n_steps:
                    break

                b = s % TIME_BLOCK
                if b == 0:
                    B = min(TIME_BLOCK, n_steps - s)
                    for p, g in enumerate(gens):
                        g.standard_normal(out=noise[p, :B])
                np.multiply(noise[:, b].T, q_sqdt, out=dW)

                T = C2 if identity else to_spectral(model, np.copysign(Ar, Xp), mode_major=True)
                drift = T * neg_lam[scales[s]]
                if gammas[s]:
                    drift += gammas[s] * C2
                if coupled_run:
                    D = C[:, 0] - C[:, 1]
                    dist = np.sqrt(_row_sum(D * D * inv_lam))
                    newly = ~coupled & (dist <= couple_tol)
                    tau[newly] = ts[s]
                    coupled |= newly
                    active = ~coupled
                    ratio = np.where(active, betas[s] / np.where(active, dist, 1.0) ** eps, 0.0)
                    attraction = D * ratio
                    drift.reshape(n, k, P)[:, 1] += attraction
                    zc = attraction * inv_q
                    zsq += _row_sum(zc * zc) * dt
                    log_s += _row_sum(zc * (dW * inv_q))
                    env = np.maximum(V[:, :P], V[:, P:])
                    fval = (_row_sum(env * w) ** f_expo[0]) ** f_expo[1]
                    f_acc += np.where(active, fval, 0.0) * dt

                if tamed:
                    drift *= dt / (1.0 + dt * np.sqrt(_row_sum(drift * drift)))
                else:
                    drift *= dt
                C2 += drift
                C += dW[:, None, :]
                if coupled_run:
                    np.copyto(C[:, 1], C[:, 0], where=coupled)

                if (s + 1) % TIME_BLOCK == 0 or s + 1 == n_steps:
                    finite = np.isfinite(C).all(axis=(0, 1))
                    if not finite.all():
                        C[:, :, ~finite] = 0.0
                        ok &= finite
                        if want_lp:
                            lp[:, ~finite] = math.nan

        out.final[:, lo:hi] = Xp.reshape(n, k, P).transpose(1, 2, 0)
        out.alive[lo:hi] = ok
        if want_lp:
            out.lp_int[:, lo:hi] = lp
        if coupled_run:
            out.coupled[lo:hi] = coupled
            out.tau[lo:hi] = tau
            out.log_stoch_int[lo:hi] = log_s
            out.zeta_sq_int[lo:hi] = zsq
            out.f_int[lo:hi] = f_acc

    _dispatch(
        [lambda lo=lo, hi=hi: run_chunk(lo, hi) for lo, hi in _chunk_ranges(N)],
        cfg.n_workers,
    )
    return out


# ---------------------------------------------------------------------------
# plain ensembles
# ---------------------------------------------------------------------------

def estimate_ptf(model: SpectralModel, coeffs: CoefficientSet, cfg: EnsembleConfig, x, F=None) -> Estimate:
    """Monte Carlo estimate of E F(X_T) for paths started at x."""
    if F is None:
        F = make_test_function(model, cfg.test_function)
    run = _simulate(model, coeffs, cfg, [x])
    _check_blowups(run.alive, "plain")
    return estimate_from_values(np.asarray(F(run.final[0][run.alive]), dtype=float))


# ---------------------------------------------------------------------------
# coupled ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoupledEnsembleResult:
    """Raw per-path output of a coupled run; arrays indexed by path.

    lp_int_x and lp_int_y are the path integrals of |.|_{r+1}^{r+1} of
    the two copies.  trace, when requested, has shape (paths, rows, 4)
    with rows (t, |X-Y|_H, beta_t, |zeta_t|^2).
    """

    schedule: CouplingSchedule
    XT: np.ndarray
    YT: np.ndarray
    coupled: np.ndarray
    tau: np.ndarray
    log_stoch_int: np.ndarray
    zeta_sq_int: np.ndarray
    f_int: np.ndarray
    lp_int_x: np.ndarray
    lp_int_y: np.ndarray
    dist_final: np.ndarray
    alive: np.ndarray
    n_blowups: int
    couple_tol: float
    trace: np.ndarray | None = None

    @property
    def weights(self) -> np.ndarray:
        """Change-of-measure weight per path (alive paths only are meaningful)."""
        return np.exp(-self.log_stoch_int - 0.5 * self.zeta_sq_int)

    @property
    def coupled_fraction(self) -> float:
        a = self.alive
        return float(np.count_nonzero(self.coupled & a) / max(np.count_nonzero(a), 1))


def run_coupled_ensemble(
    model: SpectralModel,
    coeffs: CoefficientSet,
    cfg: EnsembleConfig,
    x,
    y,
    couple_tol: float | None = None,
    *,
    trace_paths: int = 0,
    record_every: int = 1,
) -> CoupledEnsembleResult:
    """Advance cfg.n_paths coupled pairs from (x, y) under shared noise.

    The meeting tolerance defaults to 1e-6 times the starting gap in the
    H norm.  Paths with index below trace_paths record a trace row after
    every record_every-th step.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sched = make_schedule(model, coeffs, cfg.realized_T, x, y)
    if couple_tol is None:
        couple_tol = DEFAULT_TOL_FACTOR * sched.dist0 if sched.dist0 > 0.0 else 1.0
    elif sched.dist0 > 0.0 and not couple_tol > 0.0:
        raise ValueError("couple_tol must be strictly positive for distinct starting points")
    if trace_paths and record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every!r}")
    run = _simulate(
        model, coeffs, cfg, [x, y], sched, couple_tol,
        trace_paths=min(trace_paths, cfg.n_paths), record_every=record_every,
    )
    n_blow = _check_blowups(run.alive, "coupled")
    XT, YT = run.final
    return CoupledEnsembleResult(
        schedule=sched, XT=XT, YT=YT, coupled=run.coupled, tau=run.tau,
        log_stoch_int=run.log_stoch_int, zeta_sq_int=run.zeta_sq_int, f_int=run.f_int,
        lp_int_x=run.lp_int[0], lp_int_y=run.lp_int[1],
        dist_final=np.asarray(norm_h(model, XT - YT)), alive=run.alive,
        n_blowups=n_blow, couple_tol=couple_tol, trace=run.trace,
    )


def estimate_weighted(
    model: SpectralModel,
    coeffs: CoefficientSet,
    cfg: EnsembleConfig,
    x,
    y,
    F=None,
    exponent: float = 1.0,
    couple_tol: float | None = None,
) -> Estimate:
    """Monte Carlo estimate of E R^exponent F(X_T) over coupled pairs.

    With exponent 1 this estimates the semigroup at y by reweighting
    paths started at x.
    """
    if F is None:
        F = make_test_function(model, cfg.test_function)
    res = run_coupled_ensemble(model, coeffs, cfg, x, y, couple_tol)
    a = res.alive
    vals = res.weights[a] ** exponent * np.asarray(F(res.XT[a]), dtype=float)
    return estimate_from_values(vals)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def verify_harnack(
    model: SpectralModel,
    coeffs: CoefficientSet,
    cfg: EnsembleConfig,
    x,
    y,
    p: float,
    F=None,
    slack: float = 0.05,
    couple_tol: float | None = None,
) -> dict:
    """Check (estimated P_T F(y))^p <= bound * estimated P_T F^p(x).

    The left side uses the reweighted estimator over coupled pairs; the
    right side reuses the same paths' first copies, so the empirical
    inequality inherits the pathwise Hoelder structure.  The verdict
    compares 95 percent confidence extremes with multiplicative slack.

    When the multiplier overflows to inf the bound carries no information:
    the verdict holds with informative False, and rhs and its interval
    are null.
    """
    if F is None:
        F = make_test_function(model, cfg.test_function)
    T = cfg.realized_T
    res = run_coupled_ensemble(model, coeffs, cfg, x, y, couple_tol)
    a = res.alive
    FX = np.asarray(F(res.XT[a]), dtype=float)
    west = estimate_from_values(res.weights[a] * FX)
    xest = estimate_from_values(FX**p)
    rest = estimate_from_values(res.weights[a])

    factor = bounds.harnack_rhs(model, coeffs, T, p, x, y)
    lhs = max(west.mean, 0.0) ** p
    lhs_hi = max(west.mean + 1.96 * west.stderr, 0.0) ** p
    lhs_lo = max(west.mean - 1.96 * west.stderr, 0.0) ** p
    informative = math.isfinite(factor)
    if informative:
        rhs = factor * xest.mean
        rhs_lo = factor * (xest.mean - 1.96 * xest.stderr)
        rhs_hi = factor * (xest.mean + 1.96 * xest.stderr)
        holds = lhs_hi <= rhs_lo * (1.0 + slack)
    else:
        rhs = rhs_lo = rhs_hi = None
        holds = True

    return {
        "holds": bool(holds),
        "informative": informative,
        "p": p,
        "slack": slack,
        "lhs": lhs,
        "lhs_ci95": [lhs_lo, lhs_hi],
        "rhs": rhs,
        "rhs_ci95": [rhs_lo, rhs_hi],
        "rhs_factor": factor,
        "weighted_estimate": west.as_dict(),
        "plain_p_estimate": xest.as_dict(),
        "mean_weight": rest.as_dict(),
        "coupled_fraction": res.coupled_fraction,
        "n_blowups": res.n_blowups,
    }


def verify_exp_moment_bound(
    model: SpectralModel,
    coeffs: CoefficientSet,
    cfg: EnsembleConfig,
    x,
    y=None,
    couple_tol: float | None = None,
) -> dict:
    """Check the exponential moment bounds for the path integral of
    |X_t|_{r+1}^{r+1} (and of the attracted copy when y is given).

    The comparison is CI-aware: holds reflects the point estimate; a
    marginal flag is raised when the bound lies inside the 3-sigma
    confidence interval inflated by 5 percent.
    """
    T = cfg.realized_T
    lam = bounds.exp_moment_weight(model, coeffs, T)
    th = bounds.log_moment_rate_int(model, coeffs, T)
    nx = float(norm_h(model, x))

    def side(vals: np.ndarray, rhs: float) -> dict:
        shift = float(np.max(vals))
        est = estimate_from_values(np.exp(vals - shift))
        mean = est.mean * math.exp(shift)
        se = est.stderr * math.exp(shift)
        lo, hi = mean - 3.0 * se, mean + 3.0 * se
        return {
            "mean": mean,
            "stderr": se,
            "n": est.n,
            "rhs": rhs,
            "holds": bool(mean <= rhs),
            "marginal": bool(lo * 0.95 <= rhs <= hi * 1.05),
        }

    out = {"exp_moment_weight": lam, "log_moment_rate_int": th, "T": T}
    if y is None:
        run = _simulate(model, coeffs, cfg, [x], want_lp=True)
        _check_blowups(run.alive, "plain")
        out["x_side"] = side(lam * run.lp_int[0][run.alive], math.exp(th + nx**2))
        out["holds"] = out["x_side"]["holds"]
        return out

    res = run_coupled_ensemble(model, coeffs, cfg, x, y, couple_tol)
    a = res.alive
    # the first copy of each pair goes through exactly the arithmetic of a
    # plain run from x with the same seed
    out["x_side"] = side(lam * res.lp_int_x[a], math.exp(th + nx**2))

    ny = float(norm_h(model, y))
    sched = res.schedule
    extra = sched.dist0 ** (2.0 * (1.0 - sched.epsilon)) * sched.beta_sq_exp_integral()
    out["y_side"] = side(lam * res.lp_int_y[a], math.exp(th + ny**2 + extra))
    out["y_side"]["beta_sq_exp_integral"] = sched.beta_sq_exp_integral()
    out["holds"] = bool(out["x_side"]["holds"] and out["y_side"]["holds"])
    return out


def estimate_invariant(
    model: SpectralModel,
    coeffs: CoefficientSet,
    cfg: EnsembleConfig,
    x0=None,
    thin: int = 10,
    eps0: float = 0.01,
):
    """Empirical long-run sample and its moment report.

    Requires constant coefficients with gamma <= 0.  Paths start at x0
    (zero by default), the first burn_in of time is discarded, and the
    chain is sampled every thin steps.  The report carries ergodic
    averages of |.|_{r+1}^{r+1} and exp(eps0 |.|_H^{r+1}) (plus
    exp(eps0 |.|_H^2) when gamma < 0) and a split-half agreement
    diagnostic over the two halves of the sampling window.
    """
    if not coeffs.is_time_homogeneous:
        raise NotTimeHomogeneous("invariant-measure estimation requires constant coefficients")
    gamma = coeffs.gamma(0.0)
    if gamma > 0.0:
        raise PositiveGamma(f"invariant-measure estimation requires gamma <= 0, got {gamma!r}")
    if thin < 1:
        raise ValueError("thin must be at least 1")
    if cfg.burn_in <= 0.0:
        raise ValueError("estimate_invariant needs a positive burn_in")

    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    run = _simulate(model, coeffs, cfg, [x0], thin=thin)
    _check_blowups(run.alive, "plain")
    if run.kept is None or run.kept.shape[0] < 2:
        raise InvalidSampleCount("sampling window too short; increase T or decrease thin")
    kept = run.kept[:, run.alive, :]
    n_kept, n_paths = kept.shape[0], kept.shape[1]

    rp1 = coeffs.r + 1.0
    flat = kept.reshape(-1, model.n)
    split = (n_kept // 2) * n_paths
    windows = (slice(None, split), slice(split, None), slice(None))

    def window_means(values: np.ndarray) -> list:
        """Means of per-sample values over the first half, the second half
        and the whole sampling window (rows are time-major)."""
        return [float(np.sum(values[w]) / values[w].shape[0]) for w in windows]

    # each per-sample quantity is computed once, over all samples
    means = {"moment_rp1": window_means(_lp_power(model, flat, rp1))}
    nh = norm_h(model, flat)
    means["exp_h_rp1"] = window_means(np.exp(eps0 * nh**rp1))
    if gamma < 0.0:
        means["exp_h_sq"] = window_means(np.exp(eps0 * nh**2))
    first, second, overall = ({k: v[i] for k, v in means.items()} for i in range(3))
    rel = {
        k: abs(first[k] - second[k]) / ((first[k] + second[k]) / 2.0)
        for k in first
    }
    report = {
        "gamma": gamma,
        "eps0": eps0,
        "n_samples": n_kept * n_paths,
        "n_kept_times": n_kept,
        "n_paths": n_paths,
        "thin": thin,
        "burn_in": cfg.burn_in,
        "averages": overall,
        "split_half": {"first": first, "second": second, "rel_diff": rel},
    }
    return flat, report


def strong_feller_probe(
    model: SpectralModel,
    coeffs: CoefficientSet,
    cfg: EnsembleConfig,
    x,
    F=None,
    radii=(0.1, 0.05, 0.025, 0.0125),
) -> dict:
    """Sensitivity of the estimated semigroup to the starting point.

    Estimates P_T F at x and at x + h e_1 for shrinking h, reusing the
    same seed so every estimate sees identical noise (common random
    numbers).  Reports the differences; draws no verdict.
    """
    if F is None:
        F = make_test_function(model, cfg.test_function)
    x = np.asarray(x, dtype=float)
    base = estimate_ptf(model, coeffs, cfg, x, F)
    e1 = model.eigenfunctions[0]
    rows = []
    for h in radii:
        est = estimate_ptf(model, coeffs, cfg, x + h * e1, F)
        rows.append({
            "h": float(h),
            "ptf": est.mean,
            "stderr": est.stderr,
            "abs_diff": abs(est.mean - base.mean),
        })
    return {
        "base": base.as_dict(),
        "rows": rows,
        "note": "common random numbers: all estimates share one noise stream per path",
    }
