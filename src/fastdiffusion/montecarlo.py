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

A coupled pair needs its second copy only until the two copies meet;
from then on the second copy equals the first bit for bit.  At the start
of each noise block the pairs that met during the last one leave the
two-copy block, and the kernel advances them in one copy.  Their Y-side
numbers are read off the first copy and their weight terms, exact zeros,
are skipped, so no per-path number depends on when a pair moves.

A path whose state leaves the finite range is aborted and counted; a
run fails when more than 0.1 percent of its paths blow up.
"""

from __future__ import annotations

import bisect
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
    """Mean and standard error of vals.

    Values past float range give a mean of inf (or nan) and a stderr of
    inf or nan, which the record prints as null; numpy stays quiet.
    """
    n = int(vals.size)
    if n < 2:
        raise InvalidSampleCount("an estimate needs at least 2 surviving paths")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.sum(vals) / n)
        var = float(np.sum((vals - mean) ** 2) / (n - 1))
    return Estimate(mean=mean, stderr=math.sqrt(var / n), n=n)


def make_test_function(model: SpectralModel, spec: dict):
    """Bounded test function on states from its config description."""
    kind = spec["kind"]
    if kind == "exp_neg_h_sq":
        return lambda X: np.exp(-(norm_h(model, X) ** 2))
    if kind == "rational_h":
        return lambda X: 1.0 / (1.0 + norm_h(model, X) ** 2)
    if kind == "indicator_ball":
        center = spec["center"]
        if isinstance(center, dict):  # given by its eigen-coefficients
            center = from_spectral(model, center["spectral"])
        center = np.asarray(center, dtype=float)
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


def _sample_stats(X: np.ndarray, C: np.ndarray, w: np.ndarray, inv_lam: np.ndarray,
                  rp1: float, eps0: float) -> np.ndarray:
    """The per-sample values |x|_{r+1}^{r+1}, exp(eps0 |x|_H^{r+1}) and
    exp(eps0 |x|_H^2) of m states given mode-major by their point values
    X and their eigen-coefficients C, both of shape (n, m); the result
    has shape (3, m).  |x|_H is (sum_i c_i^2 / lambda_i)^(1/2), read off C."""
    nh = np.sqrt(_row_sum(C * C * inv_lam))
    return np.stack([
        _row_sum(w * np.abs(X) ** rp1),
        np.exp(eps0 * nh**rp1),
        np.exp(eps0 * nh**2),
    ])


@dataclass
class _Paths:
    """Per-path output of one kernel run; arrays indexed by path.

    final holds the point values at T of each of the k copies, shape
    (k, n_paths, n).  lp_int is the trapezoid integral of |.|_{r+1}^{r+1}
    per copy of a coupled run, trace the rows (t, |X-Y|_H, beta_t,
    |zeta_t|^2) of the traced pairs.

    A plain run sampled every thin steps carries window_sums[h, q, j]:
    the sum of _sample_stats value q of path j over the kept times in
    half h of the sampling window (the first n_kept // 2 kept times, then
    the rest), added one kept time at a time in time order, so a path's
    sums do not depend on the chunk, TIME_BLOCK or the worker count.
    kept holds the thinned snapshots themselves, shape (n_kept, n_paths,
    n), only when the run was asked to keep them.
    """

    final: np.ndarray
    alive: np.ndarray
    lp_int: np.ndarray | None = None
    window_sums: np.ndarray | None = None
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
    thin: int = 0,
    eps0: float = 0.0,
    keep: bool = False,
    trace_paths: int = 0,
    record_every: int = 1,
) -> _Paths:
    """Advance cfg.n_paths paths, each k = len(starts) copies under shared noise.

    k = 1 is a plain run.  k = 2 is a coupled run: the second copy is
    attracted to the first by sched until their H distance first drops to
    couple_tol, and is equal to it from then on.

    With thin > 0 a one-copy run samples its state every thin steps after
    burn-in and streams the samples' statistics (at eps0) into
    window_sums; keep also stores the samples.  The kept states of up to
    one noise block are buffered and reduced in one pass.

    A chunk of P paths is carried as eigen-coefficients in a mode-major
    block: the first copies in columns [0, P), then a plain run's other
    copies, P columns each, or a coupled run's second copies of the m
    pairs in positions [0, m), those that had not met at the start of the
    noise block.  There one stable permutation of every per-path array
    and generator moves the pairs that met behind the rest; ids maps
    positions to paths.

    Each step makes one transform to point values, where |x|^r serves
    Psi, the moments and the f envelope, and one transform of Psi back.
    Everything else is diagonal in the eigenbasis: the drift, the H norms,
    zeta, the noise q sqrt(dt) xi and, because the eigenfunctions are
    m-orthonormal, the taming norm.  Every per-path number is a function
    of its own column only, so results do not depend on the chunk, on
    where a path sits in it, on when pairs are moved or on the worker
    count.
    """
    n = model.n
    k = len(starts)
    N = cfg.n_paths
    n_steps = cfg.n_steps
    dt = cfg.dt
    coupled_run = sched is not None
    r = coeffs.r
    identity = coeffs.nonlinearity == "identity"
    tamed = cfg.scheme != "explicit_euler"
    w = model.space.weights[:, None]
    inv_lam = (1.0 / model.eigenvalues)[:, None]
    inv_q = (1.0 / model.q_diag)[:, None]
    q_sqdt = (model.q_diag * math.sqrt(dt))[:, None]
    lam = model.eigenvalues[:, None]
    c0 = to_spectral(model, np.asarray(starts, dtype=float)).T[:, :, None]
    # delta and gamma are read again only where one of them enters a new piece
    cuts = sorted(set(coeffs.delta.breaks) | set(coeffs.gamma.breaks))
    if coupled_run:
        eps = sched.epsilon
        f_expo = ((1.0 - r) / (1.0 + r), 2.0 / (coeffs.sigma - 2.0))

    burn = cfg.burn_steps
    n_kept = (n_steps - burn) // thin if thin else 0
    half = n_kept // 2
    batch = min(n_kept, max(1, TIME_BLOCK // thin)) if n_kept else 0
    rp1 = r + 1.0
    n_rec = n_steps // record_every if trace_paths else 0

    out = _Paths(final=np.empty((k, N, n)), alive=np.ones(N, dtype=bool))
    if n_kept:
        out.window_sums = np.empty((2, 3, N))
        if keep:
            out.kept = np.empty((n_kept, N, n))
    if coupled_run:
        out.lp_int = np.zeros((k, N))
        out.coupled = np.zeros(N, dtype=bool)
        out.tau = np.full(N, math.nan)
        out.log_stoch_int = np.zeros(N)
        out.zeta_sq_int = np.zeros(N)
        out.f_int = np.zeros(N)
    if n_rec:
        out.trace = np.empty((trace_paths, n_rec, 4))

    def run_chunk(lo: int, hi: int):
        P = hi - lo
        m = P  # pairs in positions [0, m) carry a second copy
        C2 = np.empty((n, k * P))
        copies = C2.reshape(n, k, P)  # a plain run's block keeps this shape
        copies[...] = c0
        ok = np.ones(P, dtype=bool)
        ids = np.arange(P)
        gens = _path_generators(cfg.seed, lo, hi)
        noise = np.empty((P, min(TIME_BLOCK, n_steps), n))
        dW = np.empty((n, P))
        if coupled_run:
            lp = np.zeros((k, P))
            coupled = np.zeros(P, dtype=bool)
            tau = np.full(P, math.nan)
            log_s = np.zeros(P)
            zsq = np.zeros(P)
            f_acc = np.zeros(P)

            def second(A):
                """The second copy of every pair in position order; a met
                pair's is its first."""
                return np.concatenate([A[..., P:], A[..., m:P]], axis=-1)

        n_tr = max(0, min(hi, trace_paths) - lo)
        # columns of the two copies of the traced pairs, in path order
        tr_x = np.arange(n_tr)
        tr_y = P + tr_x
        if n_kept:
            sums = np.zeros((2, 3, P))
            # kept j of the current batch sits in columns j*P:(j+1)*P
            buf_X = np.empty((n, batch * P))
            buf_C = np.empty((n, batch * P))
        ki = nb = 0
        t = 0.0  # time after s steps, summed step by step
        next_cut = 0.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for s in range(n_steps + 1):
                b = s % TIME_BLOCK
                if coupled_run and b == 0 and s < n_steps and coupled[:m].any():
                    # the pairs that met during the last block move behind the
                    # rest: a stable partition, pairs still apart first
                    order = np.concatenate([np.flatnonzero(~coupled), np.flatnonzero(coupled)])
                    m -= int(np.count_nonzero(coupled[:m]))
                    # take keeps the block mode-major (C order); indexing would not
                    C2 = C2.take(np.concatenate([order, P + order[:m]]), axis=1)
                    for a in (ok, ids, lp, v_prev, coupled, tau, log_s, zsq, f_acc):
                        a[...] = a[..., order]
                    gens = [gens[i] for i in order]
                    pos = np.empty_like(ids)
                    pos[ids] = np.arange(P)  # pos[j]: where path lo + j sits
                    tr_x = pos[:n_tr]
                    tr_y = np.where(tr_x < m, P + tr_x, tr_x)

                # the state after s steps, in point values
                Xp = from_spectral(model, C2, mode_major=True)
                if coupled_run or not identity:
                    A = np.abs(Xp)
                    Ar = A**r
                if coupled_run:
                    V = A * Ar
                    v = _row_sum(V * w)
                    v = np.stack([v[:P], second(v)])
                    if s:
                        lp += 0.5 * (v_prev + v) * dt
                    v_prev = v
                if n_kept and s > burn and (s - burn) % thin == 0:
                    if keep:
                        out.kept[ki, lo:hi] = Xp.T
                    buf_X[:, nb * P:(nb + 1) * P] = Xp
                    buf_C[:, nb * P:(nb + 1) * P] = C2
                    ki += 1
                    nb += 1
                    if nb == batch or ki == n_kept:
                        vals = _sample_stats(
                            buf_X[:, :nb * P], buf_C[:, :nb * P], w, inv_lam, rp1, eps0,
                        ).reshape(3, nb, P)
                        for j in range(nb):
                            sums[int(ki - nb + j >= half)] += vals[:, j]
                        nb = 0
                if n_tr and s and s % record_every == 0:
                    D = C2[:, tr_x] - C2[:, tr_y]
                    dist = np.sqrt(_row_sum(D * D * inv_lam))
                    beta = sched.beta(min(t, sched.T))
                    zc = D * (beta / dist**eps) * inv_q
                    zeta_sq = np.where(coupled[tr_x] | (dist == 0.0), 0.0, _row_sum(zc * zc))
                    out.trace[lo:lo + n_tr, s // record_every - 1] = np.stack(
                        np.broadcast_arrays(t, dist, beta, zeta_sq), axis=-1
                    )
                if s == n_steps:
                    break

                if b == 0:
                    B = min(TIME_BLOCK, n_steps - s)
                    for p, g in enumerate(gens):
                        g.standard_normal(out=noise[p, :B])
                np.multiply(noise[:, b].T, q_sqdt, out=dW)

                if t >= next_cut:
                    j = bisect.bisect_right(cuts, t)
                    next_cut = cuts[j] if j < len(cuts) else math.inf
                    scale = 1.0 if identity else coeffs.delta(t) / (2.0 * r)
                    slam = -scale * lam
                    gamma = coeffs.gamma(t)
                T = C2 if identity else to_spectral(model, np.copysign(Ar, Xp), mode_major=True)
                drift = T * slam
                if gamma:
                    drift += gamma * C2
                if coupled_run:
                    X, Y = C2[:, :P], C2[:, P:]
                    if b + 1 == B and m < P:
                        # a met pair's X - Y is 0 while its state is finite
                        # and nan from the step after it leaves the finite
                        # range until the check that ends this block, which
                        # makes its log_s and zsq nan
                        stale = ~np.isfinite(X[:, m:]).all(axis=0)
                        log_s[m:][stale] = zsq[m:][stale] = math.nan
                    if m:
                        D = X[:, :m] - Y
                        dist = np.sqrt(_row_sum(D * D * inv_lam))
                        newly = ~coupled[:m] & (dist <= couple_tol)
                        tau[:m][newly] = t
                        coupled[:m] |= newly
                        active = ~coupled[:m]
                        ratio = np.where(active, sched.beta(t) / np.where(active, dist, 1.0) ** eps, 0.0)
                        attraction = D * ratio
                        drift[:, P:] += attraction
                        zc = attraction * inv_q
                        zsq[:m] += _row_sum(zc * zc) * dt
                        log_s[:m] += _row_sum(zc * (dW[:, :m] * inv_q))
                        env = np.maximum(V[:, :m], V[:, P:])
                        fval = (_row_sum(env * w) ** f_expo[0]) ** f_expo[1]
                        f_acc[:m] += np.where(active, fval, 0.0) * dt

                if tamed:
                    drift *= dt / (1.0 + dt * np.sqrt(_row_sum(drift * drift)))
                else:
                    drift *= dt
                C2 += drift
                if coupled_run:
                    X += dW
                    Y += dW[:, :m]
                    np.copyto(Y, X[:, :m], where=coupled[:m])
                else:
                    copies += dW[:, None, :]
                t += dt

                if b + 1 == B:
                    finite = np.isfinite(C2).all(axis=0)
                    if coupled_run:
                        finite = finite[:P] & second(finite)
                    else:
                        finite = finite.reshape(k, P).all(axis=0)
                    if not finite.all():
                        cols = np.concatenate([finite, finite[:m]]) if coupled_run else np.tile(finite, k)
                        C2[:, ~cols] = 0.0
                        ok &= finite
                        if coupled_run:
                            lp[:, ~finite] = math.nan

        at = lo + ids
        out.alive[at] = ok
        if coupled_run:
            out.final[:, at] = np.stack([Xp[:, :P], second(Xp)]).transpose(0, 2, 1)
            out.lp_int[:, at] = lp
            out.coupled[at] = coupled
            out.tau[at] = tau
            out.log_stoch_int[at] = log_s
            out.zeta_sq_int[at] = zsq
            out.f_int[at] = f_acc
        else:
            out.final[:, lo:hi] = Xp.reshape(n, k, P).transpose(1, 2, 0)
        if n_kept:
            out.window_sums[:, :, lo:hi] = sums

    _dispatch(
        [lambda lo=lo, hi=hi: run_chunk(lo, hi) for lo, hi in _chunk_ranges(N)],
        cfg.n_workers,
    )
    return out


# ---------------------------------------------------------------------------
# plain ensembles
# ---------------------------------------------------------------------------

def _plain_estimates(run: _Paths, F) -> tuple[list, int]:
    """Estimate of E F(X_T) for each copy of a plain run, over the paths
    that stayed finite in every copy, and the number of paths that blew up."""
    n_blow = _check_blowups(run.alive, "plain")
    ests = [estimate_from_values(np.asarray(F(XT[run.alive]), dtype=float)) for XT in run.final]
    return ests, n_blow


def estimate_ptf(model: SpectralModel, coeffs: CoefficientSet, cfg: EnsembleConfig, x, F) -> Estimate:
    """Monte Carlo estimate of E F(X_T) for paths started at x, over the
    est.n paths that stayed finite."""
    return _plain_estimates(_simulate(model, coeffs, cfg, [x]), F)[0][0]


def strong_feller_probe(
    model: SpectralModel,
    coeffs: CoefficientSet,
    cfg: EnsembleConfig,
    x,
    F,
    radii=(0.1, 0.05, 0.025, 0.0125),
) -> dict:
    """Sensitivity of the estimated semigroup to the starting point.

    Estimates P_T F at x and at x + h e_1 for shrinking h from one run in
    which every path carries 1 + len(radii) copies under the same noise
    (common random numbers).  A path that blows up in any copy is dropped
    from every estimate; without blow-ups each estimate equals a plain run
    from its own start.  Reports the differences; draws no verdict.
    """
    x = np.asarray(x, dtype=float)
    e1 = model.eigenfunctions[0]
    run = _simulate(model, coeffs, cfg, [x] + [x + h * e1 for h in radii])
    (base, *ests), n_blow = _plain_estimates(run, F)
    rows = [
        {"h": float(h), "ptf": est.mean, "stderr": est.stderr, "abs_diff": abs(est.mean - base.mean)}
        for h, est in zip(radii, ests)
    ]
    return {
        "base": base.as_dict(),
        "rows": rows,
        "n_blowups": n_blow,
        "note": "common random numbers: all estimates share one noise stream per path",
    }


# ---------------------------------------------------------------------------
# coupled ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoupledEnsembleResult:
    """Raw per-path output of a coupled run from x and y; arrays indexed by path.

    lp_int_x and lp_int_y are the path integrals of |.|_{r+1}^{r+1} of
    the two copies.  trace, when requested, has shape (paths, rows, 4)
    with rows (t, |X-Y|_H, beta_t, |zeta_t|^2).  The horizon is
    schedule.T.
    """

    x: np.ndarray
    y: np.ndarray
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

    def weight_health(self) -> dict:
        """Effective sample size (sum w)^2 / sum w^2 of the alive pairs'
        weights and the largest weight's share max w / sum w of their sum
        (Owen 2013, ch. 9).  Both are scale-free and are computed from
        w / max w; a weight past float range makes them nan, which the
        record prints as null."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            u = self.weights[self.alive]
            u = u / np.max(u)
            total = np.sum(u)
            return {"weight_ess": float(total**2 / np.sum(u * u)), "max_weight_share": float(1.0 / total)}


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
    every record_every-th step.  The estimators and verdicts below read
    the result; none of them runs an ensemble of its own.
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
        x=x, y=y, schedule=sched, XT=XT, YT=YT, coupled=run.coupled, tau=run.tau,
        log_stoch_int=run.log_stoch_int, zeta_sq_int=run.zeta_sq_int, f_int=run.f_int,
        lp_int_x=run.lp_int[0], lp_int_y=run.lp_int[1],
        dist_final=np.asarray(norm_h(model, XT - YT)), alive=run.alive,
        n_blowups=n_blow, couple_tol=couple_tol, trace=run.trace,
    )


def estimate_weighted(res: CoupledEnsembleResult, F, exponent: float = 1.0) -> Estimate:
    """Monte Carlo estimate of E R^exponent F(X_T) over the pairs of res.

    With exponent 1 this estimates the semigroup at res.y by reweighting
    paths started at res.x.  A weight that underflowed to 0 gives inf
    under a negative exponent (numpy stays quiet), so the estimate reads
    inf and the record null.
    """
    a = res.alive
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = res.weights[a] ** exponent * np.asarray(F(res.XT[a]), dtype=float)
    return estimate_from_values(vals)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def verify_harnack(
    model: SpectralModel,
    coeffs: CoefficientSet,
    res: CoupledEnsembleResult,
    p: float,
    F,
    slack: float = 0.05,
) -> dict:
    """Check (estimated P_T F(y))^p <= bound * estimated P_T F^p(x) on res.

    The left side uses the reweighted estimator over the coupled pairs;
    the right side reuses the same paths' first copies, so the empirical
    inequality inherits the pathwise Hoelder structure.  The verdict
    compares 95 percent confidence extremes with multiplicative slack.
    The run does not depend on p or F, so one run serves every pair.

    When the multiplier overflows to inf the bound carries no information:
    the verdict holds with informative False, and rhs and its interval
    are null.
    """
    a = res.alive
    FX = np.asarray(F(res.XT[a]), dtype=float)
    west = estimate_from_values(res.weights[a] * FX)
    xest = estimate_from_values(FX**p)
    rest = estimate_from_values(res.weights[a])

    factor = bounds.harnack_rhs(model, coeffs, res.schedule.T, p, res.x, res.y)
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
        **res.weight_health(),
    }


def verify_exp_moment_bound(model: SpectralModel, coeffs: CoefficientSet, res: CoupledEnsembleResult) -> dict:
    """Check the exponential moment bounds for the path integrals of
    |X_t|_{r+1}^{r+1} and |Y_t|_{r+1}^{r+1} over the pairs of res.

    The first copy goes through exactly the arithmetic of a plain run
    from x, so its side is the one-sided bound for x.  A run from (x, x)
    has Y = X and no attraction, and both sides give that bound.

    The comparison is CI-aware: holds reflects the point estimate; a
    marginal flag is raised when the bound lies inside the 3-sigma
    confidence interval inflated by 5 percent.
    """
    sched = res.schedule
    lam = bounds.exp_moment_weight(model, coeffs, sched.T)
    th = bounds.log_moment_rate_int(model, coeffs, sched.T)
    a = res.alive

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

    nx = float(norm_h(model, res.x))
    ny = float(norm_h(model, res.y))
    beta_sq = sched.beta_sq_exp_integral()
    extra = sched.dist0 ** (2.0 * (1.0 - sched.epsilon)) * beta_sq
    x_side = side(lam * res.lp_int_x[a], math.exp(th + nx**2))
    y_side = side(lam * res.lp_int_y[a], math.exp(th + ny**2 + extra))
    y_side["beta_sq_exp_integral"] = beta_sq
    return {
        "exp_moment_weight": lam,
        "log_moment_rate_int": th,
        "T": sched.T,
        "x_side": x_side,
        "y_side": y_side,
        "holds": bool(x_side["holds"] and y_side["holds"]),
    }


def estimate_invariant(
    model: SpectralModel,
    coeffs: CoefficientSet,
    cfg: EnsembleConfig,
    x0=None,
    thin: int = 10,
    eps0: float = 0.01,
    samples: bool = False,
):
    """Moment report of the empirical long-run law, and its sample if asked.

    Requires constant coefficients with gamma <= 0.  Paths start at x0
    (zero by default), the first burn_in of time is discarded, and the
    chain is sampled every thin steps.  The report carries ergodic
    averages of |.|_{r+1}^{r+1} and exp(eps0 |.|_H^{r+1}) (plus
    exp(eps0 |.|_H^2) when gamma < 0) and a split-half agreement
    diagnostic over the two halves of the sampling window.  Where
    exp(eps0 ...) passes float range, numpy stays quiet: the average is
    inf and its rel_diff nan, both printed as null.

    The kernel streams each path's sums over the two halves (in time
    order); a window's average is the pairwise np.sum of the surviving
    paths' sums, in path order, over its sample count.  That differs
    from a mean over a time-major sample table by roundoff only (about
    1e-15 relative).  Returns (sample, report): sample is None unless
    samples is true, else the kept states of the surviving paths, one
    row per sample, time-major.
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
    n_kept = (cfg.n_steps - cfg.burn_steps) // thin
    if n_kept < 2:
        raise InvalidSampleCount("sampling window too short; increase T or decrease thin")

    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    run = _simulate(model, coeffs, cfg, [x0], thin=thin, eps0=eps0, keep=samples)
    n_blow = _check_blowups(run.alive, "plain")
    sums = run.window_sums[:, :, run.alive]
    n_paths = sums.shape[-1]
    half = n_kept // 2
    # first half, second half, whole window; rows are the three statistics
    windows = np.stack([sums[0], sums[1], sums[0] + sums[1]])
    counts = np.array([half, n_kept - half, n_kept])[:, None] * n_paths
    means = np.sum(windows, axis=-1) / counts
    names = ["moment_rp1", "exp_h_rp1", "exp_h_sq"] if gamma < 0.0 else ["moment_rp1", "exp_h_rp1"]
    first, second, overall = ({k: float(v) for k, v in zip(names, row)} for row in means)
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
        "n_blowups": n_blow,
        "thin": thin,
        "burn_in": cfg.burn_in,
        "averages": overall,
        "split_half": {"first": first, "second": second, "rel_diff": rel},
    }
    if not samples:
        return None, report
    # all paths alive is the common case: view the block, copy nothing
    kept = run.kept if n_blow == 0 else run.kept[:, run.alive, :]
    return kept.reshape(-1, model.n), report
