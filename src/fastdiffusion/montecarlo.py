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

A path whose state leaves the finite range is carried as nan and
counted; a run fails when more than 0.1 percent of its paths blow up.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .coupling import DEFAULT_TOL_FACTOR, CouplingSchedule, make_schedule
from .dynamics import CoefficientSet, EnsembleConfig, _path_generators
from .errors import InvalidSampleCount, NonFiniteState, NotTimeHomogeneous, PositiveGamma
from .spectral import SpectralModel, _panels, _row_dot, from_spectral, norm_h, to_spectral

__all__ = [
    "Estimate",
    "estimate_from_values",
    "CoupledEnsembleResult",
    "make_test_function",
    "estimate_ptf",
    "estimate_weighted",
    "run_coupled_ensemble",
    "verify_harnack",
    "estimate_invariant",
    "strong_feller_probe",
]

CHUNK_PATHS = 1024
TIME_BLOCK = 128
NOISE_TILE = 64  # paths drawn into the path-major scratch at a time
BLOWUP_BUDGET = 1e-3
MET_FLOOR = 0.99  # a Harnack verdict on a smaller coupled fraction is uninformative
# the rows of a coupled run's per-pair block, by their CoupledEnsembleResult
# field; f_int, the last, is there only with the f envelope
PAIR_ROWS = ("lp_int_x", "lp_int_y", "zeta_sq_int", "log_stoch_int", "tau", "f_int")


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
        from concurrent.futures import ThreadPoolExecutor  # loads logging: import when needed
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            futures = [pool.submit(item) for item in work]
            for f in futures:
                f.result()


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

def _sample_stats(X: np.ndarray, C: np.ndarray, w: np.ndarray, inv_lam: np.ndarray,
                  rp1: float, eps0: float) -> np.ndarray:
    """The per-sample values |x|_{r+1}^{r+1}, exp(eps0 |x|_H^{r+1}) and
    exp(eps0 |x|_H^2) of m states given mode-major by their point values
    X and their eigen-coefficients C, both of shape (n, m), m whole
    panels; the result has shape (3, m).  |x|_H is (sum_i c_i^2 /
    lambda_i)^(1/2), read off C; w and inv_lam are the weights and
    1 / lambda_i spread over C's shape."""
    nh = np.sqrt(_row_dot(C, C, inv_lam))
    return np.stack([
        _row_dot(w, np.abs(X) ** rp1),
        np.exp(eps0 * nh**rp1),
        np.exp(eps0 * nh**2),
    ])


@dataclass
class _Paths:
    """Per-path output of one kernel run; arrays indexed by path.

    final holds the point values at T of each of the k copies, shape
    (k, n_paths, n).  A coupled run's per-pair numbers are the rows of
    pairs, named by PAIR_ROWS (without f_int unless f_envelope): the
    trapezoid integrals of |.|_{r+1}^{r+1} per copy, the weight terms,
    the meeting time, nan for a pair that never met, and the f envelope's
    integral.  trace holds the rows (t, |X-Y|_H, beta_t, |zeta_t|^2) of
    the traced pairs.

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
    pairs: np.ndarray | None = None
    window_sums: np.ndarray | None = None
    kept: np.ndarray | None = None
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
    f_envelope: bool = True,
) -> _Paths:
    """Advance cfg.n_paths paths, each k = len(starts) copies under shared noise.

    k = 1 is a plain run.  k = 2 is a coupled run: the second copy is
    attracted to the first by sched until their H distance first drops to
    couple_tol, and is equal to it from then on.  Its pairs block has an
    f_int row only with f_envelope.

    With thin > 0 a one-copy run samples its state every thin steps after
    burn-in and streams the samples' statistics (at eps0) into
    window_sums; keep also stores the samples.  The kept states of up to
    one noise block are buffered and reduced in one pass.

    A chunk of P paths is carried as eigen-coefficients in a mode-major
    block C2: the first copies in columns [0, P), then a plain run's other
    copies, P columns each, or the second copies of the m pairs in
    positions [0, m), those not met at the start of the noise block.
    There one stable permutation of ids, which maps positions to paths,
    of the chunk's per-pair block and of the generators moves the pairs
    that met behind the rest.  A pair has met exactly when its tau is not
    nan.  A pair's Y is set to its X once, on the step on which it meets,
    and takes no shift and no weight terms then.  From the next step on
    X - Y is exactly 0, so its shift, |zeta|^2 and weight term are exact
    zeros without a mask, and the copies stay equal bit for bit.  Only the
    f envelope is masked, by tau: a met pair's is |x|^(r+1), not 0.

    Each step makes two transforms, each one BLAS matmul: the synthesis
    E^T C2 into the point values, the lower half of a block S whose upper
    half (none for the identity) takes |x|, then Psi; and the drift L Psi
    + gamma X = M_t^T S, with M_t^T = [(-delta lambda / 2r) a, gamma a] and
    a the analysis matrix (for the identity, diag(gamma - lambda) C2),
    built at each coefficient cut.  The tamed step divides the drift by
    1/dt + |drift|.  C2, S and the drift are zero-filled blocks made per
    chunk and at each partition, PANEL-padded: a matmul gives a column the
    same bits at any width and offset only on whole panels (see the
    comment above spectral._einsum).  The transforms and the diagonal
    ufuncs (|x|, |x|^r, copysign, the taming, the drift's add) work on the
    whole blocks, whose pad columns get no noise and zero drift and stay 0.
    Every row dot, of a state, of the f envelope of the pairs still apart
    or of a batch of thinned snapshots, reads whole padded blocks too.

    The pairs still apart take their sums in one more matmul: D * D and D
    * dW fill a zero-filled (2n, _panels(m)) block made at each partition,
    and a fixed (3, 2n) matrix of 1/lambda and 1/q^2 gives per pair
    |D|_H^2, sum D^2/q^2 and sum D dW/q^2.  With g = beta_t / |D|_H^eps,
    |zeta|^2 = g^2 sum D^2/q^2, zeta . dW = g sum D dW/q^2 and Y's shift is
    D g dt.  The noise is drawn before the sums, so one product serves
    the trace rows, the meeting check and the weight terms; after the last
    step dW is 0.  A pair more than about 1e154 apart has |D|_H = inf and
    D * D = inf: g = 0, and its |zeta|^2 and weight term are set to 0.

    A chunk's per-pair block holds its rows of pairs, into which the
    accumulators add, and the first terms of |.|_{r+1}^{r+1}.  lp_int is
    the running sum of |.|_{r+1}^{r+1} less half its first and last terms,
    times dt, or inf where the sum is.  A noise block is drawn at its
    start, NOISE_TILE paths at a time into a path-major tile, copied
    step-major into dW_block (TIME_BLOCK, n, P) and scaled by q sqrt(dt)
    in place, so step b reads the contiguous dW_block[b].  Every per-path
    number is a function of its own column only, so results do not
    depend on the chunk, on where a path sits in it, on when pairs are
    moved or on the worker count.  No step maps a non-finite state back
    to a finite one, so alive is read off the final states and a dead
    pair's rows read nan.
    """
    n = model.n
    k = len(starts)
    N = cfg.n_paths
    n_steps = cfg.n_steps
    dt = cfg.dt
    dt_a, inv_dt = np.array(dt), np.array(1.0 / dt)  # numpy converts a Python float on every call
    coupled_run = sched is not None
    r = coeffs.r
    identity = coeffs.nonlinearity == "identity"
    tamed = cfg.scheme != "explicit_euler"
    w = model.weights[:, None]
    inv_lam = (1.0 / model.eigenvalues)[:, None]
    q_sqdt = (model.q_diag * math.sqrt(dt))[:, None]
    synth, analysis = np.ascontiguousarray(model.eigenfunctions.T), model._analysis
    psi_rows = 0 if identity else n  # S holds Psi's rows over the point values'
    c0 = to_spectral(model, np.asarray(starts, dtype=float)).T[:, :, None]
    # delta and gamma are read again only where one of them enters a new piece
    cuts = sorted(set(coeffs.delta.breaks) | set(coeffs.gamma.breaks))
    if coupled_run:
        eps = sched.epsilon
        f_expo = ((1.0 - r) / (1.0 + r), 2.0 / (coeffs.sigma - 2.0))
        # the pair sums |D|_H^2, sum D^2/q^2 and sum D dW/q^2 of a column [D*D; D*dW]
        inv_q_sq = 1.0 / model.q_diag**2
        G = np.zeros((3, 2 * n))
        G[0, :n], G[1, :n], G[2, n:] = 1.0 / model.eigenvalues, inv_q_sq, inv_q_sq

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
        out.pairs = np.empty((len(PAIR_ROWS) - (0 if f_envelope else 1), N))
    if n_rec:
        out.trace = np.empty((trace_paths, n_rec, 4))

    def blocks(width):
        """The PANEL-padded, zero-filled blocks of a state width columns
        wide: C2, the point values and Psi (the halves of S), the drift's
        operand and the drift; then C2's and the point values' first width
        columns."""
        C2_pad, S_pad, drift_pad = (np.zeros((rows, _panels(width))) for rows in (n, psi_rows + n, n))
        Xp_pad = S_pad[psi_rows:]
        return (C2_pad, Xp_pad, S_pad[:psi_rows], C2_pad if identity else S_pad, drift_pad,
                C2_pad[:, :width], Xp_pad[:, :width])

    def run_chunk(lo: int, hi: int):
        P = hi - lo
        m = P  # pairs in positions [0, m) carry a second copy
        C2_pad, Xp_pad, Psi_pad, drift_from, drift_pad, C2, Xp = blocks(k * P)
        copies = C2.reshape(n, k, P)  # a plain run's block keeps this shape
        copies[...] = c0
        ids = np.arange(P)
        gens = _path_generators(cfg.seed, lo, hi)
        dW_block = np.empty((min(TIME_BLOCK, n_steps), n, P))
        dW_rows = list(dW_block)  # step b of a block reads the view dW_rows[b]
        tile = np.empty((min(NOISE_TILE, P), len(dW_block), n))
        tile_rows = list(tile)
        q_sqdt_P = np.repeat(q_sqdt, P, axis=1)

        if coupled_run:
            X, Y = C2[:, :P], C2[:, P:]
            # the rows of pairs (running sums of |.|_{r+1}^{r+1} per copy, the
            # integrals of |zeta|^2 dt and zeta . dW, tau and, if asked for, the
            # f envelope's), then the first terms of |.|_{r+1}^{r+1} per copy
            per_pair = np.zeros((len(out.pairs) + 2, P))
            acc, lp0 = per_pair[:-2], per_pair[-2:]
            lp, zl, tau, f_acc = acc[:2], acc[2:4], acc[4], acc[5:]
            tau[...] = math.nan

            def second(A):
                """The second copy of every pair in position order; a met
                pair's is its first."""
                return np.concatenate([A[..., P:], A[..., m:P]], axis=-1)

            def pair_blocks():
                """The weights over the padded P + m columns and over the
                padded m pairs still apart; then the padded, zero-filled
                blocks of their f envelope, D = X - Y, [D*D; D*dW], pair
                sums and (g^2 dt, g)."""
                return (np.repeat(w, _panels(P + m), axis=1), np.repeat(w, _panels(m), axis=1),
                        *(np.zeros((rows, _panels(m))) for rows in (n, n, 2 * n, 3, 2)))

            w_all, w_m, env, D_pad, DD_DdW, pair, gg = pair_blocks()

        n_tr = max(0, min(hi, trace_paths) - lo)
        tr_x = np.arange(n_tr)  # positions of the traced pairs, in path order
        if n_kept:
            sums = np.zeros((2, 3, P))
            # kept j of the current batch sits in columns j*P:(j+1)*P of
            # zero-filled, PANEL-padded blocks
            buf_X, buf_C = np.zeros((2, n, _panels(batch * P)))
            w_s, inv_lam_s = (np.repeat(a, _panels(batch * P), axis=1) for a in (w, inv_lam))
        ki = nb = 0
        met = False  # a pair in [0, m) has met in this noise block
        t = 0.0  # time after s steps, summed step by step
        next_cut = 0.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for s in range(n_steps + 1):
                b = s % TIME_BLOCK
                if coupled_run and b == 0 and s < n_steps and met:
                    # the pairs that met during the last block move behind the
                    # rest: a stable partition, pairs still apart first
                    apart = np.isnan(tau)
                    order = np.concatenate([np.flatnonzero(apart), np.flatnonzero(~apart)])
                    m = int(np.count_nonzero(apart))
                    moved = C2[:, np.concatenate([order, P + order[:m]])]
                    C2_pad, Xp_pad, Psi_pad, drift_from, drift_pad, C2, Xp = blocks(P + m)
                    C2[...] = moved
                    X, Y = C2[:, :P], C2[:, P:]
                    for a in (ids, per_pair):
                        a[...] = a[..., order]
                    gens = [gens[i] for i in order]
                    tr_x = np.argsort(ids)[:n_tr]  # where paths lo, lo + 1, ... sit
                    w_all, w_m, env, D_pad, DD_DdW, pair, gg = pair_blocks()
                if b == 0 and s < n_steps:
                    met = False
                    B = min(TIME_BLOCK, n_steps - s)
                    outs = tile_rows if B == len(dW_block) else [row[:B] for row in tile]
                    for p0 in range(0, P, NOISE_TILE):
                        p1 = min(p0 + NOISE_TILE, P)
                        for gen, row in zip(gens[p0:p1], outs):
                            gen.standard_normal(out=row)
                        dW_block[:B, :, p0:p1] = tile[:p1 - p0, :B].transpose(1, 2, 0)
                    dW_block[:B] *= q_sqdt_P
                dW = dW_rows[b] if s < n_steps else np.zeros((n, P))

                # the state after s steps, in point values
                np.matmul(synth, C2_pad, out=Xp_pad)
                if coupled_run:
                    A = np.abs(Xp_pad, out=Psi_pad) if psi_rows else np.abs(Xp_pad)
                    Ar = A**r
                    if f_envelope:
                        V = np.multiply(A, Ar, out=A)  # |x|^(r+1); A is not read again
                        v = _row_dot(V, w_all)
                    else:
                        v = _row_dot(A, Ar, w_all)
                    lp[0] += v[:P]
                    lp[1, :m] += v[P:P + m]
                    lp[1, m:] += v[m:P]
                    if not s:
                        lp0[...] = lp
                elif not identity:  # a plain run reads |x| only as |x|^r
                    Ar = np.abs(Xp_pad, out=Psi_pad)
                    Ar **= r
                if n_kept and s > burn and (s - burn) % thin == 0:
                    if keep:
                        out.kept[ki, lo:hi] = Xp.T
                    buf_X[:, nb * P:(nb + 1) * P] = Xp
                    buf_C[:, nb * P:(nb + 1) * P] = C2
                    ki += 1
                    nb += 1
                    if nb == batch or ki == n_kept:
                        got = slice(0, _panels(nb * P))
                        vals = _sample_stats(
                            buf_X[:, got], buf_C[:, got], w_s[:, got], inv_lam_s[:, got], rp1, eps0,
                        )[:, :nb * P].reshape(3, nb, P)
                        for j in range(nb):
                            sums[int(ki - nb + j >= half)] += vals[:, j]
                        nb = 0
                if coupled_run and (m or n_tr):
                    beta = sched.beta(min(t, sched.T))
                    if m and (s < n_steps or n_tr):
                        # the pair sums of the pairs in the two-copy block, one
                        # matmul, before this step's meeting check
                        D = np.subtract(X[:, :m], Y, out=D_pad[:, :m])
                        np.multiply(D_pad, D_pad, out=DD_DdW[:n])
                        np.multiply(D, dW[:, :m], out=DD_DdW[n:, :m])
                        np.matmul(G, DD_DdW, out=pair)
                        dist = np.sqrt(pair[0], out=pair[0])
                        # g = beta / |D|_H^eps, kept in gg[1] where |D|_H is 0:
                        # a pair that met has g = 0 from its meeting on
                        g = gg[1]
                        np.divide(beta, np.power(dist, eps, out=gg[0]), out=g, where=dist > 0.0)
                        # more than about 1e154 apart D*D overflows, and g = 0
                        far = np.isinf(dist) if not dist.max() < math.inf else slice(0)
                if n_tr and s and s % record_every == 0:
                    # rows read the numbers above; a pair that left the block
                    # has X - Y = 0, which is nan once its state is not finite
                    rows = out.trace[lo:lo + n_tr, s // record_every - 1]
                    rows[:, 0] = t
                    rows[:, 1] = np.where(np.isfinite(C2[:, tr_x]).all(axis=0), 0.0, math.nan)
                    rows[:, 2] = beta
                    rows[:, 3] = rows[:, 1]
                    inside = tr_x < m
                    j = tr_x[inside]
                    rows[inside, 1] = dist[j]
                    rows[inside, 3] = np.where(np.isinf(dist[j]), 0.0, g[j] * g[j] * pair[1, j])
                if s == n_steps:
                    break

                if t >= next_cut:
                    j = bisect.bisect_right(cuts, t)
                    next_cut = cuts[j] if j < len(cuts) else math.inf
                    # the drift L Psi + gamma X, from Psi's rows and the point
                    # values' or, for the identity, from C2 mode by mode
                    gamma = coeffs.gamma(t)
                    M = np.diag(gamma - model.eigenvalues) if identity else np.concatenate(
                        [analysis * (-coeffs.delta(t) / (2.0 * r) * model.eigenvalues)[:, None],
                         gamma * analysis], axis=1)
                meeting = False
                if coupled_run and m:
                    newly = dist[:m] <= couple_tol
                    if met:
                        newly &= np.isnan(tau[:m])
                    meeting = np.count_nonzero(newly) > 0
                    if meeting:
                        met = True
                        tau[:m][newly] = t
                        g[:m][newly] = 0.0  # no shift and no weight terms
                    # |zeta|^2 dt and zeta . dW: exact zeros for a pair met earlier
                    gdt = g * dt_a
                    np.multiply(g, gdt, out=gg[0])
                    terms = np.multiply(pair[1:], gg, out=pair[1:])
                    terms[:, far] = 0.0
                    zl[:, :m] += terms[:, :m]
                    if f_envelope:
                        # a met pair's envelope is |x|^(r+1), not 0: it is masked
                        np.maximum(V[:, :m], V[:, P:P + m], out=env[:, :m])
                        fval = (_row_dot(env, w_m)[:m] ** f_expo[0]) ** f_expo[1] * dt_a
                        f_acc[:, :m] += np.where(np.isnan(tau[:m]), fval, 0.0) if met else fval

                if not identity:  # |x| or |x|^(r+1) in Psi's rows is read by now
                    np.copysign(Ar, Xp_pad, out=Psi_pad)
                np.matmul(M, drift_from, out=drift_pad)
                if tamed:
                    # to drift dt / (1 + dt |drift|) = drift / (1/dt + |drift|), in place
                    h = _row_dot(drift_pad, drift_pad)
                    np.sqrt(h, out=h)
                    h += inv_dt
                    drift_pad /= h
                else:
                    drift_pad *= dt_a
                C2_pad += drift_pad
                if coupled_run:
                    X += dW
                    if m:
                        # Y takes its noise plus the attraction's shift D g dt,
                        # untamed: zeta and the weight reweight exactly this shift
                        D_pad *= gdt
                        Y += D
                        Y += dW[:, :m]
                        if meeting:
                            np.copyto(Y, X[:, :m], where=newly)  # Y := X once, on meeting
                elif k == 1:
                    C2 += dW
                else:
                    copies += dW[:, None, :]
                t += dt

        # no step maps a non-finite state back to a finite one
        finite = np.isfinite(C2).all(axis=0)
        at = lo + ids
        if coupled_run:
            out.alive[at] = finite[:P] & second(finite)
            out.final[:, at] = np.stack([Xp[:, :P], second(Xp)]).transpose(0, 2, 1)
            # the trapezoid: the sum less half its first and last terms, or inf
            ends = 0.5 * (lp0 + np.stack([v[:P], second(v[:P + m])]))
            lp -= np.where(np.isinf(lp), 0.0, ends)
            lp *= dt_a
            out.pairs[:, at] = acc
        else:
            out.alive[lo:hi] = finite.reshape(k, P).all(axis=0)
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
    the two copies, f_int that of the f envelope before meeting, if asked
    for.  coupled is read off tau: a pair has met exactly where its tau is
    not nan.  trace, when requested, has shape (paths, rows, 4)
    with rows (t, |X-Y|_H, beta_t, |zeta_t|^2); a pair that left the
    finite range reads nan in |X-Y|_H and |zeta_t|^2 from the row of the
    step on which it left.  |X-Y|_H, in the trace and in dist_final,
    reads inf for a pair still finite but more than about 1e154 apart;
    the kernel's attraction and zeta are then 0.  The horizon is
    schedule.T.
    """

    x: np.ndarray
    y: np.ndarray
    schedule: CouplingSchedule
    XT: np.ndarray
    YT: np.ndarray
    tau: np.ndarray
    log_stoch_int: np.ndarray
    zeta_sq_int: np.ndarray
    lp_int_x: np.ndarray
    lp_int_y: np.ndarray
    dist_final: np.ndarray
    alive: np.ndarray
    n_blowups: int
    couple_tol: float
    f_int: np.ndarray | None = None
    trace: np.ndarray | None = None

    @property
    def coupled(self) -> np.ndarray:
        return ~np.isnan(self.tau)

    @property
    def log_weights(self) -> np.ndarray:
        """Log change-of-measure weight per path, -log_stoch_int - zeta_sq_int / 2."""
        return -self.log_stoch_int - 0.5 * self.zeta_sq_int

    @property
    def weights(self) -> np.ndarray:
        """Change-of-measure weight per path (alive paths only are meaningful)."""
        return np.exp(self.log_weights)

    @property
    def coupled_fraction(self) -> float:
        return float(np.count_nonzero(self.coupled) / max(np.count_nonzero(self.alive), 1))

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
    f_envelope: bool = True,
) -> CoupledEnsembleResult:
    """Advance cfg.n_paths coupled pairs from (x, y) under shared noise.

    The meeting tolerance defaults to 1e-6 times the starting gap in the
    H norm.  Paths with index below trace_paths record a trace row after
    every record_every-th step.  f_envelope=False leaves f_int, which no
    estimator or verdict reads, None and every other field as it was.  A
    pair that left the finite range is not coupled, and its tau, weight
    terms, path integrals and final states are nan; this is the one place
    that blanks a dead pair.  The estimators and verdicts below read the
    result; none of them runs an ensemble of its own.
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
        f_envelope=f_envelope,
    )
    n_blow = _check_blowups(run.alive, "coupled")
    # the kernel carries a dead pair on as nan or inf, and it may have met
    # before it left the finite range: it has no meeting time, weight
    # terms, path integrals or final state
    dead = ~run.alive
    run.final[:, dead] = run.pairs[:, dead] = math.nan
    XT, YT = run.final
    with np.errstate(over="ignore"):
        dist_final = np.asarray(norm_h(model, XT - YT))
    return CoupledEnsembleResult(
        x=x, y=y, schedule=sched, XT=XT, YT=YT, **dict(zip(PAIR_ROWS, run.pairs)),
        dist_final=dist_final, alive=run.alive,
        n_blowups=n_blow, couple_tol=couple_tol, trace=run.trace,
    )


def estimate_weighted(res: CoupledEnsembleResult, F, exponent: float = 1.0) -> Estimate:
    """Monte Carlo estimate of E R^exponent F(X_T) over the pairs of res.

    With exponent 1 this estimates the semigroup at res.y by reweighting
    paths started at res.x.  A weight that underflowed to 0 gives inf
    under a negative exponent (numpy stays quiet), so the estimate reads
    inf and the record null.  E R = 1 would make R - 1 a free control
    variate, but it is left out: it cuts the variance most when F hardly
    varies over the paths, and so would hide a test function that does not
    vary.
    """
    a = res.alive
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = res.weights[a] ** exponent * np.asarray(F(res.XT[a]), dtype=float)
    return estimate_from_values(vals)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _verdict(hi: float, factor: float, lo: float, slack: float) -> dict:
    """The comparison hi <= factor lo (1 + slack) of a verdict.

    hi is the upper confidence extreme of the left side, lo the lower one
    of the right side without its multiplier.  An infinite multiplier
    carries no information: the verdict holds with informative False and
    ci_margin None.  Otherwise it holds when hi <= factor lo (1 + slack),
    so an inf or nan hi or a nan lo fails it.  It is informative only when
    lo > 0 (0 <= 0 says nothing); then ci_margin = factor lo (1 + slack)
    - hi is the signed distance of the comparison, >= 0 exactly when it
    holds, and otherwise None.
    """
    if not math.isfinite(factor):
        return {"holds": True, "informative": False, "ci_margin": None}
    bound = factor * lo * (1.0 + slack)
    informative = bool(lo > 0.0)
    return {"holds": bool(hi <= bound), "informative": informative,
            "ci_margin": bound - hi if informative else None}


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
    inequality inherits the pathwise Hoelder structure.  _verdict compares
    the 95 percent confidence extremes with multiplicative slack; when the
    multiplier overflows to inf, rhs and its interval are null too.  With
    fewer than MET_FLOOR of the pairs met it is uninformative, with a note
    why.  The run does not depend on p or F, so one run serves every pair.

    The exp_moment block checks, on the same pairs and by the same rule,
    the exponential moment E exp(w integral_0^T |.|_{r+1}^{r+1} dt) of
    each copy (w = exp_moment_weight) against exp(log_moment_rate_int +
    |x|_H^2), and for the attracted copy against exp(log_moment_rate_int
    + |y|_H^2 + attraction_cost_bound), the BoundReport term that is
    4/(p - 1) times the second Harnack term.  The first copy goes through
    the arithmetic of a plain run from x, and a run from (x, x) gives the
    one-sided bound for x on both sides.  A moment or bound past float
    range reads null.  The top-level holds is the Harnack comparison's alone.

    attraction_cost_bound bounds the H-norm cost of the attraction,
    integral_0^T beta_t^2 |X_t - Y_t|_H^(2(1 - epsilon)) dt, which is why
    it sits below the measured zeta_sq_int: zeta weighs each mode by
    1/q_i^2 (on the README run, 400 traced pairs, the largest H-norm cost
    was 0.0012, the bound 0.0055 and the largest zeta_sq_int 0.017).
    """
    a = res.alive
    FX = np.asarray(F(res.XT[a]), dtype=float)
    west = estimate_from_values(res.weights[a] * FX)
    xest = estimate_from_values(FX**p)
    rest = estimate_from_values(res.weights[a])
    rep = bounds.bound_report(model, coeffs, res.schedule.T, res.x, res.y, p)

    factor = rep.harnack_rhs
    lhs_lo, lhs_hi = (max(v, 0.0) ** p for v in west.ci95)
    verdict = _verdict(lhs_hi, factor, xest.ci95[0], slack)
    if (frac := res.coupled_fraction) < MET_FLOOR:
        verdict.update(informative=False, ci_margin=None, note=f"coupled_fraction {frac!r} is below "
                       f"{MET_FLOOR!r}: the weighted F(X_T) stands for F(Y_T) on met pairs only")
    finite = math.isfinite(factor)

    def moment_side(lp_int: np.ndarray, log_rhs: float) -> dict:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = rep.exp_moment_weight * lp_int[a]
            shift = float(np.max(vals))
            est = estimate_from_values(np.exp(vals - shift))
        scale = bounds._exp(shift)
        est = Estimate(est.mean * scale, est.stderr * scale, est.n)
        rhs = bounds._exp(log_rhs)
        return {"mean": est.mean, "stderr": est.stderr, "n": est.n, "rhs": rhs,
                **_verdict(est.ci95[1], rhs, 1.0, slack)}

    extra = rep.attraction_cost_bound
    th = rep.log_moment_rate_int
    return {
        **verdict,
        "p": p,
        "slack": slack,
        "lhs": max(west.mean, 0.0) ** p,
        "lhs_ci95": [lhs_lo, lhs_hi],
        "rhs": factor * xest.mean if finite else None,
        "rhs_ci95": [factor * v if finite else None for v in xest.ci95],
        "rhs_factor": factor,
        "weighted_estimate": west.as_dict(),
        "plain_p_estimate": xest.as_dict(),
        "mean_weight": rest.as_dict(),
        "coupled_fraction": frac,
        "n_blowups": res.n_blowups,
        **res.weight_health(),
        "exp_moment": {
            "exp_moment_weight": rep.exp_moment_weight,
            "log_moment_rate_int": th,
            "attraction_cost_bound": extra,
            "x_side": moment_side(res.lp_int_x, th + rep.norm_x_h**2),
            "y_side": moment_side(res.lp_int_y, th + rep.norm_y_h**2 + extra),
        },
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
