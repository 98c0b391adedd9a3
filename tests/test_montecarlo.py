"""Ensemble estimators: determinism, reweighting, and the verdict helpers."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fastdiffusion import (
    CoefficientSet,
    EnsembleConfig,
    InvalidSampleCount,
    NonFiniteState,
    NotTimeHomogeneous,
    PiecewiseConstant,
    PositiveGamma,
    dirichlet1d_model,
    estimate_from_values,
    estimate_invariant,
    estimate_ptf,
    estimate_weighted,
    from_spectral,
    make_schedule,
    make_test_function,
    norm_h,
    norm_lp,
    run_coupled_ensemble,
    strong_feller_probe,
    verify_harnack,
)
from fastdiffusion import bounds, dynamics, montecarlo, spectral
from fastdiffusion.cli import _path_rows

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def small_model():
    return dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])


def small_coeffs():
    return CoefficientSet(r=0.5, gamma=-0.4)


START = np.array([0.4, -0.2, 0.1, 0.0])
OTHER = np.array([0.1, 0.1, -0.1, 0.05])
EXP = {"kind": "exp_neg_h_sq"}


def exp_f(m):
    return make_test_function(m, EXP)


def ones(X):
    return np.ones(X.shape[0])


class TestEnsembleConfig:
    def test_accepts_round_horizon(self):
        cfg = EnsembleConfig(n_paths=10, dt=0.01, T=0.5, burn_in=0.2)
        assert cfg.n_steps == 50
        assert cfg.burn_steps == 20
        assert cfg.realized_T == pytest.approx(0.5, rel=1e-15)

    def test_rejections(self):
        with pytest.raises(InvalidSampleCount):
            EnsembleConfig(n_paths=1, dt=0.01, T=0.1)
        with pytest.raises(ValueError):
            EnsembleConfig(n_paths=10, dt=-0.01, T=0.1)
        with pytest.raises(ValueError):
            EnsembleConfig(n_paths=10, dt=0.01, T=0.0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_paths=10, dt=0.03, T=0.1)  # not an integer step count
        with pytest.raises(ValueError):
            EnsembleConfig(n_paths=10, dt=0.01, T=0.1, burn_in=0.1)
        with pytest.raises(ValueError):
            EnsembleConfig(n_paths=10, dt=0.01, T=0.1, n_workers=0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_paths=10, dt=0.01, T=0.1, seed=-1)

    def test_seed_is_a_philox_key_word(self):
        with pytest.raises(ValueError, match="seed must lie in"):
            EnsembleConfig(n_paths=10, dt=0.01, T=0.1, seed=2**64)
        assert EnsembleConfig(n_paths=10, dt=0.01, T=0.1, seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5),  # would run as seed 1, the Philox key word truncated
        ("seed", True),
        ("n_workers", 1.5),
        ("n_paths", 8.5),  # would fail inside the kernel with a bare TypeError
        ("n_paths", np.float64(8.0)),
    ])
    def test_integer_fields_refuse_floats_and_bools(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
            EnsembleConfig(**{"n_paths": 10, "dt": 0.01, "T": 0.1, field: value})

    def test_numpy_integers_are_integers(self):
        cfg = EnsembleConfig(n_paths=np.int32(10), dt=0.01, T=0.1, seed=np.uint64(2**64 - 1),
                             n_workers=np.int64(2))
        assert (cfg.n_paths, cfg.seed, cfg.n_workers) == (10, 2**64 - 1, 2)
        with pytest.raises(ValueError, match="seed must lie in"):
            EnsembleConfig(n_paths=10, dt=0.01, T=0.1, seed=np.int64(-1))


class TestEstimate:
    def test_hand_values(self):
        est = estimate_from_values(np.array([1.0, 2.0, 3.0, 4.0]))
        assert est.mean == pytest.approx(2.5, rel=1e-15)
        assert est.stderr == pytest.approx(math.sqrt((5.0 / 3.0) / 4.0), rel=1e-14)
        assert est.n == 4
        lo, hi = est.ci95
        assert lo == pytest.approx(est.mean - 1.96 * est.stderr, rel=1e-15)
        assert hi == pytest.approx(est.mean + 1.96 * est.stderr, rel=1e-15)
        assert set(est.as_dict()) == {"mean", "stderr", "n", "ci95"}

    def test_needs_two_values(self):
        with pytest.raises(InvalidSampleCount):
            estimate_from_values(np.array([1.0]))

    def test_constant_values_zero_stderr(self):
        est = estimate_from_values(np.full(50, 3.25))
        assert est.mean == 3.25
        assert est.stderr == 0.0


class TestMakeTestFunction:
    def test_kinds(self):
        m = small_model()
        zero = np.zeros(4)
        f_exp = make_test_function(m, {"kind": "exp_neg_h_sq"})
        f_rat = make_test_function(m, {"kind": "rational_h"})
        f_ind = make_test_function(m, {"kind": "indicator_ball", "center": zero, "radius": 0.5})
        assert f_exp(zero) == pytest.approx(1.0)
        assert f_rat(zero) == pytest.approx(1.0)
        assert f_ind(zero) == 1.0
        assert f_ind(np.array([10.0, 0.0, 0.0, 0.0])) == 0.0

    def test_batched_evaluation(self):
        m = small_model()
        X = np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]])
        out = make_test_function(m, EXP)(X)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_test_function(small_model(), {"kind": "polynomial"})


class TestEstimatePtf:
    def test_worker_count_does_not_change_result(self):
        m, c = small_model(), small_coeffs()
        base = EnsembleConfig(n_paths=300, dt=0.01, T=0.2, seed=5)
        more = EnsembleConfig(n_paths=300, dt=0.01, T=0.2, seed=5, n_workers=3)
        a = estimate_ptf(m, c, base, START, exp_f(m))
        b = estimate_ptf(m, c, more, START, exp_f(m))
        assert a.mean == b.mean
        assert a.stderr == b.stderr

    def test_seed_changes_result(self):
        m, c = small_model(), small_coeffs()
        a = estimate_ptf(m, c, EnsembleConfig(n_paths=100, dt=0.01, T=0.1, seed=0), START, exp_f(m))
        b = estimate_ptf(m, c, EnsembleConfig(n_paths=100, dt=0.01, T=0.1, seed=1), START, exp_f(m))
        assert a.mean != b.mean

    def test_constant_function_is_exact(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=50, dt=0.01, T=0.1, seed=2)
        est = estimate_ptf(m, c, cfg, START, ones)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_stderr_shrinks_with_paths(self):
        m, c = small_model(), small_coeffs()
        small = estimate_ptf(m, c, EnsembleConfig(n_paths=500, dt=0.02, T=0.2, seed=9), START, exp_f(m))
        big = estimate_ptf(m, c, EnsembleConfig(n_paths=8000, dt=0.02, T=0.2, seed=9), START, exp_f(m))
        # 16x the paths should cut the standard error about 4x
        assert big.stderr == pytest.approx(small.stderr / 4.0, rel=0.35)

    def test_blowup_budget_enforced(self):
        # explicit Euler on a stiff linear drift diverges on every path
        m = small_model()
        c = CoefficientSet(r=0.5, gamma=0.0, nonlinearity="identity")
        cfg = EnsembleConfig(n_paths=50, dt=0.5, T=100.0, seed=0, scheme="explicit_euler")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteState):
                estimate_ptf(m, c, cfg, 5.0 * np.ones(4), exp_f(m))


class TestCoupledEnsemble:
    def test_paths_independent_of_chunking(self, monkeypatch):
        # a path's outputs are bit-identical whatever the chunk and time-block
        # sizes and however many paths run beside it.  A one-path chunk is
        # where numpy's own reductions would add in another order (n >= 8);
        # at n = 64 the transforms are gemms that sum 64 and 128 terms.
        fields = ("XT", "YT", "coupled", *montecarlo.PAIR_ROWS)
        c = small_coeffs()
        for n in (4, 9, 64):
            m = dirichlet1d_model(n, [i**-0.5 for i in range(1, n + 1)])
            x = from_spectral(m, 0.4 / np.arange(1, n + 1))
            y = from_spectral(m, -0.3 / np.arange(1, n + 1) ** 2)

            def run(n_paths):
                # a loose meeting tolerance, so that some pairs couple
                cfg = EnsembleConfig(n_paths=n_paths, dt=1e-3, T=0.1, seed=21)
                plain = montecarlo._simulate(m, c, cfg, [x]).final[0]
                return run_coupled_ensemble(m, c, cfg, x, y, couple_tol=0.02), plain

            base, base_plain = run(3)
            for chunk, block, n_paths in ((1, 7, 3), (2, 1, 5), (1, 256, 8), (1024, 3, 11)):
                monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
                monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
                res, plain = run(n_paths)
                for name in fields:
                    assert np.array_equal(getattr(res, name)[:3], getattr(base, name), equal_nan=True), (n, name)
                assert np.array_equal(plain[:3], base_plain), n
            assert base.coupled.any()

    def test_weights_formula(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=8, dt=0.01, T=0.1, seed=3)
        res = run_coupled_ensemble(m, c, cfg, START, OTHER)
        log_w = -res.log_stoch_int - 0.5 * res.zeta_sq_int
        assert np.array_equal(res.log_weights, log_w)
        assert np.array_equal(res.weights, np.exp(log_w))
        # the couple paths table's log_weight column reads the same array
        assert [row[3] for row in _path_rows(res)] == list(res.log_weights)

    def test_identical_starts_coupled_immediately(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=4, dt=0.01, T=0.1, seed=3)
        res = run_coupled_ensemble(m, c, cfg, START, START)
        assert np.array_equal(res.x, START) and np.array_equal(res.y, START)
        assert res.coupled_fraction == 1.0
        assert np.all(res.tau == 0.0)
        assert np.all(res.weights == 1.0)
        assert np.array_equal(res.XT, res.YT)

    def test_fine_steps_couple_most_paths(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5, gamma=-0.2)
        cfg = EnsembleConfig(n_paths=40, dt=1e-4, T=0.25, seed=12)
        res = run_coupled_ensemble(m, c, cfg, START, OTHER)
        assert res.coupled_fraction >= 0.9
        assert np.all(res.dist_final[res.coupled & res.alive] <= res.couple_tol)


    def test_kernel_memory_independent_of_step_count(self):
        # the kernel holds no per-step table: its traced peak for a plain
        # and a coupled run is the same at 500 and at 5000 steps, where a
        # table of floats would add about 100 bytes a step
        m = small_model()
        c = CoefficientSet(r=0.5, gamma=PiecewiseConstant([0.0, 0.05], [-0.4, -0.2]))

        def peak(n_steps, coupled):
            cfg = EnsembleConfig(n_paths=2, dt=0.1 / n_steps, T=0.1, seed=3)
            sched = make_schedule(m, c, cfg.realized_T, START, OTHER) if coupled else None
            starts = [START, OTHER] if coupled else [START]
            args = (m, c, cfg, starts, sched, 1e-6 if coupled else 0.0)
            montecarlo._simulate(*args)  # first calls fill lazy caches
            tracemalloc.start()
            try:
                montecarlo._simulate(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for coupled in (False, True):
            short, long = peak(500, coupled), peak(5000, coupled)
            assert abs(long - short) < 100_000, (coupled, short, long)


class TestMetPairsLeaveTheTwoCopyBlock:
    """Pairs that have met move out of the two-copy block at the start of
    each noise block; no per-path number may depend on when they move."""

    FIELDS = ("XT", "YT", "coupled", *montecarlo.PAIR_ROWS, "dist_final", "alive", "trace")

    # a meeting tolerance by mode count at which about half the pairs meet
    # (5 of 13 at n = 64, where the pairs' distance stays above about 5e-3)
    TOL = {4: 3e-5, 9: 3e-5, 64: 6e-3}

    def test_results_independent_of_time_block(self, monkeypatch):
        # pairs that meet inside noise blocks; a block longer than the run
        # moves no pair
        c = small_coeffs()
        for n, tol in self.TOL.items():
            m = dirichlet1d_model(n, [i**-0.5 for i in range(1, n + 1)])
            x = from_spectral(m, 0.4 / np.arange(1, n + 1))
            y = from_spectral(m, -0.3 / np.arange(1, n + 1) ** 2)
            cfg = EnsembleConfig(n_paths=13, dt=1e-3, T=0.1, seed=21)
            for every in (1, 5):
                def run(block):
                    monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
                    return run_coupled_ensemble(m, c, cfg, x, y, couple_tol=tol,
                                                trace_paths=9, record_every=every)

                whole = run(cfg.n_steps + 1)
                assert 0 < np.count_nonzero(whole.coupled) < cfg.n_paths
                for block in (1, 3, 7):
                    res = run(block)
                    for name in self.FIELDS:
                        assert np.array_equal(getattr(res, name), getattr(whole, name), equal_nan=True), (
                            n, every, block, name)

    def test_coefficient_cuts_after_pairs_left(self, monkeypatch):
        # delta changes at step 31 and gamma at step 53, inside noise blocks
        # of 3 and 7 steps.  At the delta cut some pairs have left the
        # two-copy block and others are still apart; by the gamma cut every
        # pair has left.  The factor blocks rebuilt there, and those of a
        # thinned plain run, give the bits of a run that moves no pair.
        m = small_model()
        c = CoefficientSet(r=0.5, delta=PiecewiseConstant([0.0, 0.0305], [1.0, 1.5]),
                           gamma=PiecewiseConstant([0.0, 0.0525], [-0.4, -0.1]))
        cfg = EnsembleConfig(n_paths=13, dt=1e-3, T=0.1, seed=21)
        thinned = EnsembleConfig(n_paths=13, dt=1e-3, T=0.1, burn_in=0.01, seed=21)

        def run(block, chunk=1024):
            monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
            monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
            plain = montecarlo._simulate(m, c, thinned, [START], thin=3, eps0=0.01)
            res = run_coupled_ensemble(m, c, cfg, START, OTHER, couple_tol=1e-3, trace_paths=13)
            return plain, res

        whole_plain, whole = run(cfg.n_steps + 1)
        met = np.rint(whole.tau / cfg.dt)
        # a pair that met before step 28 has left by step 28 at every block size
        assert whole.coupled.all() and (met < 28).any() and (met > 31).any() and met.max() < 49
        for block in (1, 3, 7):
            for chunk in (1, 5):
                plain, res = run(block, chunk)
                assert np.array_equal(plain.final, whole_plain.final), (block, chunk)
                assert np.array_equal(plain.window_sums, whole_plain.window_sums), (block, chunk)
                for name in self.FIELDS:
                    assert np.array_equal(getattr(res, name), getattr(whole, name), equal_nan=True), (
                        block, chunk, name)

    def test_met_pairs_that_blow_up(self, monkeypatch):
        # explicit Euler past its stability limit on the top mode of a linear
        # drift: every pair meets at step 4 and leaves the finite range
        # near step 1460, at a step that varies by path
        m = small_model()
        c = CoefficientSet(r=0.5, nonlinearity="identity")
        x, y = from_spectral(m, [0.4, 0.0, 0.0, 0.0]), from_spectral(m, [0.3, 0.0, 0.0, 0.0])
        cfg = EnsembleConfig(n_paths=12, dt=0.029, T=0.029 * 1500, seed=3, scheme="explicit_euler")
        sched = make_schedule(m, c, cfg.realized_T, x, y)

        def run(block, chunk=1024, n_steps=cfg.n_steps):
            monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
            monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
            short = EnsembleConfig(n_paths=12, dt=cfg.dt, T=cfg.dt * n_steps, scheme=cfg.scheme, seed=3)
            return montecarlo._simulate(m, c, short, [x, y], sched, 0.01, trace_paths=12)

        def row(run, name):
            # a row of the kernel's per-pair block; a pair has met where tau is not nan
            if name == "coupled":
                return ~np.isnan(row(run, "tau"))
            return run.pairs[montecarlo.PAIR_ROWS.index(name)]

        whole = run(cfg.n_steps + 1)
        assert row(whole, "coupled").all() and not whole.alive.any()
        # step s leaves the finite range when trace row s, the state after
        # s + 1 steps, is the first to read a nan distance
        s_b = np.argmax(np.isnan(whole.trace[:, :, 1]), axis=1)
        assert 1400 < s_b.min() and s_b.max() < cfg.n_steps - 1
        # log_s and zsq stop changing once a pair has met
        before = run(cfg.n_steps + 1, n_steps=1400)
        for block in (1, 3, 7):
            res = run(block)
            other = run(block, chunk=5)
            for name in ("final", "alive", "pairs", "trace"):
                assert np.array_equal(getattr(other, name), getattr(res, name), equal_nan=True), name
            assert np.array_equal(res.alive, whole.alive), block
            for name in ("coupled", "tau", "f_int"):
                assert np.array_equal(row(res, name), row(whole, name)), (block, name)
            assert np.array_equal(res.final[0], res.final[1], equal_nan=True)
            assert np.isnan([row(res, "lp_int_x"), row(res, "lp_int_y")]).all()
            # a met pair's weight terms stay as they were when it met, dead
            # or not, and its trace does not depend on when it left the block
            for name in ("log_stoch_int", "zeta_sq_int"):
                assert np.array_equal(row(res, name), row(before, name)), (block, name)
            assert np.array_equal(res.trace, whole.trace, equal_nan=True), block

    def assert_fields_equal(self, res, whole, *where, skip=()):
        for name in self.FIELDS:
            if name not in skip:
                assert np.array_equal(getattr(res, name), getattr(whole, name), equal_nan=True), (*where, name)

    def test_f_envelope_off_changes_no_other_field(self, monkeypatch):
        # the runs of test_results_independent_of_time_block, then pairs
        # that meet and blow up as in test_met_pairs_that_blow_up
        c = small_coeffs()
        for n, tol in self.TOL.items():
            m = dirichlet1d_model(n, [i**-0.5 for i in range(1, n + 1)])
            x = from_spectral(m, 0.4 / np.arange(1, n + 1))
            y = from_spectral(m, -0.3 / np.arange(1, n + 1) ** 2)
            cfg = EnsembleConfig(n_paths=13, dt=1e-3, T=0.1, seed=21)
            for block in (1, 3, 7):
                monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
                on, off = (run_coupled_ensemble(m, c, cfg, x, y, couple_tol=tol, trace_paths=9, f_envelope=f)
                           for f in (True, False))
                assert 0 < np.count_nonzero(on.coupled) < cfg.n_paths
                assert off.f_int is None and np.all(on.f_int > 0.0), (n, block)
                self.assert_fields_equal(off, on, n, block, skip=("f_int",))
        monkeypatch.setattr(montecarlo, "BLOWUP_BUDGET", 1.0)
        m = small_model()
        c = CoefficientSet(r=0.5, nonlinearity="identity")
        x, y = from_spectral(m, [0.4, 0.0, 0.0, 0.0]), from_spectral(m, [0.3, 0.0, 0.0, 0.0])
        cfg = EnsembleConfig(n_paths=12, dt=0.029, T=0.029 * 1500, seed=3, scheme="explicit_euler")
        for block in (1, 3, 7):
            monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
            on, off = (run_coupled_ensemble(m, c, cfg, x, y, couple_tol=0.01, trace_paths=12, f_envelope=f)
                       for f in (True, False))
            assert not on.alive.any() and np.isnan(on.f_int).all() and off.f_int is None
            self.assert_fields_equal(off, on, block, skip=("f_int",))

    def test_first_meeting_at_block_edges(self, monkeypatch):
        # a noise block starts its meeting bookkeeping at its first meeting:
        # on the block's first step, on its last step, and from equal starts
        # at step 0, where every pair meets
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=13, dt=1e-3, T=0.1, seed=21)

        def run(block, y, tol):
            monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
            return run_coupled_ensemble(m, c, cfg, START, y, couple_tol=tol, trace_paths=13)

        whole = run(cfg.n_steps + 1, OTHER, 1e-3)
        met = np.rint(whole.tau / cfg.dt)
        first = int(met.min())
        assert whole.coupled.all() and first >= 2 and (met > first).sum() >= 6
        # step first opens block 1 of `first` steps and closes block 0 of first + 1
        for block in (first, first + 1):
            self.assert_fields_equal(run(block, OTHER, 1e-3), whole, block)
        whole = run(cfg.n_steps + 1, START, None)
        assert whole.coupled.all() and np.all(whole.tau == 0.0)
        for block in (1, 3, 7):
            self.assert_fields_equal(run(block, START, None), whole, block)

    def test_transforms_narrow_to_the_first_copies_once_all_met(self, monkeypatch):
        # the widths of the synthesis, the step's transform to point values:
        # the np.matmul whose matrix is the (n, n) synthesis matrix.  Its
        # blocks are padded to whole panels, so the 2 x 6 columns of six
        # pairs apart read 16 and the 6 of six that have met read 8.
        widths = []
        real = np.matmul

        def spy(a, b, **kw):
            if np.shape(a) == (4, 4):
                widths.append(np.shape(b)[-1])
            return real(a, b, **kw)

        monkeypatch.setattr(montecarlo.np, "matmul", spy)
        monkeypatch.setattr(montecarlo, "TIME_BLOCK", 4)
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=6, dt=0.01, T=0.1, seed=3)
        # from (x, x) every pair meets at step 0 and leaves at step 4
        run_coupled_ensemble(m, c, cfg, START, START)
        assert widths == [16] * 4 + [8] * 7
        # pairs that meet later leave at the first block start after meeting
        widths.clear()
        cfg = EnsembleConfig(n_paths=6, dt=1e-3, T=0.1, seed=21)
        res = run_coupled_ensemble(m, c, cfg, START, OTHER, couple_tol=0.02)
        assert res.coupled.all()
        assert widths[0] == 16 and widths[-1] == 8
        assert all(a >= b for a, b in zip(widths, widths[1:]))
        last_met = round(float(np.max(res.tau)) / cfg.dt)
        assert widths.index(8) == (last_met // 4 + 1) * 4
        # step s works on the 6 + (pairs not met before its block's start)
        # columns, padded; the last step opens no block
        met = np.rint(res.tau / cfg.dt)
        apart = [int(np.sum(met >= min(s, cfg.n_steps - 1) // 4 * 4)) for s in range(cfg.n_steps + 1)]
        assert widths == [spectral._panels(6 + a) for a in apart]


class TestPanelTransforms:
    """The kernel's two transforms are one np.matmul each, on blocks a
    whole number of PANEL columns wide: the synthesis by E^T and the drift
    by M_t^T, (n, 2n), or by diag(gamma - lambda) for the identity.  So is
    the two-copy step's pair sums, a (3, 2n) matrix of 1/lambda and 1/q^2
    times the block [D*D; D*dW], and the sampled condition checks'
    analysis, by the m-weighted eigenfunctions.  Every column of such a
    block gets the bits it gets in a block of one panel, at any width and
    offset, in a contiguous block or in a column slice of a wider one, and
    under any BLAS thread count."""

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    def test_column_bits_are_its_bits_in_one_panel(self):
        panel = spectral.PANEL
        rng = np.random.default_rng(0)
        cols_total = spectral._panels(2048 + 13)
        for n in (1, 4, 9, 64):
            m = dirichlet1d_model(n, np.ones(n))
            a = m._analysis
            # the kernel's four matrices, the drift's with random factors, and
            # the sampled checks' analysis
            inv_q_sq = rng.uniform(1.0, n, n)
            pair_sums = np.zeros((3, 2 * n))
            pair_sums[0, :n], pair_sums[1, :n], pair_sums[2, n:] = 1.0 / m.eigenvalues, inv_q_sq, inv_q_sq
            mats = {
                "synthesis": np.ascontiguousarray(m.eigenfunctions.T),
                "drift": np.concatenate([a * rng.standard_normal(n)[:, None], -0.4 * a], axis=1),
                "identity": np.diag(-0.4 - m.eigenvalues),
                "pair sums": pair_sums,
                "analysis": a,
            }
            for name, mat in mats.items():
                rows = mat.shape[1]
                # magnitudes over 16 decades, so the order of the additions
                # shows in the bits, and an all -0.0 column
                base = rng.standard_normal((rows, cols_total)) * 10.0 ** rng.uniform(-8, 8, (rows, cols_total))
                base[:, 3] = -0.0
                ref = np.concatenate([mat @ base[:, i:i + panel].copy()
                                      for i in range(0, cols_total, panel)], axis=1)
                for width in [*range(1, 41), 1024, 2048]:
                    cols = spectral._panels(width)
                    assert cols % panel == 0 and width <= cols < width + panel
                    for offset in range(14):
                        block = base[:, offset:offset + cols]
                        for layout, A in (("C", block.copy()), ("sliced", block)):
                            out = np.full((len(mat), cols), np.nan)
                            assert np.matmul(mat, A, out=out) is out
                            assert np.array_equal(self.bits(out), self.bits(ref[:, offset:offset + cols])), (
                                n, name, width, offset, layout)

    def test_coupled_run_independent_of_blas_threads(self):
        # 1024 pairs at n = 64: gemms large enough for the BLAS to split
        # over threads.  The thread count is read when numpy loads, so each
        # count runs in its own interpreter.
        code = (
            "import hashlib, numpy as np\n"
            "from fastdiffusion import CoefficientSet, EnsembleConfig, dirichlet1d_model, from_spectral, "
            "run_coupled_ensemble\n"
            "n = 64\n"
            "m = dirichlet1d_model(n, [i**-0.5 for i in range(1, n + 1)])\n"
            "x = from_spectral(m, 0.4 / np.arange(1, n + 1))\n"
            "y = from_spectral(m, -0.3 / np.arange(1, n + 1) ** 2)\n"
            "cfg = EnsembleConfig(n_paths=1024, dt=1e-3, T=0.01, seed=21)\n"
            "res = run_coupled_ensemble(m, CoefficientSet(r=0.5, gamma=-0.4), cfg, x, y)\n"
            "assert cfg.n_steps == 10\n"
            "h = hashlib.sha256()\n"
            "for a in (res.XT, res.YT, res.tau, res.log_stoch_int, res.zeta_sq_int, res.f_int, "
            "res.lp_int_x, res.lp_int_y, res.dist_final):\n"
            "    h.update(np.ascontiguousarray(a).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert digests[0] == digests[1]


class TestRowSum:
    """_row_sum adds the rows of a block one at a time, in order, for any
    row count, width and layout, so a path's bits never depend on how
    many paths share its chunk."""

    @staticmethod
    def in_order(A):
        out = A[0].copy()
        for row in A[1:]:
            out = out + row
        return out

    def test_bit_equal_to_adding_rows_in_order(self, monkeypatch):
        reduces = []

        def spy(*args, **kw):
            reduces.append(1)
            return np.add.reduce(*args, **kw)

        # _row_sum reads nothing else of numpy
        monkeypatch.setattr(spectral, "np", SimpleNamespace(add=SimpleNamespace(reduce=spy)))
        rng = np.random.default_rng(0)
        for n in (1, 2, 4, 8, 9, 64):
            for width in (1, 2, 3, 1024):
                # magnitudes over 16 decades, so the order of the additions
                # shows in the bits, and an all -0.0 column
                base = rng.standard_normal((n, width + 5)) * 10.0 ** rng.uniform(-8, 8, (n, width + 5))
                base[:, 3] = -0.0
                layouts = {"C": base[:, :width].copy(), "sliced": base[:, 2:2 + width],
                           "F": np.asfortranarray(base[:, :width])}
                for layout, A in layouts.items():
                    reduces.clear()
                    got = spectral._row_sum(A)
                    want = self.in_order(A)
                    assert got.shape == (width,)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n, width, layout)
                    # numpy sums a one-column or F-ordered block pairwise from 8 rows
                    contiguous_columns = layout != "F" or n == 1
                    assert len(reduces) == int(width > 1 and contiguous_columns), (n, width, layout)


class TestRowDot:
    """_row_dot(a, b) and _row_dot(a, b, c) give _row_sum(a * b) and
    _row_sum(a * b * c) bit for bit, for any row count, width and layout,
    with nan and inf entries; one einsum pass replaces the product block
    exactly when the block is wider than one column and its columns are
    contiguous.

    The one difference is pinned: einsum zero-fills its output, so a
    column of all -0.0 products sums to +0.0 where _row_sum gives -0.0.
    No kernel use can see it.  Squares (the taming norm, |D|_H, |zeta|^2,
    |C|_H) and |x|^(r+1) w (the moments, the f envelope) are never -0.0,
    and the stochastic-integral increment is added into log_s, which
    starts at +0.0 and can never become -0.0, since x + y is -0.0 only
    when both are.
    """

    def test_bit_equal_to_row_sum_of_the_product(self, monkeypatch):
        passes = []
        einsum = spectral._einsum

        def spy(subscripts, *operands):
            passes.append(subscripts)
            return einsum(subscripts, *operands)

        monkeypatch.setattr(spectral, "_einsum", spy)
        rng = np.random.default_rng(0)
        for n in (1, 2, 4, 8, 9, 64):
            for width in (1, 2, 3, 1024):
                # magnitudes over 16 decades, so the order of the additions
                # shows in the bits; base columns 1, 4 and 5 hold a nan, an
                # inf and a -inf, and column 3 is all -0.0 products; every
                # layout's first column stays finite
                bases = [rng.standard_normal((n, width + 5)) * 10.0 ** rng.uniform(-8, 8, (n, width + 5))
                         for _ in range(3)]
                bases[0][-1, 1] = math.nan
                bases[1][0, 4] = math.inf
                bases[2][n // 2, 5] = -math.inf
                bases[0][:, 3] = -0.0
                bases[1][:, 3] = np.abs(bases[1][:, 3])
                bases[2][:, 3] = np.abs(bases[2][:, 3])
                for layout in ("C", "sliced", "F"):
                    start = 2 if layout == "sliced" else 0
                    factors = [b[:, start:start + width] for b in bases]
                    if layout == "C":
                        factors = [f.copy() for f in factors]
                    elif layout == "F":
                        factors = [np.asfortranarray(f) for f in factors]
                    zero_col = 3 - start
                    for k in (2, 3):
                        where = (n, width, layout, k)
                        prod = factors[0] * factors[1]
                        if k == 3:
                            prod = prod * factors[2]
                        want = spectral._row_sum(prod)
                        passes.clear()
                        got = spectral._row_dot(*factors[:k])
                        assert got.shape == (width,), where
                        # an F-ordered block has contiguous columns only at n = 1
                        einsum_ran = width > 1 and (layout != "F" or n == 1)
                        assert passes == ([",".join(["ip"] * k) + "->p"] if einsum_ran else []), where
                        if einsum_ran and zero_col < width:
                            assert math.copysign(1.0, want[zero_col]) == -1.0 and want[zero_col] == 0.0, where
                            assert math.copysign(1.0, got[zero_col]) == 1.0 and got[zero_col] == 0.0, where
                            want[zero_col] = 0.0
                        assert np.array_equal(got.view(np.int64), want.view(np.int64)), where


class TestPathGenerators:
    @pytest.mark.parametrize("seed", [0, 7, dynamics.SEED_MAX])
    def test_same_state_and_draws_as_keyed_philox(self, seed):
        # the generators skip Philox(key=...)'s entropy read, so a change to
        # numpy's Philox state layout must show here
        def flat(state):
            return {k: (flat(v) if isinstance(v, dict) else np.asarray(v).tolist())
                    for k, v in state.items()}

        gens = dynamics._path_generators(seed, 5, 9)
        assert len(gens) == 4
        for p, gen in zip(range(5, 9), gens):
            ref = np.random.Generator(np.random.Philox(key=np.array([seed, p], dtype=np.uint64)))
            assert flat(gen.bit_generator.state) == flat(ref.bit_generator.state), p
            assert np.array_equal(gen.standard_normal((3, 4)), ref.standard_normal((3, 4))), p
            assert gen.bit_generator.random_raw() == ref.bit_generator.random_raw(), p
            assert flat(gen.bit_generator.state) == flat(ref.bit_generator.state), p


class TestNoiseBlock:
    """Each noise block is drawn path-major a tile of paths at a time and
    stored step-major, pre-scaled by q sqrt(dt)."""

    FIELDS = ("XT", "YT", "coupled", *montecarlo.PAIR_ROWS, "dist_final", "alive")

    def test_results_independent_of_tile_width(self, monkeypatch):
        # 50 steps in noise blocks of 7: seven full blocks and a short one;
        # about half the pairs meet and move, which reorders the generators
        m, c = small_model(), small_coeffs()
        monkeypatch.setattr(montecarlo, "TIME_BLOCK", 7)

        def run(n_paths, tile):
            monkeypatch.setattr(montecarlo, "NOISE_TILE", tile)
            cfg = EnsembleConfig(n_paths=n_paths, dt=1e-3, T=0.05, seed=21)
            thinned = EnsembleConfig(n_paths=n_paths, dt=1e-3, T=0.05, burn_in=0.01, seed=21)
            plain = montecarlo._simulate(m, c, thinned, [START], thin=3, eps0=0.01)
            res = run_coupled_ensemble(m, c, cfg, START, OTHER, couple_tol=1e-5,
                                       trace_paths=9, record_every=2)
            return plain, res

        base_plain, base = run(11, 64)
        assert 0 < np.count_nonzero(base.coupled) < 11
        for n_paths in (11, 13):
            for tile in (1, 3, 64):
                plain, res = run(n_paths, tile)
                assert np.array_equal(plain.final[:, :11], base_plain.final), (n_paths, tile)
                assert np.array_equal(plain.window_sums[..., :11], base_plain.window_sums), (n_paths, tile)
                for name in self.FIELDS:
                    assert np.array_equal(getattr(res, name)[:11], getattr(base, name), equal_nan=True), (
                        n_paths, tile, name)
                assert np.array_equal(res.trace, base.trace), (n_paths, tile)

    @staticmethod
    def _block_peak(coupled):
        # the tracemalloc peak of a 1024-path run of one noise block, after
        # a first run has filled the lazy caches, and the block's size
        # (P TIME_BLOCK n floats)
        m, c = small_model(), small_coeffs()
        P, steps = 1024, montecarlo.TIME_BLOCK
        cfg = EnsembleConfig(n_paths=P, dt=1e-3, T=steps * 1e-3, seed=3)
        assert cfg.n_steps == steps
        if coupled:
            sched = make_schedule(m, c, cfg.realized_T, START, OTHER)
            args = (m, c, cfg, [START, OTHER], sched, 1e-6)
        else:
            args = (m, c, cfg, [START])
        montecarlo._simulate(*args)
        tracemalloc.start()
        try:
            montecarlo._simulate(*args)
            return tracemalloc.get_traced_memory()[1], P * steps * m.n * 8
        finally:
            tracemalloc.stop()

    def test_block_held_once(self):
        # a 1024-pair coupled run holds the scaled block and a small tile,
        # not a second full copy
        peak, block = self._block_peak(coupled=True)
        assert peak < 1.5 * block, peak

    def test_plain_block_held_once(self):
        # the one-copy twin: a plain run adds each step's noise slice to
        # the state in place, so it too holds one block-sized array
        peak, block = self._block_peak(coupled=False)
        assert peak < 1.35 * block, peak


class TestWeightHealth:
    def test_equal_starts_keep_every_path(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=16, dt=0.01, T=0.1, seed=3)
        health = run_coupled_ensemble(m, c, cfg, START, START).weight_health()
        assert health == {"weight_ess": 16.0, "max_weight_share": 1.0 / 16.0}

    def test_hand_values_and_overflow(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=4, dt=0.01, T=0.1, seed=3)
        res = run_coupled_ensemble(m, c, cfg, START, OTHER)
        # weights 1, 1, 2, 4: ess = 8^2 / 22, share = 4 / 8
        log_w = np.log([1.0, 1.0, 2.0, 4.0])
        res = dataclasses.replace(res, log_stoch_int=-log_w, zeta_sq_int=np.zeros(4))
        health = res.weight_health()
        assert health["weight_ess"] == pytest.approx(64.0 / 22.0, rel=1e-15)
        assert health["max_weight_share"] == pytest.approx(0.5, rel=1e-15)
        # a weight past float range leaves both undefined: null in a record
        huge = dataclasses.replace(res, log_stoch_int=np.array([0.0, 0.0, 0.0, -800.0]))
        assert all(math.isnan(v) for v in huge.weight_health().values())
        # a dead path's weight does not count
        dead = dataclasses.replace(huge, alive=np.array([True, True, True, False]))
        assert dead.weight_health() == {"weight_ess": 3.0, "max_weight_share": 1.0 / 3.0}


class TestEstimateWeighted:
    def test_zero_exponent_drops_reweighting(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=20, dt=0.01, T=0.1, seed=4)
        est = estimate_weighted(run_coupled_ensemble(m, c, cfg, START, OTHER), ones, exponent=0.0)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_reweighted_matches_direct_estimate(self):
        # E R F(X_T) over pairs from (x, y) estimates P_T F(y); compare
        # against the plain estimator started at y
        m = small_model()
        c = CoefficientSet(r=0.5, gamma=-0.4)
        cfg = EnsembleConfig(n_paths=4000, dt=0.002, T=0.1, seed=17)
        wa = estimate_weighted(run_coupled_ensemble(m, c, cfg, START, OTHER), exp_f(m))
        direct = estimate_ptf(m, c, EnsembleConfig(n_paths=4000, dt=0.002, T=0.1, seed=99), OTHER, exp_f(m))
        joint = math.hypot(wa.stderr, direct.stderr)
        assert abs(wa.mean - direct.mean) <= 3.0 * joint


class TestVerifyHarnack:
    def test_equal_points_reduce_to_jensen(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=400, dt=0.01, T=0.2, seed=6)
        out = verify_harnack(m, c, run_coupled_ensemble(m, c, cfg, START, START), 2.0, exp_f(m))
        assert out["holds"]
        assert out["coupled_fraction"] == 1.0
        assert out["mean_weight"]["mean"] == 1.0
        assert out["rhs_factor"] > 1.0
        assert out["informative"] is True

    def test_infinite_factor_holds_uninformatively(self):
        # the multiplier overflows; a zero test function makes the old
        # product inf * (mean - 1.96 se) NaN, which failed the verdict
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=64, dt=1e-4, T=0.01, seed=5)
        y = from_spectral(m, [20.0, 0.0, 0.0, 0.0])
        res = run_coupled_ensemble(m, c, cfg, START, y)
        for F in (exp_f(m), lambda X: np.zeros(X.shape[0])):
            out = verify_harnack(m, c, res, 2.0, F)
            assert out["rhs_factor"] == math.inf
            assert out["holds"] is True and out["informative"] is False
            assert out["rhs"] is None and out["rhs_ci95"] == [None, None]
            assert all(math.isfinite(v) for v in out["lhs_ci95"])

    def test_ci_margin_signs_the_verdict(self, monkeypatch):
        # scale the multiplier through the flip of the verdict: the margin
        # is >= 0 exactly where the comparison holds; at this tolerance
        # every pair meets, so the verdict is informative
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=200, dt=0.005, T=0.1, seed=8)
        res = run_coupled_ensemble(m, c, cfg, START, OTHER, couple_tol=0.02)
        assert res.coupled_fraction == 1.0
        report = bounds.bound_report(m, c, res.schedule.T, START, OTHER, 2.0)
        signs = set()
        for factor in 10.0 ** np.arange(-3.0, 3.5, 0.5):
            monkeypatch.setattr(
                bounds, "bound_report",
                lambda *args, f=factor: dataclasses.replace(report, harnack_rhs=f),
            )
            out = verify_harnack(m, c, res, 2.0, exp_f(m))
            lhs_hi, rhs_lo = out["lhs_ci95"][1], out["rhs_ci95"][0]
            assert out["ci_margin"] == rhs_lo * (1.0 + out["slack"]) - lhs_hi
            assert (out["ci_margin"] >= 0.0) == out["holds"]
            signs.add(out["holds"])
        assert signs == {True, False}

    def test_one_bounds_query(self, monkeypatch):
        # every constant of both comparisons comes from one bound_report
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=64, dt=0.01, T=0.2, seed=4)
        res = run_coupled_ensemble(m, c, cfg, START, OTHER)
        report = bounds.bound_report(m, c, 0.2, START, OTHER, 2.0)
        calls = []

        def spy(*args):
            calls.append(args)
            return report

        def forbidden(*args, **kwargs):
            raise AssertionError("verify_harnack asked for a second bounds query")

        monkeypatch.setattr(bounds, "bound_report", spy)
        for name in bounds.__all__:
            if name not in ("BoundReport", "bound_report"):
                monkeypatch.setattr(bounds, name, forbidden)
        monkeypatch.setattr(montecarlo, "norm_h", forbidden)
        out = verify_harnack(m, c, res, 2.0, ones)
        assert len(calls) == 1
        assert out["rhs_factor"] == report.harnack_rhs

    def test_pairs_that_never_met_make_it_uninformative(self, monkeypatch):
        # 6 of 64 pairs meet: the weighted F(X_T) of the other 58 does not
        # stand for F(Y_T), so the verdict says nothing, and the note says why
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=64, dt=1e-3, T=0.1, seed=21)
        res = run_coupled_ensemble(m, c, cfg, START, OTHER, couple_tol=1e-6)
        assert res.coupled_fraction == 6 / 64
        out = verify_harnack(m, c, res, 2.0, exp_f(m))
        assert out["informative"] is False and out["ci_margin"] is None
        assert out["note"] == (
            "coupled_fraction 0.09375 is below 0.99: the weighted F(X_T) stands for F(Y_T) on met pairs only")
        # at the floor the verdict is _verdict's, with no note
        monkeypatch.setattr(montecarlo, "MET_FLOOR", 6 / 64)
        at_floor = verify_harnack(m, c, res, 2.0, exp_f(m))
        lhs_hi, rhs_lo = at_floor["lhs_ci95"][1], at_floor["rhs_ci95"][0]
        assert "note" not in at_floor and at_floor["informative"] is True
        assert at_floor["ci_margin"] == rhs_lo * 1.05 - lhs_hi
        assert {k: v for k, v in out.items() if k not in ("note", "informative", "ci_margin")} == {
            k: v for k, v in at_floor.items() if k not in ("informative", "ci_margin")}

    def test_ci_margin_null_for_infinite_factor(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=64, dt=1e-4, T=0.01, seed=5)
        y = from_spectral(m, [20.0, 0.0, 0.0, 0.0])
        out = verify_harnack(m, c, run_coupled_ensemble(m, c, cfg, START, y), 2.0, exp_f(m))
        assert out["informative"] is False and out["ci_margin"] is None

    def test_report_shape(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=200, dt=0.005, T=0.1, seed=8)
        out = verify_harnack(m, c, run_coupled_ensemble(m, c, cfg, START, OTHER), 2.0, exp_f(m))
        for key in (
            "holds",
            "informative",
            "lhs",
            "rhs",
            "lhs_ci95",
            "rhs_ci95",
            "rhs_factor",
            "weighted_estimate",
            "plain_p_estimate",
            "coupled_fraction",
            "n_blowups",
        ):
            assert key in out
        assert out["lhs_ci95"][0] <= out["lhs"] <= out["lhs_ci95"][1]


class TestVerdictRule:
    def test_finite_inputs(self):
        out = montecarlo._verdict(1.0, 2.0, 0.5, 0.05)
        assert out == {"holds": True, "informative": True, "ci_margin": 2.0 * 0.5 * 1.05 - 1.0}
        out = montecarlo._verdict(1.2, 2.0, 0.5, 0.05)
        assert out["holds"] is False and out["ci_margin"] < 0.0
        # the comparison includes its edge
        assert montecarlo._verdict(1.0, 2.0, 0.5, 0.0) == {"holds": True, "informative": True, "ci_margin": 0.0}

    def test_infinite_factor(self):
        for hi in (1.0, math.inf, math.nan):
            assert montecarlo._verdict(hi, math.inf, 0.5, 0.05) == {
                "holds": True, "informative": False, "ci_margin": None,
            }

    @pytest.mark.parametrize("lo", [0.0, -0.1, math.nan])
    def test_right_side_not_positive(self, lo):
        # 0 <= 0 holds and says nothing about the inequality
        for factor in (0.0, 2.0):
            out = montecarlo._verdict(1.0, factor, lo, 0.05)
            assert out == {"holds": False, "informative": False, "ci_margin": None}
            for hi in (math.inf, math.nan):
                assert montecarlo._verdict(hi, factor, lo, 0.05)["holds"] is False
        out = montecarlo._verdict(0.0, 2.0, lo, 0.05)
        assert out == {"holds": lo == 0.0, "informative": False, "ci_margin": None}

    @pytest.mark.parametrize("hi", [math.inf, math.nan])
    def test_non_finite_hi_fails(self, hi):
        out = montecarlo._verdict(hi, 2.0, 0.5, 0.05)
        assert out["holds"] is False and out["informative"] is True
        assert not out["ci_margin"] >= 0.0

    def test_margin_signs_the_verdict(self):
        for hi in (-1.0, 0.0, 0.5, 1.0, 1.05, 1.06, 1e300, math.inf, math.nan):
            for factor in (0.0, 1.0, 2.0, 1e300):
                out = montecarlo._verdict(hi, factor, 0.5, 0.05)
                assert (out["ci_margin"] >= 0.0) == out["holds"], (hi, factor)


class TestVerifyExpMoment:
    """The exp_moment block of verify_harnack."""

    def block(self, m, c, res):
        return verify_harnack(m, c, res, 2.0, exp_f(m))["exp_moment"]

    def test_one_sided(self):
        # a run from (x, x) has Y = X: both sides are the bound for x
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=400, dt=0.01, T=0.2, seed=10)
        out = self.block(m, c, run_coupled_ensemble(m, c, cfg, START, START))
        assert out["x_side"]["holds"] and out["y_side"]["holds"]
        assert out["x_side"]["mean"] <= out["x_side"]["rhs"]
        assert out["attraction_cost_bound"] == 0.0
        assert out["y_side"] == out["x_side"]

    def test_two_sided_x_side_equals_one_sided(self):
        # the first copies of a coupled run go through the plain run's
        # arithmetic, so the x side does not depend on y
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=400, dt=0.01, T=0.2, seed=10)
        one_res = run_coupled_ensemble(m, c, cfg, START, START)
        two_res = run_coupled_ensemble(m, c, cfg, START, OTHER)
        assert np.array_equal(two_res.lp_int_x, one_res.lp_int_x)
        one = self.block(m, c, one_res)
        two = self.block(m, c, two_res)
        assert two["x_side"] == one["x_side"]

    def test_two_sided(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=400, dt=0.01, T=0.2, seed=10)
        out = self.block(m, c, run_coupled_ensemble(m, c, cfg, START, OTHER))
        assert "y_side" in out
        # each side is decided by the verdict rule on its upper CI extreme
        for side in (out["x_side"], out["y_side"]):
            hi = side["mean"] + 1.96 * side["stderr"]
            assert side["informative"] is True
            assert side["ci_margin"] == pytest.approx(side["rhs"] * 1.05 - hi, rel=1e-12)
            assert side["holds"] == (side["ci_margin"] >= 0.0)
        # the attracted copy pays an additive distance toll in the exponent:
        # the bound on the attraction's H-norm cost, dist0^(2(1-eps)) times
        # integral beta^2 exp(-2 eps Gamma), at gamma constant in closed form
        sched = make_schedule(m, c, cfg.realized_T, START, OTHER)
        k = 2.0 * c.gamma(0.0)
        beta_sq = sched.beta(0.0) ** 2 * -math.expm1(-k * sched.T) / k
        extra = sched.dist0 ** (2.0 * (1.0 - sched.epsilon)) * beta_sq
        assert out["attraction_cost_bound"] == pytest.approx(extra, rel=1e-12)
        ny = float(norm_h(m, OTHER))
        want = math.exp(out["log_moment_rate_int"] + ny**2 + extra)
        assert out["y_side"]["rhs"] == pytest.approx(want, rel=1e-12)

    def test_bound_past_float_range_reads_null(self):
        # |x|_H^2 = 900 pushes exp(log_moment_rate_int + |x|_H^2) past float range
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=16, dt=1e-3, T=0.05, seed=2)
        e1 = m.eigenfunctions[0] / norm_h(m, m.eigenfunctions[0])
        x = 30.0 * e1
        out = self.block(m, c, run_coupled_ensemble(m, c, cfg, x, x + 0.05 * e1))
        for side in (out["x_side"], out["y_side"]):
            assert side["rhs"] == math.inf
            assert side["holds"] is True and side["informative"] is False and side["ci_margin"] is None

    def test_attraction_cost_below_extra(self):
        # extra = attraction_cost_bound bounds the H-norm cost of the
        # attraction, integral beta_t^2 |X_t - Y_t|_H^(2(1-eps))
        # dt, on every traced pair; zeta_sq_int, which weighs each mode by
        # 1/q_i^2, is larger
        m = dirichlet1d_model(4, [i**-0.5 for i in range(1, 5)])
        c = CoefficientSet(r=0.5, gamma=-0.2)
        x = from_spectral(m, [0.35, -0.20, 0.10, -0.05])
        y = from_spectral(m, [0.29, -0.16, 0.13, -0.02])
        cfg = EnsembleConfig(n_paths=400, dt=1e-4, T=0.25, seed=21)
        res = run_coupled_ensemble(m, c, cfg, x, y, trace_paths=400)
        sched = res.schedule
        e2 = 2.0 * (1.0 - sched.epsilon)
        # row s - 1 holds the state after s steps; step s reads the state at s
        rows = res.trace[:, :-1]
        cost = cfg.dt * (sched.beta(0.0) ** 2 * sched.dist0**e2 + np.sum(rows[:, :, 2] ** 2 * rows[:, :, 1] ** e2, axis=1))
        extra = self.block(m, c, res)["attraction_cost_bound"]
        assert res.n_blowups == 0 and np.all(cost > 0.0)
        assert np.max(cost) <= extra
        assert np.max(res.zeta_sq_int) > extra


class TestEstimateInvariant:
    def base_cfg(self):
        return EnsembleConfig(n_paths=30, dt=0.01, T=2.0, seed=13, burn_in=0.5)

    def test_guards(self):
        m = small_model()
        cfg = self.base_cfg()
        with pytest.raises(NotTimeHomogeneous):
            estimate_invariant(
                m, CoefficientSet(r=0.5, gamma=PiecewiseConstant([0.0, 1.0], [-0.5, -0.2])), cfg
            )
        with pytest.raises(PositiveGamma):
            estimate_invariant(m, CoefficientSet(r=0.5, gamma=0.3), cfg)
        with pytest.raises(ValueError):
            estimate_invariant(m, small_coeffs(), cfg, thin=0)
        with pytest.raises(ValueError):
            estimate_invariant(
                m, small_coeffs(), EnsembleConfig(n_paths=30, dt=0.01, T=2.0, seed=13)
            )

    def test_report_structure(self):
        m, c = small_model(), small_coeffs()
        none, plain = estimate_invariant(m, c, self.base_cfg(), thin=10)
        samples, report = estimate_invariant(m, c, self.base_cfg(), thin=10, samples=True)
        assert none is None and plain == report  # the sample is returned only when asked
        assert samples.shape == (report["n_samples"], m.n)
        assert report["n_samples"] == report["n_kept_times"] * report["n_paths"]
        assert report["n_blowups"] == 0
        assert report["averages"]["moment_rp1"] > 0.0
        assert "exp_h_sq" in report["averages"]  # gamma < 0 adds the square moment
        rel = report["split_half"]["rel_diff"]
        assert set(rel) == set(report["averages"])
        assert all(v >= 0.0 for v in rel.values())

    def test_window_averages_match_direct_means(self):
        # each window's averages are means over its own samples; the first
        # half is the first n_kept // 2 kept times of every path
        m, c = small_model(), small_coeffs()
        samples, report = estimate_invariant(m, c, self.base_cfg(), thin=10, samples=True)
        half = report["n_kept_times"] // 2 * report["n_paths"]
        rp1, eps0 = c.r + 1.0, report["eps0"]
        for block, got in (
            (samples[:half], report["split_half"]["first"]),
            (samples[half:], report["split_half"]["second"]),
            (samples, report["averages"]),
        ):
            nh = np.array([norm_h(m, s) for s in block])
            lp = np.array([float(norm_lp(m, s, rp1)) ** rp1 for s in block])
            assert got["moment_rp1"] == pytest.approx(lp.mean(), rel=1e-12)
            assert got["exp_h_rp1"] == pytest.approx(np.exp(eps0 * nh**rp1).mean(), rel=1e-12)
            assert got["exp_h_sq"] == pytest.approx(np.exp(eps0 * nh**2).mean(), rel=1e-12)

    def test_samples_view_the_kept_block_unless_a_path_is_lost(self, monkeypatch):
        m, c = small_model(), small_coeffs()
        # 1000 paths: one lost path is inside the 0.1 % budget
        cfg = EnsembleConfig(n_paths=1000, dt=0.01, T=0.2, seed=13, burn_in=0.1)
        real, runs, dead = montecarlo._simulate, [], []

        def spy(*args, **kw):
            run = real(*args, **kw)
            run.alive[dead] = False
            runs.append(run)
            return run

        monkeypatch.setattr(montecarlo, "_simulate", spy)
        whole, _ = estimate_invariant(m, c, cfg, thin=2, samples=True)
        assert np.shares_memory(whole, runs[0].kept)
        dead.append(3)
        samples, report = estimate_invariant(m, c, cfg, thin=2, samples=True)
        assert (report["n_paths"], report["n_blowups"]) == (999, 1)
        by_path = whole.reshape(report["n_kept_times"], 1000, m.n)
        assert np.array_equal(samples, np.delete(by_path, 3, axis=1).reshape(-1, m.n))

    def test_report_independent_of_chunking(self, monkeypatch):
        # each path's window sums are added one kept time at a time in time
        # order, so the report is byte-identical for any chunk size and any
        # batching of the kept times (thin 2 in time blocks of 1 to 256 steps)
        c = small_coeffs()
        for n in (4, 9, 64):
            m = dirichlet1d_model(n, [i**-0.5 for i in range(1, n + 1)])
            x0 = from_spectral(m, 0.4 / np.arange(1, n + 1))
            cfg = EnsembleConfig(n_paths=20, dt=0.01, T=0.6, seed=23, burn_in=0.1)
            reports = set()
            for chunk in (1, 7, 1024):
                for block in (1, 3, 16, 256):
                    monkeypatch.setattr(montecarlo, "CHUNK_PATHS", chunk)
                    monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
                    _, report = estimate_invariant(m, c, cfg, x0=x0, thin=2, eps0=0.5)
                    reports.add(json.dumps(report, sort_keys=True))
            assert len(reports) == 1, n

    def test_zero_gamma_drops_square_moment(self):
        m = small_model()
        c = CoefficientSet(r=0.5, gamma=0.0)
        _, report = estimate_invariant(m, c, self.base_cfg(), thin=10)
        assert "exp_h_sq" not in report["averages"]


class TestStrongFellerProbe:
    def test_probe_shape(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=100, dt=0.01, T=0.1, seed=14)
        out = strong_feller_probe(m, c, cfg, START, exp_f(m), radii=(0.2, 0.1))
        assert len(out["rows"]) == 2
        assert out["rows"][0]["h"] == 0.2
        assert all(math.isfinite(row["abs_diff"]) for row in out["rows"])

    def test_constant_function_sees_no_difference(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=50, dt=0.01, T=0.1, seed=14)
        out = strong_feller_probe(m, c, cfg, START, ones)
        assert all(row["abs_diff"] == 0.0 for row in out["rows"])

    def test_one_run_equals_one_run_per_start(self):
        # the copies share each path's noise, so every estimate is
        # bit-identical to a plain run from its own start
        m, c = small_model(), small_coeffs()
        F = exp_f(m)
        radii = (0.3, 0.1, 0.05)
        for n_paths in (7, 1030):
            cfg = EnsembleConfig(n_paths=n_paths, dt=0.01, T=0.2, seed=15)
            out = strong_feller_probe(m, c, cfg, START, F, radii=radii)
            assert out["base"] == estimate_ptf(m, c, cfg, START, F).as_dict()
            for h, row in zip(radii, out["rows"]):
                est = estimate_ptf(m, c, cfg, START + h * m.eigenfunctions[0], F)
                assert (row["ptf"], row["stderr"]) == (est.mean, est.stderr)

    def test_blowup_in_any_copy_drops_the_path(self, monkeypatch):
        # one alive flag per path: a path lost in any copy leaves every estimate
        m, c = small_model(), small_coeffs()
        F = exp_f(m)
        # 1000 paths: one lost path is inside the 0.1 % budget
        cfg = EnsembleConfig(n_paths=1000, dt=0.05, T=0.1, seed=14)
        real, runs = montecarlo._simulate, []

        def path_3_dead(*args, **kw):
            run = real(*args, **kw)
            run.alive[3] = False
            runs.append(run)
            return run

        monkeypatch.setattr(montecarlo, "_simulate", path_3_dead)
        out = strong_feller_probe(m, c, cfg, START, F, radii=(0.2, 0.1))
        (run,) = runs
        assert out["base"]["n"] == 999
        means = [out["base"]["mean"]] + [row["ptf"] for row in out["rows"]]
        for XT, mean in zip(run.final, means, strict=True):
            assert mean == estimate_from_values(F(np.delete(XT, 3, axis=0))).mean
