"""Ensemble estimators: determinism, reweighting, and the verdict helpers."""

import dataclasses
import json
import math
import tracemalloc

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
    verify_exp_moment_bound,
    verify_harnack,
)
from fastdiffusion import montecarlo


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
        # where numpy's own reductions would add in another order (n >= 8).
        fields = ("XT", "YT", "tau", "coupled", "log_stoch_int", "zeta_sq_int",
                  "f_int", "lp_int_x", "lp_int_y")
        c = small_coeffs()
        for n in (4, 9):
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
        want = np.exp(-res.log_stoch_int - 0.5 * res.zeta_sq_int)
        assert np.array_equal(res.weights, want)

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

    FIELDS = ("XT", "YT", "coupled", "tau", "log_stoch_int", "zeta_sq_int", "f_int",
              "lp_int_x", "lp_int_y", "dist_final", "alive", "trace")

    def test_results_independent_of_time_block(self, monkeypatch):
        # a tolerance at which about half the pairs meet, inside noise
        # blocks; a block longer than the run moves no pair
        c = small_coeffs()
        for n in (4, 9):
            m = dirichlet1d_model(n, [i**-0.5 for i in range(1, n + 1)])
            x = from_spectral(m, 0.4 / np.arange(1, n + 1))
            y = from_spectral(m, -0.3 / np.arange(1, n + 1) ** 2)
            cfg = EnsembleConfig(n_paths=13, dt=1e-3, T=0.1, seed=21)
            for every in (1, 5):
                def run(block):
                    monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
                    return run_coupled_ensemble(m, c, cfg, x, y, couple_tol=3e-5,
                                                trace_paths=9, record_every=every)

                whole = run(cfg.n_steps + 1)
                assert 0 < np.count_nonzero(whole.coupled) < cfg.n_paths
                for block in (1, 3, 7):
                    res = run(block)
                    for name in self.FIELDS:
                        assert np.array_equal(getattr(res, name), getattr(whole, name), equal_nan=True), (
                            n, every, block, name)

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

        whole = run(cfg.n_steps + 1)
        assert whole.coupled.all() and not whole.alive.any()
        # step s leaves the finite range when trace row s, the state after
        # s + 1 steps, is the first to read a nan distance
        s_b = np.argmax(np.isnan(whole.trace[:, :, 1]), axis=1)
        assert 1400 < s_b.min() and s_b.max() < cfg.n_steps - 1
        # log_s and zsq stop changing once a pair has met
        before = run(cfg.n_steps + 1, n_steps=1400)
        for block in (1, 3, 7):
            res = run(block)
            other = run(block, chunk=5)
            for name in ("final", "alive", "lp_int", "coupled", "tau", "log_stoch_int",
                         "zeta_sq_int", "f_int", "trace"):
                assert np.array_equal(getattr(other, name), getattr(res, name), equal_nan=True), name
            for name in ("alive", "coupled", "tau", "f_int"):
                assert np.array_equal(getattr(res, name), getattr(whole, name)), (block, name)
            assert np.array_equal(res.final[0], res.final[1], equal_nan=True)
            assert np.isnan(res.lp_int).all()
            # a met pair's X - Y is nan from the step after it leaves the
            # finite range until the check at the end of that noise block
            stale = (s_b + 1) % block != 0
            for got, want in ((res.log_stoch_int, before.log_stoch_int),
                              (res.zeta_sq_int, before.zeta_sq_int)):
                assert np.array_equal(np.isnan(got), stale), block
                assert np.array_equal(got[~stale], want[~stale]), block
            assert stale.any() == (block > 1)

    def test_transforms_narrow_to_the_first_copies_once_all_met(self, monkeypatch):
        widths = []
        real = montecarlo.from_spectral

        def spy(model, coeffs, **kw):
            widths.append(np.shape(coeffs)[-1])
            return real(model, coeffs, **kw)

        monkeypatch.setattr(montecarlo, "from_spectral", spy)
        monkeypatch.setattr(montecarlo, "TIME_BLOCK", 4)
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=6, dt=0.01, T=0.1, seed=3)
        # from (x, x) every pair meets at step 0 and leaves at step 4
        run_coupled_ensemble(m, c, cfg, START, START)
        assert widths == [12] * 4 + [6] * 7
        # pairs that meet later leave at the first block start after meeting
        widths.clear()
        cfg = EnsembleConfig(n_paths=6, dt=1e-3, T=0.1, seed=21)
        res = run_coupled_ensemble(m, c, cfg, START, OTHER, couple_tol=0.02)
        assert res.coupled.all()
        assert widths[0] == 12 and widths[-1] == 6
        assert all(a >= b for a, b in zip(widths, widths[1:]))
        last_met = round(float(np.max(res.tau)) / cfg.dt)
        assert widths.index(6) == (last_met // 4 + 1) * 4


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


class TestVerifyExpMoment:
    def test_one_sided(self):
        # a run from (x, x) has Y = X: both sides are the bound for x
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=400, dt=0.01, T=0.2, seed=10)
        out = verify_exp_moment_bound(m, c, run_coupled_ensemble(m, c, cfg, START, START))
        assert out["holds"]
        assert out["x_side"]["mean"] <= out["x_side"]["rhs"]
        assert out["y_side"]["beta_sq_exp_integral"] == 0.0
        assert {k: v for k, v in out["y_side"].items() if k != "beta_sq_exp_integral"} == out["x_side"]

    def test_two_sided_x_side_equals_one_sided(self):
        # the first copies of a coupled run go through the plain run's
        # arithmetic, so the x side does not depend on y
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=400, dt=0.01, T=0.2, seed=10)
        one_res = run_coupled_ensemble(m, c, cfg, START, START)
        two_res = run_coupled_ensemble(m, c, cfg, START, OTHER)
        assert np.array_equal(two_res.lp_int_x, one_res.lp_int_x)
        one = verify_exp_moment_bound(m, c, one_res)
        two = verify_exp_moment_bound(m, c, two_res)
        assert two["x_side"] == one["x_side"]

    def test_two_sided(self):
        m, c = small_model(), small_coeffs()
        cfg = EnsembleConfig(n_paths=400, dt=0.01, T=0.2, seed=10)
        out = verify_exp_moment_bound(m, c, run_coupled_ensemble(m, c, cfg, START, OTHER))
        assert "y_side" in out
        assert out["holds"] == (out["x_side"]["holds"] and out["y_side"]["holds"])
        # the attracted copy pays an additive distance toll in the exponent
        sched = make_schedule(m, c, cfg.realized_T, START, OTHER)
        extra = sched.dist0 ** (2.0 * (1.0 - sched.epsilon)) * sched.beta_sq_exp_integral()
        ny = float(norm_h(m, OTHER))
        want = math.exp(out["log_moment_rate_int"] + ny**2 + extra)
        assert out["y_side"]["rhs"] == pytest.approx(want, rel=1e-12)


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
        for n in (4, 9):
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
