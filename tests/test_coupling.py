"""Pair coupling: schedule calibration, drifts, reweighting accumulators, traces."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from fastdiffusion import (
    CoefficientSet,
    CouplingSchedule,
    EnsembleConfig,
    PiecewiseConstant,
    ZeroHorizon,
    bound_report,
    build_model,
    dirichlet1d_model,
    from_spectral,
    make_schedule,
    norm_h,
    norm_lp,
    run_coupled_ensemble,
)
from fastdiffusion import bounds, coupling
from fastdiffusion.montecarlo import _simulate
from point_oracles import apply_drift, coupling_drift, drift_eval, f_diagnostic, norm_q, zeta


def four_mode_model():
    return dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])


def flat_schedule(eps, c, T=1.0, dist0=1.0):
    """Schedule with constant amplitude 1 and zero feedback, so beta = c."""
    return CouplingSchedule(
        epsilon=eps, c=c, T=T, dist0=dist0,
        amp=PiecewiseConstant.constant(1.0),
        gamma=PiecewiseConstant.constant(0.0),
    )


def piecewise_setups():
    """(coeffs, T, x, y) with piecewise-constant gamma of either sign."""
    return [
        (CoefficientSet(r=0.5, delta=2.0, gamma=PiecewiseConstant([0.0, 0.5], [-0.5, 1.0]), xi=0.7),
         1.0, np.array([0.4, 0.1, -0.3, 0.0]), np.array([-0.1, 0.0, 0.2, 0.1])),
        (CoefficientSet(r=0.5, delta=1.5, gamma=PiecewiseConstant([0.0, 0.4], [0.8, -0.6]), xi=0.9),
         1.3, np.array([0.7, 0, 0, 0.0]), np.zeros(4)),
    ]


def quad_beta(s, gamma, k):
    """integral_0^T beta_t^k exp(-k epsilon integral_0^t gamma) dt by quadrature."""
    def integrand(t):
        return s.beta(t) ** k * math.exp(-k * s.epsilon * gamma.integral(t))
    return quad(integrand, 0.0, s.T, points=gamma.breaks[1:], limit=200)[0]


class TestMakeSchedule:
    def test_epsilon_values(self):
        m = four_mode_model()
        x = np.array([0.5, 0.0, 0.0, 0.0])
        y = np.zeros(4)
        s = make_schedule(m, CoefficientSet(r=0.5), 1.0, x, y)
        assert s.epsilon == pytest.approx((8.0 / 3.0) / (8.0 / 3.0 + 2.0), rel=1e-15)
        s4 = make_schedule(m, CoefficientSet(r=0.5, sigma=4.0), 1.0, x, y)
        assert s4.epsilon == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_epsilon_identity_exact(self):
        m = four_mode_model()
        x, y = np.array([1.0, 0, 0, 0.0]), np.zeros(4)
        for sigma in (8.0 / 3.0, 4.0, 16.0 / 3.0, 3.0, 2.5):
            r = 4.0 / sigma - 1.0 if sigma < 4.0 else 0.5
            s = make_schedule(m, CoefficientSet(r=r, sigma=sigma), 1.0, x, y)
            assert s.epsilon * (sigma + 2.0) == sigma

    def test_hand_normalizer(self):
        # constant delta = xi = 1, gamma = 0, sigma = 4, T = 1:
        # amp = (2/3)^{1/4}, c = dist0^{2/3} / ((2/3) (2/3)^{1/4})
        m = four_mode_model()
        x = np.array([0.5, -0.1, 0.0, 0.2])
        y = np.zeros(4)
        s = make_schedule(m, CoefficientSet(r=0.5, sigma=4.0), 1.0, x, y)
        dist0 = float(norm_h(m, x - y))
        want = dist0 ** (2.0 / 3.0) / ((2.0 / 3.0) * (2.0 / 3.0) ** 0.25)
        assert s.c == pytest.approx(want, rel=1e-13)

    def test_hypothesis_integral_equality(self):
        # The calibration makes the attraction integral exactly
        # dist0^eps / eps; checked by adaptive quadrature of beta.
        m = four_mode_model()
        for c, T, x, y in piecewise_setups():
            s = make_schedule(m, c, T, x, y)
            want = s.dist0**s.epsilon / s.epsilon
            assert quad_beta(s, c.gamma, 1) == pytest.approx(want, rel=1e-9)

    def test_one_gain_integral_from_bounds(self, monkeypatch):
        # the schedule reads its gain and gain integral off bounds, and
        # c = dist0^eps / (eps^(1 + 1/sigma) coupling_gain_int)
        calls = []
        real = bounds.weighted_exp_integral
        monkeypatch.setattr(bounds, "weighted_exp_integral", lambda *a: calls.append(a) or real(*a))
        m = four_mode_model()
        c, T, x, y = piecewise_setups()[0]
        s = make_schedule(m, c, T, x, y)
        assert len(calls) == 1
        assert not hasattr(coupling, "weighted_exp_integral") and not hasattr(coupling, "combine")
        gi = bound_report(m, c, T, x, y).coupling_gain_int
        assert s.c == pytest.approx(s.dist0**s.epsilon / (s.epsilon ** (1.0 + 1.0 / c.sigma) * gi), rel=1e-14)

    def test_equal_starts_degenerate(self):
        m = four_mode_model()
        x = np.array([0.3, 0.0, 0.1, 0.0])
        s = make_schedule(m, CoefficientSet(r=0.5), 1.0, x, x)
        assert s.c == 0.0
        assert s.beta(0.3) == 0.0

    def test_zero_horizon_rejected(self):
        m = four_mode_model()
        with pytest.raises(ZeroHorizon):
            make_schedule(m, CoefficientSet(r=0.5), 0.0, np.ones(4), np.zeros(4))

    def test_beta_matches_gain_times_c(self):
        # beta(t) = c * gain(t) with the published decay split:
        # gain carries exp(-(1-eps) Gamma) through the same amplitude.
        m = four_mode_model()
        c = CoefficientSet(r=0.5, delta=3.0, gamma=-0.4, xi=0.5)
        s = make_schedule(m, c, 1.0, np.array([1.0, 0, 0, 0.0]), np.zeros(4))
        # the gain (delta xi)^{1/sigma} exp(-full Gamma); beta folds in
        # the extra eps^{1/sigma} and decays only by (1-eps) Gamma.
        t = 0.7
        full = (3.0 * 0.5) ** (1.0 / c.sigma) * math.exp(-c.gamma.integral(t))
        expect = (
            s.c * s.epsilon ** (1.0 / c.sigma) * full
            * math.exp(s.epsilon * c.gamma.integral(t))
        )
        assert s.beta(t) == pytest.approx(expect, rel=1e-12)

    def test_attraction_cost_bound_quadrature(self):
        # dist0^(2(1-eps)) integral beta^2 exp(-2 eps Gamma), by quadrature,
        # is the closed form that bounds reports for the same query
        m = four_mode_model()
        for c, T, x, y in piecewise_setups():
            s = make_schedule(m, c, T, x, y)
            num = s.dist0 ** (2.0 * (1.0 - s.epsilon)) * quad_beta(s, c.gamma, 2)
            assert bound_report(m, c, T, x, y).attraction_cost_bound == pytest.approx(num, rel=1e-9)


class TestDrifts:
    def test_coupling_drift_hand_value(self):
        m = build_model([1.0], [[-1.0]], [1.0])
        s = flat_schedule(eps=2.0 / 3.0, c=1.0)
        x, y = np.array([2.0]), np.array([0.0])
        # |x - y|_H = 2, drift = 2 / 2^{2/3} = 2^{1/3}
        got = coupling_drift(m, s, x, y, 0.0)
        assert got[0] == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-13)

    def test_coupling_drift_zero_at_equal(self):
        m = four_mode_model()
        s = flat_schedule(eps=0.5, c=2.0)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.all(coupling_drift(m, s, x, x, 0.0) == 0.0)

    def test_zeta_zero_at_equal(self):
        m = four_mode_model()
        s = flat_schedule(eps=0.5, c=2.0)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert np.all(zeta(m, s, x, x, 0.0) == 0.0)

    @given(
        dx=arrays(np.float64, 4, elements=st.floats(-3.0, 3.0)),
    )
    @settings(max_examples=200)
    def test_zeta_norm_identity(self, dx):
        # componentwise |zeta|^2 equals beta^2 |d|_Q^2 / |d|_H^{2 eps}
        m = four_mode_model()
        s = flat_schedule(eps=4.0 / 7.0, c=1.7)
        y = np.zeros(4)
        if float(norm_h(m, dx)) < 1e-8:
            return
        z = zeta(m, s, dx, y, 0.0)
        lhs = float((z * z).sum())
        rhs = (
            s.beta(0.0) ** 2
            * float(norm_q(m, dx)) ** 2
            / float(norm_h(m, dx)) ** (2 * s.epsilon)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_zeta_scales_inversely_with_q(self):
        m1 = four_mode_model()
        m2 = dirichlet1d_model(4, [2.0, 1.6, 1.2, 1.0])  # q doubled
        s = flat_schedule(eps=0.5, c=1.0)
        x, y = np.array([0.5, -0.2, 0.1, 0.0]), np.zeros(4)
        z1 = zeta(m1, s, x, y, 0.0)
        z2 = zeta(m2, s, x, y, 0.0)
        assert np.allclose(z2, 0.5 * z1, rtol=1e-12)


class TestFDiagnostic:
    def test_zero_states(self):
        m = four_mode_model()
        c = CoefficientSet(r=0.5)
        assert f_diagnostic(m, c, np.zeros(4), np.zeros(4)) == 0.0

    def test_hand_value(self):
        m = build_model([0.5, 0.5], [[-2.0, 1.0], [1.0, -2.0]], [1.0, 2.0])
        c = CoefficientSet(r=0.5, sigma=4.0)
        # m[(|x| v |y|)^{3/2}] = 1 for x = (1,1), y = 0; f = 1^{1/3} = 1
        assert f_diagnostic(m, c, np.array([1.0, 1.0]), np.zeros(2)) == pytest.approx(1.0)

    @given(
        x=arrays(np.float64, 4, elements=st.floats(-5.0, 5.0)),
        y=arrays(np.float64, 4, elements=st.floats(-5.0, 5.0)),
        sigma=st.sampled_from([8.0 / 3.0, 3.0, 4.0]),
    )
    @settings(max_examples=200)
    def test_envelope_inequality(self, x, y, sigma):
        # f^{2/(sigma-2)} <= m(1 + |x|^{r+1} v |y|^{r+1}) whenever
        # sigma >= 4 / (1 + r)
        m = four_mode_model()
        c = CoefficientSet(r=0.5, sigma=sigma)
        f = f_diagnostic(m, c, x, y)
        lhs = f ** (2.0 / (sigma - 2.0))
        env = np.maximum(np.abs(x), np.abs(y)) ** 1.5
        rhs = float((m.weights * (1.0 + env)).sum())
        assert lhs <= rhs + 1e-12


def pair_run(model, coeffs, x, y, n_steps, dt=1e-3, seed=0, n_paths=2, **kw):
    cfg = EnsembleConfig(n_paths=n_paths, dt=dt, T=n_steps * dt, seed=seed)
    return run_coupled_ensemble(model, coeffs, cfg, x, y, **kw)


def flat_run(model, coeffs, sched, x, y, n_steps, dt=1e-3, seed=0, n_paths=2, **kw):
    """A coupled kernel run under a hand-built schedule."""
    cfg = EnsembleConfig(n_paths=n_paths, dt=dt, T=n_steps * dt, seed=seed)
    return _simulate(model, coeffs, cfg, [x, y], sched, **kw)


class TestPairState:
    def test_equal_starts_already_coupled(self):
        m = four_mode_model()
        x = np.array([0.1, 0.2, 0.0, 0.0])
        res = pair_run(m, CoefficientSet(r=0.5), x, x, 1)
        assert res.coupled.all() and np.all(res.tau == 0.0)

    def test_default_tolerance(self):
        m = four_mode_model()
        x, y = np.array([0.5, 0, 0, 0.0]), np.zeros(4)
        res = pair_run(m, CoefficientSet(r=0.5), x, y, 1)
        assert res.couple_tol == pytest.approx(1e-6 * float(norm_h(m, x - y)), rel=1e-12)

    def test_bad_tolerance_rejected(self):
        m = four_mode_model()
        with pytest.raises(ValueError):
            pair_run(m, CoefficientSet(r=0.5), np.ones(4), np.zeros(4), 1, couple_tol=0.0)


class TestStepPair:
    def test_identical_starts_stay_identical(self):
        m = four_mode_model()
        c = CoefficientSet(r=0.5, gamma=-0.2)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        res = pair_run(m, c, x, x, 50)
        assert np.array_equal(res.XT, res.YT)
        assert np.all(res.log_stoch_int == 0.0)
        assert np.all(res.zeta_sq_int == 0.0)

    def test_forced_identity_after_coupling(self):
        m = four_mode_model()
        c = CoefficientSet(r=0.5)
        x = np.array([0.2, 0.0, 0.0, 0.0])
        y = np.array([0.19999, 0.0, 0.0, 0.0])
        res = pair_run(m, c, x, y, 1, seed=1, couple_tol=1.0)  # tol larger than gap
        assert res.coupled.all() and np.all(res.tau == 0.0)
        assert np.array_equal(res.XT, res.YT)

    def test_girsanov_weight_formula(self):
        m = four_mode_model()
        c = CoefficientSet(r=0.5)
        x, y = np.array([0.4, 0.1, 0.0, 0.0]), np.zeros(4)
        res = pair_run(m, c, x, y, 20, seed=2)
        for j in range(2):
            want = math.exp(-res.log_stoch_int[j] - 0.5 * res.zeta_sq_int[j])
            assert res.weights[j] == pytest.approx(want, rel=1e-15)
        assert np.all(res.weights > 0.0)

    def test_zeta_sq_accumulator_nondecreasing(self):
        # under one fixed schedule a run of k steps is the first k steps of
        # a longer run, so the accumulator can be read after every step
        m = four_mode_model()
        c = CoefficientSet(r=0.5)
        x, y = np.array([0.4, 0.1, 0.0, 0.0]), np.zeros(4)
        sched = make_schedule(m, c, 1.0, x, y)
        prev = np.zeros(2)
        for k in range(1, 101):
            cur = flat_run(m, c, sched, x, y, k, seed=3, couple_tol=1e-6 * sched.dist0).zeta_sq_int
            assert np.all(cur >= prev)
            prev = cur


class TestContraction:
    @staticmethod
    def no_attraction(m, x, y, gamma):
        return CouplingSchedule(
            epsilon=0.5, c=0.0, T=1.0, dist0=float(norm_h(m, x - y)),
            amp=PiecewiseConstant.constant(1.0),
            gamma=PiecewiseConstant.constant(gamma),
        )

    def test_discrete_contraction_without_attraction(self):
        # beta = 0 and shared noise, seeds 0-39 (80 paths).  Under a linear
        # drift (the identity nonlinearity) exp(-2 gamma t) |X - Y|_H^2
        # cannot increase along the discrete path (modulo a tiny step
        # tolerance).  Under r = 1/2 it can, likely because Psi is not
        # Lipschitz at 0: the per-step check fails at 11 of these seeds, by
        # up to 19 % in one step (13 of the 80 paths under explicit Euler),
        # while the endpoint bound |X_T - Y_T|_H^2 <= e^{2 gamma T} |x - y|_H^2
        # holds at all 40.
        m = four_mode_model()
        gamma = -0.5
        x = np.array([0.5, -0.2, 0.1, 0.3])
        y = np.array([-0.1, 0.1, 0.0, -0.2])
        sched = self.no_attraction(m, x, y, gamma)
        d0 = float(norm_h(m, x - y)) ** 2
        linear = CoefficientSet(r=0.5, gamma=gamma, nonlinearity="identity")
        power = CoefficientSet(r=0.5, gamma=gamma)
        for seed in range(40):
            run = flat_run(m, linear, sched, x, y, 300, seed=seed, couple_tol=1e-300, trace_paths=2)
            for rows in run.trace:
                prev = d0
                for t, dist, _, _ in rows:
                    cur = math.exp(-2 * gamma * t) * dist**2
                    assert cur <= prev * (1.0 + 1e-6), seed
                    prev = cur
            run = flat_run(m, power, sched, x, y, 300, seed=seed, couple_tol=1e-300)
            lhs = norm_h(m, run.final[0] - run.final[1]) ** 2
            assert np.all(lhs <= math.exp(2 * gamma * 0.3) * d0 * (1.0 + 1e-3)), seed

    def test_endpoint_contraction_bound(self):
        # |X_t - Y_t|_H^2 <= e^{2 gamma t} |x - y|_H^2 (1 + 1e-3)
        m = four_mode_model()
        gamma = -0.3
        c = CoefficientSet(r=0.5, gamma=gamma)
        x = np.array([0.5, -0.2, 0.1, 0.3])
        y = np.array([-0.1, 0.1, 0.0, -0.2])
        n_steps = 500
        run = flat_run(m, c, self.no_attraction(m, x, y, gamma), x, y, n_steps, seed=6,
                       couple_tol=1e-300)
        lhs = norm_h(m, run.final[0] - run.final[1]) ** 2
        rhs = math.exp(2 * gamma * n_steps * 1e-3) * float(norm_h(m, x - y)) ** 2
        assert np.all(lhs <= rhs * (1.0 + 1e-3))


class TestKernelStep:
    """Steps of the spectral-state kernel against the point-space oracles.

    No start has a zero entry: the kernel's point values carry transform
    roundoff (~1e-17), which |s|^r would lift to ~1e-9 there.  The second
    model has distinct weights and an operator self-adjoint for them
    (diag(m) L is a multiple of the grid Laplacian), so a weight or
    1/lambda factor spread along the wrong axis shows.
    """

    X = np.array([0.4, -0.3, 0.2, 0.1])
    CLOSE = dict(rtol=1e-13, atol=1e-13)
    SCHEMES = ("tamed_euler", "explicit_euler")

    @staticmethod
    def models():
        weights = np.array([0.1, 0.2, 0.3, 0.4])
        weighted = build_model(weights, (weights[0] * four_mode_model().operator) / weights[:, None],
                               [1.0, 0.8, 0.6, 0.5])
        return four_mode_model(), weighted

    @staticmethod
    def oracle_path(m, c, x, dt, n_steps, scheme, seed, p):
        """drift_eval/apply_drift plus the Q dW increment, step by step,
        on path p's draws."""
        key = np.array([seed, p], dtype=np.uint64)
        xi = np.random.Generator(np.random.Philox(key=key)).standard_normal((n_steps, m.n))
        t = 0.0
        for s in range(n_steps):
            x = apply_drift(x, drift_eval(m, c, x, t), dt, scheme, m.weights)
            x = x + from_spectral(m, m.q_diag * math.sqrt(dt) * xi[s])
            t += dt
        return x

    def assert_plain_run(self, c, n_steps):
        dt, seed = 1e-3, 7
        for m, scheme in itertools.product(self.models(), self.SCHEMES):
            cfg = EnsembleConfig(n_paths=2, dt=dt, T=n_steps * dt, seed=seed, scheme=scheme)
            got = _simulate(m, c, cfg, [self.X]).final[0]
            for p in range(2):
                want = self.oracle_path(m, c, self.X, dt, n_steps, scheme, seed, p)
                assert np.allclose(got[p], want, **self.CLOSE), (scheme, p)

    def test_one_plain_step(self):
        self.assert_plain_run(CoefficientSet(r=0.5, delta=1.3, gamma=-0.4), 1)

    def test_one_plain_step_identity(self):
        self.assert_plain_run(CoefficientSet(r=0.5, gamma=-0.4, nonlinearity="identity"), 1)

    def test_drift_matrix_rebuilt_at_a_cut(self):
        # delta and gamma both change at t = dt, so the second step reads
        # the drift matrix the kernel makes anew there
        dt = 1e-3
        c = CoefficientSet(r=0.5, delta=PiecewiseConstant([0.0, dt], [1.3, 0.6]),
                           gamma=PiecewiseConstant([0.0, dt], [-0.4, 0.7]))
        self.assert_plain_run(c, 2)

    def test_one_step_matches_point_space_formulas(self):
        # one coupled step: drift_eval/apply_drift plus the Q dW increment
        # for both copies, the untamed coupling_drift times dt on the
        # second, zeta, f_diagnostic and the (r+1)-moments for the
        # accumulators
        c = CoefficientSet(r=0.5, delta=1.3, gamma=-0.4)
        x = self.X
        y = np.array([-0.2, 0.1, 0.3, 0.05])
        dt, seed = 1e-3, 7
        for m, scheme in itertools.product(self.models(), self.SCHEMES):
            w = m.weights
            cfg = EnsembleConfig(n_paths=2, dt=dt, T=dt, seed=seed, scheme=scheme)
            res = run_coupled_ensemble(m, c, cfg, x, y)
            sched = res.schedule
            fexp = 2.0 / (c.sigma - 2.0)
            for p in range(2):
                key = np.array([seed, p], dtype=np.uint64)
                xi = np.random.Generator(np.random.Philox(key=key)).standard_normal(4)
                dW = from_spectral(m, m.q_diag * math.sqrt(dt) * xi)
                bx = drift_eval(m, c, x)
                by = drift_eval(m, c, y)
                shift = coupling_drift(m, sched, x, y, 0.0) * dt
                z = zeta(m, sched, x, y, 0.0)
                close = self.CLOSE
                assert np.allclose(res.XT[p], apply_drift(x, bx, dt, scheme, w) + dW, **close)
                assert np.allclose(res.YT[p], apply_drift(y, by, dt, scheme, w) + shift + dW, **close)
                assert np.isclose(res.log_stoch_int[p], np.sum(z * math.sqrt(dt) * xi), **close)
                assert np.isclose(res.zeta_sq_int[p], np.sum(z * z) * dt, **close)
                assert np.isclose(res.f_int[p], f_diagnostic(m, c, x, y) ** fexp * dt, **close)
                # the trapezoid of |.|_{r+1}^{r+1} over the step, per copy
                for start, lp_int, end in ((x, res.lp_int_x, res.XT), (y, res.lp_int_y, res.YT)):
                    ends = [norm_lp(m, v, c.r + 1.0) ** (c.r + 1.0) for v in (start, end[p])]
                    assert np.isclose(lp_int[p], 0.5 * sum(ends) * dt, **close)


class TestRunPair:
    def test_record_count_and_columns(self):
        m = four_mode_model()
        c = CoefficientSet(r=0.5)
        x, y = np.array([0.4, 0.1, 0.0, 0.0]), np.zeros(4)
        every = pair_run(m, c, x, y, 100, seed=4, trace_paths=1, record_every=1)
        assert every.trace.shape == (1, 100, 4)
        sparse = pair_run(m, c, x, y, 100, seed=4, trace_paths=1, record_every=25)
        assert sparse.trace.shape == (1, 4, 4)
        assert np.array_equal(sparse.trace[0], every.trace[0, 24::25])
        assert np.array_equal(every.XT, sparse.XT)
        with pytest.raises(ValueError):
            pair_run(m, c, x, y, 100, seed=4, trace_paths=1, record_every=0)

    def test_records_mirror_state(self):
        m = four_mode_model()
        c = CoefficientSet(r=0.5)
        x, y = np.array([0.4, 0.1, 0.0, 0.0]), np.zeros(4)
        res = pair_run(m, c, x, y, 50, seed=4, n_paths=4, trace_paths=4)
        t_last, dist_last, beta_last, _ = res.trace[3, -1]
        assert t_last == pytest.approx(0.05, rel=1e-12)
        assert dist_last == pytest.approx(float(norm_h(m, res.XT[3] - res.YT[3])), rel=1e-12)
        assert beta_last == pytest.approx(res.schedule.beta(res.schedule.T), rel=1e-9)

    def test_trace_reads_the_step_zeta(self):
        # row s - 1 holds |zeta|^2 at the state after s steps, which a run of
        # s steps under the same schedule ends in.  The pairs meet at steps
        # 7 and 8: the row of the meeting step keeps the zeta taken before
        # the meeting check, and later rows read 0.  The last row is taken
        # after the last step.
        m = four_mode_model()
        c = CoefficientSet(r=0.5, gamma=-0.2)
        x = np.array([0.4, -0.3, 0.2, 0.1])
        y = np.array([-0.2, 0.1, 0.3, 0.05])
        n_steps, tol = 30, 1e-2
        sched = make_schedule(m, c, n_steps * 1e-3, x, y)
        full = flat_run(m, c, sched, x, y, n_steps, seed=21, n_paths=6, couple_tol=tol, trace_paths=6)
        met = np.rint(full.tau / 1e-3).astype(int)
        assert set(met) == {7, 8}
        for s in range(1, n_steps + 1):
            short = flat_run(m, c, sched, x, y, s, seed=21, n_paths=6, couple_tol=tol)
            for p in range(6):
                t, _, _, zeta_sq = full.trace[p, s - 1]
                z = zeta(m, sched, short.final[0, p], short.final[1, p], t)
                want = float(np.sum(z * z)) if s <= met[p] else 0.0
                assert zeta_sq == pytest.approx(want, rel=1e-12, abs=0.0), (s, p)
                assert (zeta_sq > 0.0) == (s <= met[p])


class TestHolderChain:
    def test_pathwise_chain_with_safe_xi(self):
        # xi is set to half the empirical noise-domination constant, so the
        # continuous-time inequality has headroom and the discrete sums obey
        # the chained bound on every path.
        from fastdiffusion import check_noise_domination

        m = four_mode_model()
        probe = CoefficientSet(r=0.5)
        xi_hat = check_noise_domination(m, probe, n_samples=4000, seed=0).xi_estimate
        c = CoefficientSet(r=0.5, xi=0.5 * xi_hat)
        x = np.array([0.4, 0.1, -0.1, 0.0])
        y = np.array([-0.2, 0.05, 0.1, 0.0])
        res = pair_run(m, c, x, y, 250, seed=17, n_paths=20)
        sched = res.schedule
        target = (sched.c**c.sigma * sched.dist0 ** (2 * sched.epsilon)) ** (2.0 / c.sigma)
        bound = res.f_int ** ((c.sigma - 2.0) / c.sigma) * target
        assert np.all(res.zeta_sq_int <= bound * (1.0 + 1e-6))
