"""Nonlinearity, drift, noise streams, and single steps of the ensemble kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdiffusion import (
    CoefficientSet,
    EnsembleConfig,
    NonFiniteState,
    PiecewiseConstant,
    bound_report,
    build_model,
    dirichlet1d_model,
    estimate_ptf,
    to_spectral,
)
from fastdiffusion import montecarlo
from fastdiffusion.montecarlo import _simulate
from point_oracles import drift_eval, psi_eval


def one_mode_model(lam=5.0, q=1.0):
    return build_model([1.0], [[-lam]], [q])


def rate_int(m, c):
    """The log-moment rate integrated over [0, 1]."""
    return bound_report(m, c, 1.0, np.zeros(m.n), np.zeros(m.n)).log_moment_rate_int


class TestCoefficientSet:
    def test_defaults(self):
        c = CoefficientSet(r=0.5)
        assert c.sigma == pytest.approx(8.0 / 3.0, rel=1e-15)
        assert c.eta(0.0) == pytest.approx(1.0)  # delta / (2 r) = 1 / 1
        assert c.gamma(0.0) == 0.0
        assert c.is_time_homogeneous

    def test_r_window(self):
        with pytest.raises(ValueError):
            CoefficientSet(r=0.0)
        with pytest.raises(ValueError):
            CoefficientSet(r=1.0)
        with pytest.raises(ValueError):
            CoefficientSet(r=1.5)

    def test_sigma_floor(self):
        with pytest.raises(ValueError):
            CoefficientSet(r=0.5, sigma=1.0)
        c = CoefficientSet(r=0.5, sigma=4.0)
        assert c.sigma == 4.0

    def test_schedule_promotion(self):
        g = PiecewiseConstant([0.0, 0.5], [0.0, -1.0])
        c = CoefficientSet(r=0.5, gamma=g)
        assert not c.is_time_homogeneous
        assert c.gamma(0.75) == -1.0

    def test_eta_zero_degenerate_edge(self):
        # the rate integrated to T = 1 is the constant rate: q = hs_norm_sq
        m = one_mode_model(lam=1.0)
        c = CoefficientSet(r=0.5, eta=0.0)
        assert rate_int(m, c) == pytest.approx(m.hs_norm_sq, rel=1e-15)

    def test_moment_rate_hand_values(self):
        # r = 1/2: rate = q + 2^5 eta^3 / delta^2, here with q = 1
        m = one_mode_model(lam=1.0)
        c = CoefficientSet(r=0.5, delta=1.0, eta=1.0)
        assert rate_int(m, c) == pytest.approx(33.0, rel=1e-14)
        c2 = CoefficientSet(r=0.5, delta=2.0, eta=1.0)
        assert rate_int(m, c2) == pytest.approx(9.0, rel=1e-14)


class TestPsi:
    def test_hand_values(self):
        c = CoefficientSet(r=0.5, delta=1.0)
        assert psi_eval(c, 4.0) == pytest.approx(2.0, rel=1e-14)
        assert psi_eval(c, -4.0) == pytest.approx(-2.0, rel=1e-14)
        assert psi_eval(c, 0.0) == 0.0

    def test_identity_mode(self):
        c = CoefficientSet(r=0.5, nonlinearity="identity")
        assert psi_eval(c, -3.7) == -3.7

    @given(s=st.floats(-100.0, 100.0))
    @settings(max_examples=300)
    def test_odd_symmetry(self, s):
        c = CoefficientSet(r=0.35, delta=1.7)
        assert psi_eval(c, -s) == -psi_eval(c, s)

    @given(
        s1=st.floats(-10.0, 10.0),
        s2=st.floats(-10.0, 10.0),
        r=st.sampled_from([0.35, 0.5, 0.9]),
        delta=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=500)
    def test_dissipativity(self, s1, s2, r, delta):
        c = CoefficientSet(r=r, delta=delta)
        lhs = 2.0 * (psi_eval(c, s1) - psi_eval(c, s2)) * (s1 - s2)
        big = max(abs(s1), abs(s2))
        rhs = 0.0 if big == 0.0 else delta * (s1 - s2) ** 2 * big ** (r - 1.0)
        assert lhs >= rhs - 1e-12

    @given(s=st.floats(-50.0, 50.0), r=st.sampled_from([0.35, 0.5, 0.9]))
    @settings(max_examples=300)
    def test_growth_bound(self, s, r):
        c = CoefficientSet(r=r, delta=1.3)
        eta = c.eta(0.0)
        assert abs(psi_eval(c, s)) <= eta * (1.0 + abs(s) ** r) + 1e-12


class TestDrift:
    def test_hand_values(self):
        m = one_mode_model(lam=5.0)
        c = CoefficientSet(r=0.5, delta=1.0)
        assert drift_eval(m, c, np.array([0.0]))[0] == 0.0
        assert drift_eval(m, c, np.array([4.0]))[0] == pytest.approx(-10.0, rel=1e-13)
        cg = CoefficientSet(r=0.5, delta=1.0, gamma=-1.0)
        assert drift_eval(m, cg, np.array([4.0]))[0] == pytest.approx(-14.0, rel=1e-13)

    def test_identity_drift(self):
        m = one_mode_model(lam=5.0)
        c = CoefficientSet(r=0.5, gamma=-1.0, nonlinearity="identity")
        assert drift_eval(m, c, np.array([2.0]))[0] == pytest.approx(-12.0, rel=1e-13)

    def test_batched_matches_single(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5, gamma=-0.3)
        X = np.array([[0.5, -0.2, 0.1, 0.0], [1.0, 1.0, -1.0, 2.0]])
        B = drift_eval(m, c, X)
        for row, xrow in zip(B, X):
            assert np.allclose(row, drift_eval(m, c, xrow), atol=1e-14)


def philox_normals(seed, path, shape):
    """The draws of path `path`: a Philox stream keyed by (seed, path)."""
    key = np.array([seed, path], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).standard_normal(shape)


def final_states(model, coeffs, x0, n_steps, dt, seed=0, n_paths=2, scheme="tamed_euler"):
    cfg = EnsembleConfig(n_paths=n_paths, dt=dt, T=n_steps * dt, seed=seed, scheme=scheme)
    return _simulate(model, coeffs, cfg, [x0]).final[0]


def three_mode_model():
    return dirichlet1d_model(3, [1.0, 0.7, 0.4])


class TestRNG:
    def test_keyed_streams_are_reproducible(self):
        m = three_mode_model()
        c = CoefficientSet(r=0.5)
        x0 = np.array([0.2, -0.1, 0.3])
        a = final_states(m, c, x0, 10, 1e-3, seed=3, n_paths=8)
        b = final_states(m, c, x0, 10, 1e-3, seed=3, n_paths=8)
        assert np.array_equal(a, b)

    def test_distinct_paths_distinct_draws(self):
        m = three_mode_model()
        c = CoefficientSet(r=0.5)
        a = final_states(m, c, np.zeros(3), 1, 1e-3, seed=3, n_paths=2)
        assert not np.array_equal(a[0], a[1])

    def test_block_draws_equal_sequential_draws(self, monkeypatch):
        # partition invariance: one block of 10 steps == 10 blocks of one step
        m = three_mode_model()
        c = CoefficientSet(r=0.5, gamma=-0.3)
        x0 = np.array([0.2, -0.1, 0.3])
        block = final_states(m, c, x0, 10, 1e-3, seed=11, n_paths=3)
        monkeypatch.setattr(montecarlo, "TIME_BLOCK", 1)
        seq = final_states(m, c, x0, 10, 1e-3, seed=11, n_paths=3)
        assert np.array_equal(block, seq)

    def test_split_blocks_equal_one_block(self, monkeypatch):
        # blocks of 5, 5 and 2 steps consume path p's stream (seed, p) step
        # by step, one draw per mode: the linear explicit recursion in
        # eigen-coordinates, fed one (12, n) draw, gives the same states
        monkeypatch.setattr(montecarlo, "TIME_BLOCK", 5)
        m = three_mode_model()
        c = CoefficientSet(r=0.5, gamma=-0.3, nonlinearity="identity")
        x0 = np.array([0.2, -0.1, 0.3])
        dt, n_steps = 1e-2, 12
        got = final_states(m, c, x0, n_steps, dt, seed=11, n_paths=3, scheme="explicit_euler")
        for p in range(3):
            xi = philox_normals(11, p, (n_steps, 3))
            coef = to_spectral(m, x0)
            for s in range(n_steps):
                coef = coef + dt * (-m.eigenvalues * coef - 0.3 * coef) + m.q_diag * math.sqrt(dt) * xi[s]
            assert np.allclose(to_spectral(m, got[p]), coef, rtol=1e-12, atol=1e-14)

    def test_step_schedule_switches_at_its_breaks(self):
        # gamma changes at a step time (0.05) and between steps (0.083): the
        # kernel reads it again only there and must follow gamma(t) step by step
        m = three_mode_model()
        gamma = PiecewiseConstant([0.0, 0.05, 0.083], [-0.3, 2.0, -1.0])
        c = CoefficientSet(r=0.5, gamma=gamma, nonlinearity="identity")
        x0 = np.array([0.2, -0.1, 0.3])
        dt, n_steps = 1e-2, 12
        got = final_states(m, c, x0, n_steps, dt, seed=11, n_paths=2, scheme="explicit_euler")
        for p in range(2):
            xi = philox_normals(11, p, (n_steps, 3))
            coef, t = to_spectral(m, x0), 0.0
            for s in range(n_steps):
                coef = coef + dt * (-m.eigenvalues * coef + gamma(t) * coef) + m.q_diag * math.sqrt(dt) * xi[s]
                t += dt
            assert np.allclose(to_spectral(m, got[p]), coef, rtol=1e-12, atol=1e-14)


class TestStepping:
    def test_equilibrium_stays_fixed_without_noise(self):
        # zero-noise test mode: simulate by stripping the increment manually
        m = one_mode_model()
        c = CoefficientSet(r=0.5)
        b = drift_eval(m, c, np.array([0.0]))
        assert np.all(b == 0.0)

    def test_tamed_ou_step_formula(self):
        # identity mode, lambda = 1, gamma = 0: drift b = -x, tamed step is
        # x - dt x / (1 + dt |x|) + noise
        m = one_mode_model(lam=1.0)
        c = CoefficientSet(r=0.5, nonlinearity="identity")
        got = final_states(m, c, np.array([2.0]), 1, 0.01, seed=5)
        for p in range(2):
            noise = 1.0 * math.sqrt(0.01) * philox_normals(5, p, (1, 1))[0, 0]
            want = 2.0 - 0.01 * 2.0 / (1.0 + 0.01 * 2.0) + noise
            assert got[p, 0] == pytest.approx(want, rel=1e-14)

    def test_explicit_euler_step_formula(self):
        m = one_mode_model(lam=1.0)
        c = CoefficientSet(r=0.5, nonlinearity="identity")
        got = final_states(m, c, np.array([2.0]), 1, 0.01, seed=5, scheme="explicit_euler")
        for p in range(2):
            noise = math.sqrt(0.01) * philox_normals(5, p, (1, 1))[0, 0]
            assert got[p, 0] == pytest.approx(2.0 - 0.02 + noise, rel=1e-14)

    def test_determinism_of_full_paths(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5, gamma=-0.2)
        x0 = np.array([0.3, -0.1, 0.2, 0.05])
        a = final_states(m, c, x0, 100, 1e-3, seed=9, n_paths=5)
        b = final_states(m, c, x0, 100, 1e-3, seed=9, n_paths=5)
        assert np.array_equal(a, b)

    def test_blowup_raises(self):
        # explicit Euler with a huge dt on a stiff linear mode diverges
        m = one_mode_model(lam=50.0)
        c = CoefficientSet(r=0.5, nonlinearity="identity")
        cfg = EnsembleConfig(n_paths=2, dt=10.0, T=4000.0, scheme="explicit_euler")
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteState):
            estimate_ptf(m, c, cfg, np.array([1.0]), lambda X: X[:, 0])

    def test_step_config_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n_paths=2, dt=0.0, T=1.0)
        with pytest.raises(ValueError):
            EnsembleConfig(n_paths=2, dt=1e-3, T=1.0, scheme="milstein")
        with pytest.raises(ValueError):
            EnsembleConfig(n_paths=2, dt=1e-3, T=1.0, seed=-1)
