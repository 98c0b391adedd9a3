"""Closed-form constants and the Harnack multiplier."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from constant_route import constant_coefficient_constants
from fastdiffusion import (
    CoefficientSet,
    InvalidP,
    PiecewiseConstant,
    ZeroHorizon,
    bound_report,
    build_model,
    coupling_gain,
    coupling_gain_int,
    coupling_gain_sq_int,
    dirichlet1d_model,
    exp_moment_weight,
    harnack_rhs,
    log_moment_rate,
    log_moment_rate_int,
)
from fastdiffusion import bounds


def unit_noise_model():
    """One mode with lambda = 1 and q = 1, so hs_norm_sq = 1."""
    return build_model([1.0], [[-1.0]], [1.0])


class TestExpMomentWeight:
    def test_hand_value(self):
        m = unit_noise_model()
        c = CoefficientSet(r=0.5, delta=1.0, gamma=0.0)
        assert exp_moment_weight(m, c, 1.0) == pytest.approx(0.5 * math.exp(-3.0), rel=1e-14)

    def test_linear_in_delta(self):
        m = unit_noise_model()
        a = exp_moment_weight(m, CoefficientSet(r=0.5, delta=1.0), 1.0)
        b = exp_moment_weight(m, CoefficientSet(r=0.5, delta=2.0), 1.0)
        assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_short_horizon_limit(self):
        m = unit_noise_model()
        c = CoefficientSet(r=0.5, delta=0.8)
        assert exp_moment_weight(m, c, 1e-14) == pytest.approx(0.4, rel=1e-12)

    def test_inf_delta_over_window(self):
        m = unit_noise_model()
        d = PiecewiseConstant([0.0, 0.5], [2.0, 0.5])
        c = CoefficientSet(r=0.5, delta=d)
        short = exp_moment_weight(m, c, 0.25)
        # window [0, 0.25] sees only delta = 2
        assert short == pytest.approx(0.5 * 2.0 * math.exp(-(2 + 1) * 0.25), rel=1e-13)
        long = exp_moment_weight(m, c, 1.0)
        # window [0, 1] includes the second piece, inf delta = 0.5
        assert long == pytest.approx(0.5 * 0.5 * math.exp(-3.0), rel=1e-13)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ZeroHorizon):
            exp_moment_weight(unit_noise_model(), CoefficientSet(r=0.5), 0.0)


class TestLogMomentRate:
    def test_hand_values(self):
        m = unit_noise_model()
        assert log_moment_rate(m, CoefficientSet(r=0.5, delta=1.0, eta=1.0)) == pytest.approx(
            33.0, rel=1e-14
        )
        assert log_moment_rate(m, CoefficientSet(r=0.5, delta=2.0, eta=1.0)) == pytest.approx(
            9.0, rel=1e-14
        )

    def test_eta_zero_reduces_to_noise_size(self):
        m = unit_noise_model()
        c = CoefficientSet(r=0.5, eta=0.0)
        assert log_moment_rate(m, c) == pytest.approx(m.hs_norm_sq, rel=1e-15)

    def test_integral_of_schedule(self):
        m = unit_noise_model()
        d = PiecewiseConstant([0.0, 0.5], [1.0, 2.0])
        c = CoefficientSet(r=0.5, delta=d, eta=1.0)
        # rate is 33 on [0, 1/2) and 9 afterwards
        assert log_moment_rate_int(m, c, 1.0) == pytest.approx(0.5 * 33 + 0.5 * 9, rel=1e-14)


class TestCouplingGain:
    def test_flat_case(self):
        c = CoefficientSet(r=0.5, delta=1.0, xi=1.0, gamma=0.0)
        assert coupling_gain(c, 0.3) == pytest.approx(1.0, rel=1e-15)
        assert coupling_gain_int(c, 0.7) == pytest.approx(0.7, rel=1e-14)

    def test_fourth_root_amplitude(self):
        c = CoefficientSet(r=0.5, sigma=4.0, delta=16.0, xi=1.0)
        assert coupling_gain(c, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_exponential_decay_integral(self):
        c = CoefficientSet(r=0.5, delta=1.0, xi=1.0, gamma=1.0)
        assert coupling_gain_int(c, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_gamma_to_zero_continuity(self):
        small = CoefficientSet(r=0.5, gamma=1e-9)
        flat = CoefficientSet(r=0.5, gamma=0.0)
        assert coupling_gain_int(small, 1.0) == pytest.approx(
            coupling_gain_int(flat, 1.0), rel=1e-8
        )

    def test_sq_int_quadrature(self):
        gam = PiecewiseConstant([0.0, 0.3], [0.5, -1.0])
        c = CoefficientSet(r=0.5, delta=2.0, xi=0.7, gamma=gam)

        def g(t):
            return coupling_gain(c, t)

        num, _ = quad(lambda t: g(t) ** 2, 0.0, 1.0, points=[0.3], limit=200)
        assert coupling_gain_sq_int(c, 1.0) == pytest.approx(num, rel=1e-9)


class TestHarnackRhs:
    def test_constant_case_hand_value(self):
        m = unit_noise_model()
        c = CoefficientSet(r=0.5, delta=1.0, eta=1.0, xi=1.0, gamma=0.0)
        x = np.zeros(1)
        got = harnack_rhs(m, c, 1.0, 2.0, x, x)
        want = math.exp(0.25 * (66.0 + 0.5 * math.exp(-3.0)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_equal_points_drop_distance_terms(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5, gamma=-0.2)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        t1, t2, t3 = bound_report(m, c, 1.0, x, x, 3.0).harnack_terms
        assert t2 == 0.0 and t3 == 0.0
        lam = exp_moment_weight(m, c, 1.0)
        th = log_moment_rate_int(m, c, 1.0)
        from fastdiffusion import norm_h

        nx = float(norm_h(m, x))
        assert t1 == pytest.approx(0.5 * (2 * th + lam + 2 * nx**2), rel=1e-13)

    def test_monotone_in_distance(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        step_dir = np.array([0.1, 0.0, -0.05, 0.02])
        vals = [harnack_rhs(m, c, 1.0, 2.0, x, x + s * step_dir) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_y_to_x_continuity(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        h = np.array([1.0, -1.0, 0.5, 0.25])
        at_x = harnack_rhs(m, c, 1.0, 2.0, x, x)
        near = harnack_rhs(m, c, 1.0, 2.0, x, x + 1e-9 * h)
        assert near == pytest.approx(at_x, rel=1e-6)

    def test_p_to_one_divergence(self):
        # the sigma-power term carries (p-1)^{1-sigma}, so distinct points
        # blow the bound up as p decreases to 1
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        y = np.zeros(4)
        t_at = {}
        for p in (1.5, 1.1, 1.01):
            t1, t2, t3 = bound_report(m, c, 1.0, x, y, p).harnack_terms
            t_at[p] = (t1, t2, t3)
        assert t_at[1.01][0] < t_at[1.1][0] < t_at[1.5][0]  # first terms shrink
        assert t_at[1.01][2] > t_at[1.1][2] > t_at[1.5][2]  # power term diverges

    def test_bad_arguments(self):
        m = unit_noise_model()
        c = CoefficientSet(r=0.5)
        with pytest.raises(InvalidP):
            harnack_rhs(m, c, 1.0, 1.0, np.zeros(1), np.zeros(1))
        with pytest.raises(ZeroHorizon):
            harnack_rhs(m, c, 0.0, 2.0, np.zeros(1), np.zeros(1))


class TestConstantCoefficientRoute:
    def test_agreement_with_schedule_route(self):
        # the direct time-homogeneous closed forms must match the general
        # schedule-integral route exactly
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        for gamma in (0.0, -0.7):
            c = CoefficientSet(r=0.5, delta=1.3, xi=0.9, gamma=gamma)
            T = 0.8
            d = constant_coefficient_constants(m, c, T)
            assert d["exp_moment_weight"] == pytest.approx(
                exp_moment_weight(m, c, T), rel=1e-12
            )
            assert d["log_moment_rate"] * T == pytest.approx(
                log_moment_rate_int(m, c, T), rel=1e-12
            )
            assert d["coupling_gain_int"] == pytest.approx(
                coupling_gain_int(c, T), rel=1e-12
            )
            assert d["coupling_gain_sq_int"] == pytest.approx(
                coupling_gain_sq_int(c, T), rel=1e-12
            )


class TestBoundReport:
    def test_report_consistency(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5, gamma=-0.2)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        y = np.zeros(4)
        rep = bound_report(m, c, 1.0, x, y, p=2.0)
        assert rep.harnack_rhs == pytest.approx(math.exp(sum(rep.harnack_terms)), rel=1e-15)
        assert rep.harnack_rhs == pytest.approx(harnack_rhs(m, c, 1.0, 2.0, x, y), rel=1e-15)
        d = rep.as_dict()
        assert d["epsilon"] == pytest.approx(rep.sigma / (rep.sigma + 2.0), rel=1e-15)
        assert "harnack_rhs" in d and "harnack_terms" in d

    def test_report_without_p(self):
        m = unit_noise_model()
        rep = bound_report(m, CoefficientSet(r=0.5), 1.0, np.zeros(1), np.zeros(1))
        assert rep.p is None and rep.harnack_rhs is None
        assert "harnack_rhs" not in rep.as_dict()

    def test_each_constant_once(self, monkeypatch):
        # one query evaluates each constant once and each H norm once
        calls = {}

        def spy(name):
            fn = getattr(bounds, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(bounds, name, counted)

        names = ("exp_moment_weight", "log_moment_rate_int", "coupling_gain_int",
                 "coupling_gain_sq_int", "norm_h")
        for name in names:
            spy(name)
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        x = np.array([0.3, -0.1, 0.2, 0.0])
        rep = bound_report(m, CoefficientSet(r=0.5, gamma=-0.2), 1.0, x, np.zeros(4), p=2.0)
        assert rep.harnack_rhs > 1.0
        assert calls == {name: 1 for name in names[:4]} | {"norm_h": 3}
