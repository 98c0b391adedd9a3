"""Closed-form constants and the Harnack multiplier, read off bound_report."""

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
    dirichlet1d_model,
    norm_h,
)
from fastdiffusion import bounds


def unit_noise_model():
    """One mode with lambda = 1 and q = 1, so hs_norm_sq = 1."""
    return build_model([1.0], [[-1.0]], [1.0])


def constants(c, T, m=None):
    """The report at horizon T from x = y = 0; at constant coefficients a
    rate or gain integrated to T = 1 is its pointwise value."""
    m = unit_noise_model() if m is None else m
    return bound_report(m, c, T, np.zeros(m.n), np.zeros(m.n))


def rhs(m, c, T, p, x, y):
    return bound_report(m, c, T, x, y, p).harnack_rhs


class TestExpMomentWeight:
    def test_hand_value(self):
        m = unit_noise_model()
        c = CoefficientSet(r=0.5, delta=1.0, gamma=0.0)
        assert constants(c, 1.0, m).exp_moment_weight == pytest.approx(0.5 * math.exp(-3.0), rel=1e-14)

    def test_linear_in_delta(self):
        m = unit_noise_model()
        a = constants(CoefficientSet(r=0.5, delta=1.0), 1.0, m).exp_moment_weight
        b = constants(CoefficientSet(r=0.5, delta=2.0), 1.0, m).exp_moment_weight
        assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_short_horizon_limit(self):
        m = unit_noise_model()
        c = CoefficientSet(r=0.5, delta=0.8)
        assert constants(c, 1e-14, m).exp_moment_weight == pytest.approx(0.4, rel=1e-12)

    def test_inf_delta_over_window(self):
        m = unit_noise_model()
        d = PiecewiseConstant([0.0, 0.5], [2.0, 0.5])
        c = CoefficientSet(r=0.5, delta=d)
        short = constants(c, 0.25, m).exp_moment_weight
        # window [0, 0.25] sees only delta = 2
        assert short == pytest.approx(0.5 * 2.0 * math.exp(-(2 + 1) * 0.25), rel=1e-13)
        long = constants(c, 1.0, m).exp_moment_weight
        # window [0, 1] includes the second piece, inf delta = 0.5
        assert long == pytest.approx(0.5 * 0.5 * math.exp(-3.0), rel=1e-13)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ZeroHorizon):
            constants(CoefficientSet(r=0.5), 0.0)


class TestLogMomentRate:
    def test_hand_values(self):
        a = constants(CoefficientSet(r=0.5, delta=1.0, eta=1.0), 1.0)
        b = constants(CoefficientSet(r=0.5, delta=2.0, eta=1.0), 1.0)
        assert a.log_moment_rate_int == pytest.approx(33.0, rel=1e-14)
        assert b.log_moment_rate_int == pytest.approx(9.0, rel=1e-14)

    def test_eta_zero_reduces_to_noise_size(self):
        m = unit_noise_model()
        c = CoefficientSet(r=0.5, eta=0.0)
        assert constants(c, 1.0, m).log_moment_rate_int == pytest.approx(m.hs_norm_sq, rel=1e-15)

    def test_integral_of_schedule(self):
        m = unit_noise_model()
        d = PiecewiseConstant([0.0, 0.5], [1.0, 2.0])
        c = CoefficientSet(r=0.5, delta=d, eta=1.0)
        # rate is 33 on [0, 1/2) and 9 afterwards
        assert constants(c, 1.0, m).log_moment_rate_int == pytest.approx(0.5 * 33 + 0.5 * 9, rel=1e-14)


class TestCouplingGain:
    def test_flat_case(self):
        c = CoefficientSet(r=0.5, delta=1.0, xi=1.0, gamma=0.0)
        assert constants(c, 1.0).coupling_gain_int == pytest.approx(1.0, rel=1e-15)
        assert constants(c, 0.7).coupling_gain_int == pytest.approx(0.7, rel=1e-14)

    def test_fourth_root_amplitude(self):
        c = CoefficientSet(r=0.5, sigma=4.0, delta=16.0, xi=1.0)
        assert constants(c, 1.0).coupling_gain_int == pytest.approx(2.0, rel=1e-14)

    def test_exponential_decay_integral(self):
        c = CoefficientSet(r=0.5, delta=1.0, xi=1.0, gamma=1.0)
        assert constants(c, 1.0).coupling_gain_int == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)

    def test_gamma_to_zero_continuity(self):
        small = CoefficientSet(r=0.5, gamma=1e-9)
        flat = CoefficientSet(r=0.5, gamma=0.0)
        assert constants(small, 1.0).coupling_gain_int == pytest.approx(
            constants(flat, 1.0).coupling_gain_int, rel=1e-8
        )

    def test_sq_int_quadrature(self):
        gam = PiecewiseConstant([0.0, 0.3], [0.5, -1.0])
        c = CoefficientSet(r=0.5, delta=2.0, xi=0.7, gamma=gam)

        def g(t):
            # the gain (delta_t xi_t)^(1/sigma) exp(-Gamma_t)
            return (2.0 * 0.7) ** (1.0 / c.sigma) * math.exp(-gam.integral(t))

        num, _ = quad(lambda t: g(t) ** 2, 0.0, 1.0, points=[0.3], limit=200)
        assert constants(c, 1.0).coupling_gain_sq_int == pytest.approx(num, rel=1e-9)


class TestHarnackRhs:
    def test_constant_case_hand_value(self):
        m = unit_noise_model()
        c = CoefficientSet(r=0.5, delta=1.0, eta=1.0, xi=1.0, gamma=0.0)
        x = np.zeros(1)
        got = rhs(m, c, 1.0, 2.0, x, x)
        want = math.exp(0.25 * (66.0 + 0.5 * math.exp(-3.0)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_equal_points_drop_distance_terms(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5, gamma=-0.2)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        rep = bound_report(m, c, 1.0, x, x, 3.0)
        t1, t2, t3 = rep.harnack_terms
        assert t2 == 0.0 and t3 == 0.0
        lam = rep.exp_moment_weight
        th = rep.log_moment_rate_int
        nx = float(norm_h(m, x))
        assert t1 == pytest.approx(0.5 * (2 * th + lam + 2 * nx**2), rel=1e-13)

    def test_monotone_in_distance(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        step_dir = np.array([0.1, 0.0, -0.05, 0.02])
        vals = [rhs(m, c, 1.0, 2.0, x, x + s * step_dir) for s in (0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_y_to_x_continuity(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        h = np.array([1.0, -1.0, 0.5, 0.25])
        at_x = rhs(m, c, 1.0, 2.0, x, x)
        near = rhs(m, c, 1.0, 2.0, x, x + 1e-9 * h)
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
            rhs(m, c, 1.0, 1.0, np.zeros(1), np.zeros(1))
        with pytest.raises(ZeroHorizon):
            rhs(m, c, 0.0, 2.0, np.zeros(1), np.zeros(1))


class TestConstantCoefficientRoute:
    def test_agreement_with_schedule_route(self):
        # the direct time-homogeneous closed forms must match the general
        # schedule-integral route exactly
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        for gamma in (0.0, -0.7):
            c = CoefficientSet(r=0.5, delta=1.3, xi=0.9, gamma=gamma)
            T = 0.8
            d = constant_coefficient_constants(m, c, T)
            rep = constants(c, T, m)
            assert d["exp_moment_weight"] == pytest.approx(rep.exp_moment_weight, rel=1e-12)
            assert d["log_moment_rate"] * T == pytest.approx(rep.log_moment_rate_int, rel=1e-12)
            assert d["coupling_gain_int"] == pytest.approx(rep.coupling_gain_int, rel=1e-12)
            assert d["coupling_gain_sq_int"] == pytest.approx(rep.coupling_gain_sq_int, rel=1e-12)


class TestBoundReport:
    def test_report_consistency(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5, gamma=-0.2)
        x = np.array([0.3, -0.1, 0.2, 0.0])
        y = np.zeros(4)
        rep = bound_report(m, c, 1.0, x, y, p=2.0)
        assert rep.harnack_rhs == pytest.approx(math.exp(sum(rep.harnack_terms)), rel=1e-15)
        d = rep.as_dict()
        assert d["epsilon"] == pytest.approx(rep.sigma / (rep.sigma + 2.0), rel=1e-15)
        assert "harnack_rhs" in d and "harnack_terms" in d

    def test_report_without_p(self):
        m = unit_noise_model()
        rep = bound_report(m, CoefficientSet(r=0.5), 1.0, np.zeros(1), np.zeros(1))
        assert rep.p is None and rep.harnack_rhs is None
        assert "harnack_rhs" not in rep.as_dict()

    def test_each_constant_once(self, monkeypatch):
        # one query evaluates each constant once and each H norm once: the
        # two gain integrals are the two weighted_exp_integral calls
        calls = {}

        def spy(name):
            fn = getattr(bounds, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(bounds, name, counted)

        names = ("weighted_exp_integral", "norm_h")
        for name in names:
            spy(name)
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        x = np.array([0.3, -0.1, 0.2, 0.0])
        rep = bound_report(m, CoefficientSet(r=0.5, gamma=-0.2), 1.0, x, np.zeros(4), p=2.0)
        assert rep.harnack_rhs > 1.0
        assert calls == {"weighted_exp_integral": 2, "norm_h": 3}

    @pytest.mark.parametrize("sigma", [8.0 / 3.0, 4.0])
    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_second_term_is_the_attraction_cost(self, p, sigma):
        # harnack_terms[1] = (p - 1)/4 attraction_cost_bound, which is the
        # W07 attraction term (p - 1)(sigma + 2)^2 gsq dist^2 / (4 (sigma gi)^2)
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        gam = PiecewiseConstant([0.0, 0.5], [-0.5, 1.0])
        c = CoefficientSet(r=0.5, sigma=sigma, delta=2.0, gamma=gam, xi=0.7)
        rep = bound_report(m, c, 1.0, np.array([0.4, 0.1, -0.3, 0.0]), np.array([-0.1, 0.0, 0.2, 0.1]), p)
        cost = rep.attraction_cost_bound
        assert rep.harnack_terms[1] == pytest.approx((p - 1.0) / 4.0 * cost, rel=1e-14)
        w07 = ((p - 1.0) * (sigma + 2.0) ** 2 * rep.coupling_gain_sq_int * rep.dist_h**2
               / (4.0 * (sigma * rep.coupling_gain_int) ** 2))
        assert rep.harnack_terms[1] == pytest.approx(w07, rel=1e-14)
        assert "attraction_cost_bound" not in rep.as_dict()

    def test_attraction_cost_past_float_range_is_inf(self):
        # dist_h^2 coupling_gain_sq_int leaves float range: inf, not an error
        c = CoefficientSet(r=0.5, gamma=-350.0)
        rep = bound_report(unit_noise_model(), c, 1.0, np.array([1e150]), np.zeros(1))
        assert math.isfinite(rep.coupling_gain_sq_int) and rep.coupling_gain_sq_int > 1e300
        assert rep.attraction_cost_bound == math.inf
