"""Sufficient-condition calculus: windows, thresholds, and the sampled checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdiffusion import (
    AsymptoticSpec,
    CoefficientSet,
    build_model,
    check_embedding_constant,
    check_fractional_power,
    check_noise_domination,
    check_noise_sandwich,
    check_power_spectrum_window,
    check_spectral_growth,
    dirichlet1d_model,
    from_spectral,
    hs_check,
    norm_h,
    norm_lp,
)
from fastdiffusion import conditions
from fastdiffusion.conditions import _domination_ratio, _mixture_samples


def two_mode_model():
    return build_model([0.5, 0.5], [[-2.0, 1.0], [1.0, -2.0]], [1.0, 2.0])


def loop_mixture_samples(model, n_samples, seed):
    """Reference sampler: one state at a time, transformed and normalized
    on its own."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    n = model.n
    out = np.empty((n_samples, n))
    for j in range(n_samples):
        kind = j % 3
        if kind == 0:
            x = model.eigenfunctions[j // 3 % n]
        elif kind == 1:
            x = from_spectral(model, rng.standard_normal(n))
        else:
            x = np.zeros(n)
            x[rng.integers(n)] = rng.choice([-1.0, 1.0]) * (0.5 + rng.random())
        out[j] = x / norm_h(model, x)
    return out


class TestMixtureSamples:
    @pytest.mark.parametrize("n", [1, 2, 4, 9, 16])
    def test_bit_identical_to_loop_sampler(self, n):
        m = dirichlet1d_model(n, np.arange(1, n + 1, dtype=float) ** -0.5)
        for seed in (0, 3, 11):
            for n_samples in (1, 2, 3, 7, 2000):
                got = _mixture_samples(m, n_samples, seed)
                want = loop_mixture_samples(m, n_samples, seed)
                assert np.array_equal(got, want), (n, seed, n_samples)

    def test_sample_is_read_only(self):
        xs = _mixture_samples(two_mode_model(), 10, 0)
        assert not xs.flags.writeable
        with pytest.raises(ValueError):
            xs[0, 0] = 1.0

    def test_same_arguments_share_one_sample(self):
        m = two_mode_model()
        assert _mixture_samples(m, 10, 0) is _mixture_samples(m, 10, 0)

    def test_other_seed_size_or_model_draws_anew(self):
        m = two_mode_model()
        for args in ((m, 10, 1), (m, 11, 0), (two_mode_model(), 10, 0)):
            first = _mixture_samples(m, 10, 0)
            other = _mixture_samples(*args)
            assert other is not first
            assert np.array_equal(other, loop_mixture_samples(*args))


class TestHsCheck:
    def test_finite_model_reports_sum(self):
        rep = hs_check(two_mode_model())
        assert rep.holds
        assert rep.numbers["hs_norm_sq"] == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_series_converges(self):
        rep = hs_check(AsymptoticSpec(theta=1.0, rho=2.0, alpha=2.0))
        assert rep.holds
        assert rep.numbers["series_exponent"] == pytest.approx(-2.0, rel=1e-15)

    def test_series_boundary_diverges(self):
        # 2 theta - alpha rho = -1 exactly: the harmonic edge diverges
        rep = hs_check(AsymptoticSpec(theta=1.0, rho=2.0, alpha=1.5))
        assert not rep.holds
        assert rep.numbers["series_exponent"] == pytest.approx(-1.0, rel=1e-15)
        assert "diverges" in rep.detail


class TestSpectralGrowth:
    def passing_spec(self):
        return AsymptoticSpec(theta=0.48, rho=2.0, alpha=1.0, d=0.5, eps=0.2, r=1.0 / 3.0, sigma=3.0)

    def test_passing_configuration(self):
        rep = check_spectral_growth(self.passing_spec())
        assert rep.holds
        assert all(rep.clauses.values())
        # d_max = 2 eps (1+r)/(1-r) = 2 * 0.2 * (4/3)/(2/3) = 0.8
        assert rep.numbers["d_max"] == pytest.approx(0.8, rel=1e-14)
        # growth threshold = rho (sigma + 2 eps - 2)/(2 sigma) = 2 * 1.4 / 6
        assert rep.numbers["growth_exponent"] == pytest.approx(1.4 / 3.0, rel=1e-14)

    def test_eps_one_fails(self):
        spec = AsymptoticSpec(theta=0.48, rho=2.0, alpha=1.0, d=0.5, eps=1.0, r=1.0 / 3.0, sigma=3.0)
        rep = check_spectral_growth(spec)
        assert not rep.holds
        assert not rep.clauses["eps_in_0_1"]
        assert "eps_in_0_1" in rep.detail

    def test_dimension_window_binds(self):
        spec = AsymptoticSpec(theta=0.48, rho=2.0, alpha=1.0, d=1.0, eps=0.2, r=1.0 / 3.0, sigma=3.0)
        rep = check_spectral_growth(spec)
        assert not rep.holds
        failing = [k for k, v in rep.clauses.items() if not v]
        assert failing == ["dimension_window"]

    def test_d_max_hand_value(self):
        spec = AsymptoticSpec(theta=0.7, rho=2.0, d=1.0, eps=0.5, r=0.5, sigma=8.0 / 3.0)
        rep = check_spectral_growth(spec)
        # 2 * (1/2) * (3/2)/(1/2) = 3 and 2 * (8/3 + 1 - 2)/(16/3) = 5/8
        assert rep.numbers["d_max"] == pytest.approx(3.0, rel=1e-14)
        assert rep.numbers["growth_exponent"] == pytest.approx(5.0 / 8.0, rel=1e-14)


class TestNoiseSandwich:
    def test_window_endpoints(self):
        rep = check_noise_sandwich(r=0.5, eps=0.25, alpha_decay=0.9)
        assert rep.numbers["eps_lo"] == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert rep.numbers["eps_hi"] == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert rep.numbers["lower_exponent"] == pytest.approx(7.0 / 8.0, rel=1e-15)
        assert rep.holds

    def test_decay_just_below_lower_exponent_fails(self):
        rep = check_noise_sandwich(r=0.5, eps=0.25, alpha_decay=0.8)
        assert not rep.holds
        assert not rep.clauses["sandwich_compatible"]

    def test_r_window(self):
        rep = check_noise_sandwich(r=0.25, eps=0.25, alpha_decay=0.9)
        assert not rep.clauses["r_in_window"]

    def test_eps_window(self):
        rep = check_noise_sandwich(r=0.5, eps=0.4, alpha_decay=0.9)
        assert not rep.clauses["eps_in_window"]

    def test_theta_inside_sandwich(self):
        good = check_noise_sandwich(r=0.5, eps=0.25, alpha_decay=0.9, theta=0.44)
        assert good.clauses["q_growth_in_sandwich"]
        bad = check_noise_sandwich(r=0.5, eps=0.25, alpha_decay=0.9, theta=0.3)
        assert not bad.clauses["q_growth_in_sandwich"]
        assert bad.numbers["q_sq_exponent"] == pytest.approx(0.6, rel=1e-15)

    def test_model_sandwich_checked_pointwise(self):
        m = dirichlet1d_model(2, [1.0, 2.0**0.44])
        rep = check_noise_sandwich(r=0.5, eps=0.25, alpha_decay=0.9, model=m)
        assert rep.clauses["finite_sandwich"]
        # squeeze the upper envelope below q_2^2 = 2^0.88
        tight = check_noise_sandwich(r=0.5, eps=0.25, alpha_decay=0.9, c2=0.9, model=m)
        assert not tight.clauses["finite_sandwich"]


class TestPowerSpectrumWindow:
    def base(self, theta, alpha=None, d=1.0):
        return AsymptoticSpec(
            theta=theta, alpha=alpha, d=d, eps=4.0 / 7.0, r=0.5, sigma=8.0 / 3.0
        )

    def test_threshold_hand_value(self):
        # s = 8/3 + 8/7 - 2 = 38/21; branch one s/(4(1-eps)) = 19/18
        # dominates branch two 19/96
        rep = check_power_spectrum_window(self.base(theta=1.2, alpha=1.75))
        assert rep.numbers["theta_min"] == pytest.approx(19.0 / 18.0, rel=1e-14)
        assert rep.holds

    def test_alpha_window_values(self):
        rep = check_power_spectrum_window(self.base(theta=1.2, alpha=1.75))
        assert rep.numbers["alpha_lo"] == pytest.approx(1.7, rel=1e-14)
        s = 8.0 / 3.0 + 2.0 * (4.0 / 7.0) - 2.0
        assert rep.numbers["alpha_hi"] == pytest.approx((8.0 / 3.0) * 1.2 / s, rel=1e-14)

    def test_window_is_half_open(self):
        at_lo = check_power_spectrum_window(self.base(theta=1.2, alpha=1.7))
        assert not at_lo.clauses["alpha_in_window"]
        hi = check_power_spectrum_window(self.base(theta=1.2)).numbers["alpha_hi"]
        at_hi = check_power_spectrum_window(self.base(theta=1.2, alpha=hi))
        assert at_hi.clauses["alpha_in_window"]
        above = check_power_spectrum_window(self.base(theta=1.2, alpha=hi * (1 + 1e-12)))
        assert not above.clauses["alpha_in_window"]

    def test_below_threshold_empties_window(self):
        rep = check_power_spectrum_window(self.base(theta=1.0))
        assert not rep.holds
        assert not rep.clauses["theta_above_threshold"]
        assert not rep.clauses["alpha_window_nonempty"]
        assert "theta_above_threshold" in rep.detail

    def test_window_scales_with_dimension(self):
        one = check_power_spectrum_window(self.base(theta=1.2, d=1.0))
        three = check_power_spectrum_window(self.base(theta=1.2, d=3.0))
        assert three.numbers["alpha_lo"] == pytest.approx(3 * one.numbers["alpha_lo"], rel=1e-14)
        assert three.numbers["alpha_hi"] == pytest.approx(3 * one.numbers["alpha_hi"], rel=1e-14)


class TestFractionalPower:
    def test_hand_thresholds(self):
        spec = AsymptoticSpec(
            theta=1.0, rho=2.0, alpha=2.0, d=0.5, eps=0.25, r=0.5, sigma=8.0 / 3.0
        )
        rep = check_fractional_power(spec)
        assert rep.holds
        # alpha_min = d(1-r)/(2 eps (1+r)) = 0.5*0.5/(0.5*1.5) = 1/3
        assert rep.numbers["alpha_min"] == pytest.approx(1.0 / 3.0, rel=1e-14)
        # growth threshold = alpha rho (sigma + 2 eps - 2)/(2 sigma) = 7/8
        assert rep.numbers["growth_exponent"] == pytest.approx(7.0 / 8.0, rel=1e-14)
        assert rep.numbers["hs_exponent"] == pytest.approx(-2.0, rel=1e-15)

    def test_growth_clause_binds(self):
        spec = AsymptoticSpec(
            theta=0.8, rho=2.0, alpha=2.0, d=0.5, eps=0.25, r=0.5, sigma=8.0 / 3.0
        )
        rep = check_fractional_power(spec)
        assert not rep.holds
        failing = [k for k, v in rep.clauses.items() if not v]
        assert failing == ["noise_growth"]

    def test_series_clause_matches_hs_check(self):
        spec = AsymptoticSpec(
            theta=1.4, rho=2.0, alpha=2.0, d=0.5, eps=0.25, r=0.5, sigma=8.0 / 3.0
        )
        rep = check_fractional_power(spec)
        assert rep.clauses["hs_finite"] == hs_check(spec).holds


class TestDegenerateEps:
    """A threshold whose denominator vanishes is null and its clauses fail,
    as spectral_growth's eps_in_0_1 fails at eps = 0."""

    @pytest.mark.parametrize("check, eps, sigma, null, failing", [
        (check_fractional_power, 0.0, 8.0 / 3.0, ["alpha_min"], ["alpha_above_dimension"]),
        (check_power_spectrum_window, 0.0, 8.0 / 3.0, ["theta_min", "alpha_lo"],
         ["theta_above_threshold", "alpha_window_nonempty", "alpha_in_window"]),
        (check_power_spectrum_window, 1.0, 8.0 / 3.0, ["theta_min"], ["theta_above_threshold"]),
        # sigma + 2 eps - 2 = 0
        (check_power_spectrum_window, 0.5, 1.0, ["alpha_hi"],
         ["alpha_window_nonempty", "alpha_in_window"]),
    ])
    def test_null_threshold_fails_its_clauses(self, check, eps, sigma, null, failing):
        spec = AsymptoticSpec(theta=1.4, alpha=2.0, d=2.0, eps=eps, r=0.5, sigma=sigma)
        rep = check(spec)
        assert not rep.holds
        assert [k for k, v in rep.numbers.items() if v is None] == null
        for name in failing:
            assert rep.clauses[name] is False and name in rep.detail


class TestNoiseDomination:
    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).filter(
            lambda v: abs(v[0]) + abs(v[1]) > 1e-3
        ),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_ratio_scale_invariant(self, coords, scale):
        m = two_mode_model()
        c = CoefficientSet(r=0.5)
        x = np.array(coords)
        a = _domination_ratio(m, c, x)
        b = _domination_ratio(m, c, scale * x)
        assert b == pytest.approx(a, rel=1e-10)

    def test_single_mode_reduction(self):
        m = two_mode_model()
        c = CoefficientSet(r=0.5)
        sigma = c.sigma
        for i in range(m.n):
            e = m.eigenfunctions[i]
            lam = m.eigenvalues[i]
            q = m.q_diag[i]
            want = float(norm_lp(m, e, 1.5)) ** 2 * lam ** (-(sigma - 2.0) / 2.0) * q**sigma
            assert _domination_ratio(m, c, e) == pytest.approx(want, rel=1e-12)

    def test_estimate_positive_and_witness_recorded(self):
        m = two_mode_model()
        rep = check_noise_domination(m, CoefficientSet(r=0.5), n_samples=10_000, seed=3)
        assert rep.xi_estimate > 0.0
        assert rep.witness is not None
        assert norm_h(m, rep.witness) == pytest.approx(1.0, rel=1e-12)
        ratio_at_witness = _domination_ratio(m, CoefficientSet(r=0.5), rep.witness)
        assert ratio_at_witness == pytest.approx(rep.xi_estimate, rel=1e-12)

    def test_holds_compares_configured_xi(self):
        m = two_mode_model()
        est = check_noise_domination(m, CoefficientSet(r=0.5), n_samples=2000, seed=0).xi_estimate
        ok = check_noise_domination(m, CoefficientSet(r=0.5, xi=0.5 * est), n_samples=2000, seed=0)
        assert ok.holds
        bad = check_noise_domination(m, CoefficientSet(r=0.5, xi=2.0 * est), n_samples=2000, seed=0)
        assert not bad.holds
        assert "too large" in bad.detail

    def test_deterministic_given_seed(self):
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5)
        a = check_noise_domination(m, c, n_samples=500, seed=11)
        conditions._last_sample = None  # draw the second sample afresh
        b = check_noise_domination(m, c, n_samples=500, seed=11)
        assert a.xi_estimate == b.xi_estimate
        assert np.array_equal(a.witness, b.witness)


class TestEmbeddingConstant:
    def test_constant_bounds_sampled_ratios(self):
        m = two_mode_model()
        c = CoefficientSet(r=0.5)
        rep = check_embedding_constant(m, c, n_samples=3000, seed=5)
        assert rep.holds
        best = rep.numbers["embedding_constant"]
        assert best > 0.0
        # the witness is H-normalized, so its ratio is 1/|w|_{r+1}
        w = rep.witness
        assert norm_h(m, w) == pytest.approx(1.0, rel=1e-12)
        assert best == pytest.approx(1.0 / float(norm_lp(m, w, 1.5)), rel=1e-12)

    def test_mode_vector_ratio_dominated(self):
        m = two_mode_model()
        c = CoefficientSet(r=0.5)
        rep = check_embedding_constant(m, c, n_samples=3000, seed=5)
        for i in range(m.n):
            e = m.eigenfunctions[i] / float(norm_h(m, m.eigenfunctions[i]))
            ratio = float(norm_h(m, e)) / float(norm_lp(m, e, 1.5))
            assert ratio <= rep.numbers["embedding_constant"] * (1 + 1e-12)

    def test_deterministic_given_seed(self):
        m = two_mode_model()
        c = CoefficientSet(r=0.5)
        a = check_embedding_constant(m, c, n_samples=400, seed=2)
        conditions._last_sample = None  # draw the second sample afresh
        b = check_embedding_constant(m, c, n_samples=400, seed=2)
        assert a.numbers == b.numbers
