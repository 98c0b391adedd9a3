"""Sufficient-condition calculus: windows, thresholds, and the sampled checks."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdiffusion import (
    CoefficientSet,
    InvalidSampleCount,
    build_model,
    check_embedding_constant,
    check_fractional_power,
    check_noise_domination,
    check_noise_sandwich,
    check_power_spectrum_window,
    check_spectral_growth,
    dirichlet1d_model,
    hs_check,
    norm_h,
    norm_lp,
)
from fastdiffusion import conditions, spectral
from fastdiffusion.cli import main
from fastdiffusion.conditions import _mixture_samples
from fastdiffusion.spectral import _row_dot
from point_oracles import domination_ratio


def two_mode_model():
    return build_model([0.5, 0.5], [[-2.0, 1.0], [1.0, -2.0]], [1.0, 2.0])


def one_panel_state(model, C0, X0, p):
    """One state built as the sampler builds a block of many: its
    coefficients C0 or point values X0 in column 0 of a one-panel block,
    completed by the same two matmuls and normalized by the same row dot.
    Returns its row and its |x|_H, |x|_Q and |x|_p, each read off the block
    by the same row dot as the sampler's."""
    n, width = model.n, spectral.PANEL
    C, X = np.zeros((n, width)), np.zeros((n, width))
    C[:, 0], X[:, 0] = C0, X0
    analysed = model._analysis @ X
    X += np.ascontiguousarray(model.eigenfunctions.T) @ C
    C += analysed

    def spread(v):
        return np.repeat(v[:, None], width, axis=1)

    inv_lam = spread(1.0 / model.eigenvalues)
    nh = np.sqrt(_row_dot(C, C, inv_lam))[0]
    C[:, 0] /= nh
    X[:, 0] /= nh
    lp = _row_dot(np.abs(X) ** p, spread(model.weights)) ** (1.0 / p)
    return (X[:, 0].copy(), np.sqrt(_row_dot(C, C, inv_lam))[0],
            np.sqrt(_row_dot(C, C, spread(1.0 / model.q_diag**2)))[0], lp[0])


def loop_sample(model, n_samples, seed, p=1.5):
    """Reference sampler: the four streams drawn one value (or one
    Gaussian row) per call, in the sampler's order, then one state at a
    time built, normalized and measured on its own.  Returns the rows and
    the arrays of |x|_H, |x|_Q and |x|_p."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    n = model.n
    n_gauss = len(range(1, n_samples, 3))
    n_point = len(range(2, n_samples, 3))
    gauss = [rng.standard_normal(n) for _ in range(n_gauss)]
    signs = [rng.choice([-1.0, 1.0]) for _ in range(n_point)]
    points = [rng.integers(n) for _ in range(n_point)]
    sizes = [rng.random() for _ in range(n_point)]
    states = []
    for j in range(n_samples):
        C0, X0 = np.zeros(n), np.zeros(n)
        kind = j % 3
        if kind == 0:
            C0[j // 3 % n] = 1.0
        elif kind == 1:
            C0 = gauss[j // 3]
        else:
            X0[points[j // 3]] = signs[j // 3] * (0.5 + sizes[j // 3])
        states.append(one_panel_state(model, C0, X0, p))
    rows, nh, nq, lp = zip(*states)
    return np.array(rows), np.array(nh), np.array(nq), np.array(lp)


def loop_mixture_samples(model, n_samples, seed):
    return loop_sample(model, n_samples, seed)[0]


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

    @pytest.mark.parametrize("check", [check_noise_domination, check_embedding_constant])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_philox_key_range_is_refused(self, check, seed):
        # the same ValueError as EnsembleConfig's, raised before the cached
        # sample of the same model and size is looked at
        m = two_mode_model()
        cached = _mixture_samples(m, 10, 0)
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 18446744073709551615\]"):
            check(m, CoefficientSet(r=0.5), n_samples=10, seed=seed)
        assert _mixture_samples(m, 10, 0) is cached

    @pytest.mark.parametrize("check", [check_noise_domination, check_embedding_constant])
    @pytest.mark.parametrize("field, value", [
        ("seed", 3.7),  # would draw the seed-3 sample, key [3, 0]
        ("seed", False),
        ("n_samples", 8.5),
        ("n_samples", True),
    ])
    def test_integer_arguments_refuse_floats_and_bools(self, check, field, value):
        m = two_mode_model()
        cached = _mixture_samples(m, 10, 3)
        with pytest.raises(ValueError, match=f"{field} must be an integer, got"):
            check(m, CoefficientSet(r=0.5), **{"n_samples": 10, "seed": 3, field: value})
        assert _mixture_samples(m, 10, 3) is cached

    @pytest.mark.parametrize("check", [check_noise_domination, check_embedding_constant])
    def test_numpy_integer_seed_draws_the_same_sample(self, check):
        m, c = two_mode_model(), CoefficientSet(r=0.5)
        want = check(m, c, n_samples=10, seed=3)
        got = check(two_mode_model(), c, n_samples=np.int32(10), seed=np.uint64(3))
        assert np.array_equal(got.witness, want.witness)
        assert got.numbers == want.numbers

    @pytest.mark.parametrize("check", [check_noise_domination, check_embedding_constant])
    def test_zero_samples_is_a_sample_count_error(self, check):
        with pytest.raises(InvalidSampleCount, match="n_samples must be at least 1"):
            check(two_mode_model(), CoefficientSet(r=0.5), n_samples=0)


class TestHsCheck:
    def test_finite_model_reports_sum(self):
        rep = hs_check(two_mode_model())
        assert rep.holds
        assert rep.numbers["hs_norm_sq"] == pytest.approx(7.0 / 3.0, rel=1e-14)

    def test_series_converges(self):
        rep = hs_check(theta=1.0, rho=2.0, alpha=2.0)
        assert rep.holds
        assert rep.numbers["series_exponent"] == pytest.approx(-2.0, rel=1e-15)

    def test_series_boundary_diverges(self):
        # 2 theta - alpha rho = -1 exactly: the harmonic edge diverges
        rep = hs_check(theta=1.0, rho=2.0, alpha=1.5)
        assert not rep.holds
        assert rep.numbers["series_exponent"] == pytest.approx(-1.0, rel=1e-15)
        assert "diverges" in rep.detail

    def test_neither_model_nor_theta_is_refused(self):
        with pytest.raises(ValueError, match="model.*theta"):
            hs_check()


class TestSpectralGrowth:
    def passing_spec(self):
        return dict(theta=0.48, rho=2.0, d=0.5, eps=0.2, r=1.0 / 3.0, sigma=3.0)

    def test_passing_configuration(self):
        rep = check_spectral_growth(**self.passing_spec())
        assert rep.holds
        assert all(rep.clauses.values())
        # d_max = 2 eps (1+r)/(1-r) = 2 * 0.2 * (4/3)/(2/3) = 0.8
        assert rep.numbers["d_max"] == pytest.approx(0.8, rel=1e-14)
        # growth threshold = rho (sigma + 2 eps - 2)/(2 sigma) = 2 * 1.4 / 6
        assert rep.numbers["growth_exponent"] == pytest.approx(1.4 / 3.0, rel=1e-14)

    def test_eps_one_fails(self):
        rep = check_spectral_growth(theta=0.48, rho=2.0, d=0.5, eps=1.0, r=1.0 / 3.0, sigma=3.0)
        assert not rep.holds
        assert not rep.clauses["eps_in_0_1"]
        assert "eps_in_0_1" in rep.detail

    def test_dimension_window_binds(self):
        rep = check_spectral_growth(theta=0.48, rho=2.0, d=1.0, eps=0.2, r=1.0 / 3.0, sigma=3.0)
        assert not rep.holds
        failing = [k for k, v in rep.clauses.items() if not v]
        assert failing == ["dimension_window"]

    def test_d_max_hand_value(self):
        rep = check_spectral_growth(theta=0.7, rho=2.0, d=1.0, eps=0.5, r=0.5, sigma=8.0 / 3.0)
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
        return dict(theta=theta, alpha=alpha, d=d, eps=4.0 / 7.0, r=0.5, sigma=8.0 / 3.0)

    def test_threshold_hand_value(self):
        # s = 8/3 + 8/7 - 2 = 38/21; branch one s/(4(1-eps)) = 19/18
        # dominates branch two 19/96
        rep = check_power_spectrum_window(**self.base(theta=1.2, alpha=1.75))
        assert rep.numbers["theta_min"] == pytest.approx(19.0 / 18.0, rel=1e-14)
        assert rep.holds

    def test_alpha_window_values(self):
        rep = check_power_spectrum_window(**self.base(theta=1.2, alpha=1.75))
        assert rep.numbers["alpha_lo"] == pytest.approx(1.7, rel=1e-14)
        s = 8.0 / 3.0 + 2.0 * (4.0 / 7.0) - 2.0
        assert rep.numbers["alpha_hi"] == pytest.approx((8.0 / 3.0) * 1.2 / s, rel=1e-14)

    def test_window_is_half_open(self):
        at_lo = check_power_spectrum_window(**self.base(theta=1.2, alpha=1.7))
        assert not at_lo.clauses["alpha_in_window"]
        hi = check_power_spectrum_window(**self.base(theta=1.2)).numbers["alpha_hi"]
        at_hi = check_power_spectrum_window(**self.base(theta=1.2, alpha=hi))
        assert at_hi.clauses["alpha_in_window"]
        above = check_power_spectrum_window(**self.base(theta=1.2, alpha=hi * (1 + 1e-12)))
        assert not above.clauses["alpha_in_window"]

    def test_below_threshold_empties_window(self):
        rep = check_power_spectrum_window(**self.base(theta=1.0))
        assert not rep.holds
        assert not rep.clauses["theta_above_threshold"]
        assert not rep.clauses["alpha_window_nonempty"]
        assert "theta_above_threshold" in rep.detail

    def test_window_scales_with_dimension(self):
        one = check_power_spectrum_window(**self.base(theta=1.2, d=1.0))
        three = check_power_spectrum_window(**self.base(theta=1.2, d=3.0))
        assert three.numbers["alpha_lo"] == pytest.approx(3 * one.numbers["alpha_lo"], rel=1e-14)
        assert three.numbers["alpha_hi"] == pytest.approx(3 * one.numbers["alpha_hi"], rel=1e-14)


class TestFractionalPower:
    def test_hand_thresholds(self):
        rep = check_fractional_power(theta=1.0, rho=2.0, alpha=2.0, d=0.5, eps=0.25, r=0.5, sigma=8.0 / 3.0)
        assert rep.holds
        # alpha_min = d(1-r)/(2 eps (1+r)) = 0.5*0.5/(0.5*1.5) = 1/3
        assert rep.numbers["alpha_min"] == pytest.approx(1.0 / 3.0, rel=1e-14)
        # growth threshold = alpha rho (sigma + 2 eps - 2)/(2 sigma) = 7/8
        assert rep.numbers["growth_exponent"] == pytest.approx(7.0 / 8.0, rel=1e-14)
        assert rep.numbers["hs_exponent"] == pytest.approx(-2.0, rel=1e-15)

    def test_growth_clause_binds(self):
        rep = check_fractional_power(theta=0.8, rho=2.0, alpha=2.0, d=0.5, eps=0.25, r=0.5, sigma=8.0 / 3.0)
        assert not rep.holds
        failing = [k for k, v in rep.clauses.items() if not v]
        assert failing == ["noise_growth"]

    def test_series_clause_matches_hs_check(self):
        rep = check_fractional_power(theta=1.4, rho=2.0, alpha=2.0, d=0.5, eps=0.25, r=0.5, sigma=8.0 / 3.0)
        assert rep.clauses["hs_finite"] == hs_check(theta=1.4, rho=2.0, alpha=2.0).holds


class TestSigmaDefault:
    """Without sigma a closed-form check takes sigma at its floor 4/(1+r)."""

    @pytest.mark.parametrize("check, params", [
        (check_spectral_growth, dict(theta=0.4, d=0.5, eps=0.2, r=0.5)),
        (check_power_spectrum_window, dict(theta=1.2, d=1.0, eps=4.0 / 7.0, r=0.3)),
        (check_power_spectrum_window, dict(theta=1.2, d=1.0, eps=4.0 / 7.0, r=0.3, alpha=2)),
        (check_fractional_power, dict(theta=1.0, alpha=2.0, d=0.5, eps=0.25, r=0.7)),
    ])
    def test_equals_the_floor_bit_for_bit(self, check, params):
        rep = check(**params)
        floor = check(**params, sigma=4.0 / (1.0 + params["r"]))
        assert repr(vars(rep)) == repr(vars(floor))


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
        rep = check(theta=1.4, alpha=2.0, d=2.0, eps=eps, r=0.5, sigma=sigma)
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
        a = domination_ratio(m, c, x)
        b = domination_ratio(m, c, scale * x)
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
            assert domination_ratio(m, c, e) == pytest.approx(want, rel=1e-12)

    def test_estimate_positive_and_witness_recorded(self):
        m = two_mode_model()
        rep = check_noise_domination(m, CoefficientSet(r=0.5), n_samples=10_000, seed=3)
        assert rep.xi_estimate > 0.0
        assert rep.witness is not None
        assert norm_h(m, rep.witness) == pytest.approx(1.0, rel=1e-12)
        ratio_at_witness = domination_ratio(m, CoefficientSet(r=0.5), rep.witness)
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


def test_pinned_nine_mode_extremes_are_the_cited_ones():
    # the README and the checks' docstrings cite the nine-mode extremes of
    # tools/record_digests.py and the fixed rows that set them
    m = dirichlet1d_model(9, np.arange(1, 10, dtype=float) ** -0.5)
    c = CoefficientSet(r=0.5)
    readme, dom_doc, emb_doc = (" ".join(text.split()) for text in (
        (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8"),
        check_noise_domination.__doc__, check_embedding_constant.__doc__))
    for seed in (3, 7):
        dom = check_noise_domination(m, c, n_samples=2000, seed=seed)
        emb = check_embedding_constant(m, c, n_samples=2000, seed=seed)
        xs = conditions._last_sample[3]
        assert np.array_equal(dom.witness, xs[24]) and np.array_equal(emb.witness, xs[0])
        min_ratio, constant = repr(dom.numbers["min_ratio"]), repr(emb.numbers["embedding_constant"])
        assert f"`min_ratio` {min_ratio}, from row 24 (the mode vector `e_8`)" in readme
        assert f"`embedding_constant` {constant}, from row 0 (`e_0`)" in readme
        assert f"seeds 3 and 7 both give {min_ratio};" in dom_doc
        assert f"seeds 3 and 7 both give {constant};" in emb_doc


class TestSampleNorms:
    """The sampled checks of one command share the sample's norms: one row
    dot over the coefficient block each gives |x|_H and |x|_Q, and one over
    the point values |x|_{r+1}, each once per sample and exponent."""

    @staticmethod
    def spy_on_row_dots(monkeypatch):
        """Record each row dot of the sampled checks as (caller, factor), the
        factor named by the vector spread over its block."""
        calls = []
        real = conditions._row_dot

        def spy(a, b, c=None):
            caller = sys._getframe(1)
            while caller.f_code.co_name.startswith("<"):  # a comprehension's frame
                caller = caller.f_back
            calls.append((caller.f_code.co_name, b if c is None else c))
            return real(a, b, c)

        monkeypatch.setattr(conditions, "_row_dot", spy)
        monkeypatch.setattr(conditions, "_last_sample", None)

        def named(model):
            vectors = {"1/lambda": 1.0 / model.eigenvalues, "1/q^2": 1.0 / model.q_diag**2, "m": model.weights}
            assert all(np.array_equal(f, np.repeat(f[:, :1], f.shape[1], axis=1)) for _, f in calls)
            return [(caller, next(k for k, v in vectors.items() if np.array_equal(f[:, 0], v)))
                    for caller, f in calls]
        return named

    def test_no_state_by_state_transform_or_norm(self):
        assert not {"to_spectral", "from_spectral", "norm_h", "norm_lp"} & vars(conditions).keys()

    def test_one_command_computes_each_norm_once(self, monkeypatch, tmp_path, capsys):
        named = self.spy_on_row_dots(monkeypatch)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "model": {"n": 9, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5, "xi": 0.001},
            "conditions": [{"check": c, "n_samples": 500, "seed": 3} for c in ("noise_domination", "embedding")],
        }), encoding="utf-8")
        assert main(["conditions", "--config", str(cfg)]) == 0
        m, xs = conditions._last_sample[0], conditions._last_sample[3]
        assert named(m) == [("_mixture_samples", "1/lambda"), ("_sample_norms", "1/lambda"),
                            ("_sample_norms", "1/q^2"), ("_sample_norms", "m")]
        # the shared norms and the numbers are the per-state ones, bit for bit
        rows, nh, nq, lp = loop_sample(m, 500, 3, 1.5)
        norms = conditions._last_sample[5]
        assert np.array_equal(xs, rows)
        for got, want in zip((*norms["hq"], norms[1.5]), (nh, nq, lp)):
            assert np.array_equal(got, want)
        dom, emb = json.loads(capsys.readouterr().out)["outputs"]["reports"]
        sigma = 4.0 / 1.5
        assert dom["numbers"]["min_ratio"] == float((lp**2 * nh ** (sigma - 2.0) / nq**sigma).min())
        assert emb["numbers"]["embedding_constant"] == float((nh / lp).max())

    def test_another_exponent_recomputes_only_its_norm(self, monkeypatch):
        named = self.spy_on_row_dots(monkeypatch)
        m = two_mode_model()
        check_noise_domination(m, CoefficientSet(r=0.5), n_samples=300, seed=1)
        check_embedding_constant(m, CoefficientSet(r=0.5), n_samples=300, seed=1)
        rep = check_embedding_constant(m, CoefficientSet(r=0.25), n_samples=300, seed=1)
        assert named(m) == [("_mixture_samples", "1/lambda"), ("_sample_norms", "1/lambda"),
                            ("_sample_norms", "1/q^2"), ("_sample_norms", "m"), ("_sample_norms", "m")]
        _, nh, _, lp = loop_sample(m, 300, 1, 1.25)
        assert rep.numbers["embedding_constant"] == float((nh / lp).max())

    @pytest.mark.parametrize("n", [4, 9, 64])
    def test_state_bits_independent_of_sample_size(self, n):
        # a state's row and norms do not depend on how many states share its
        # blocks: row 3i is the mode vector e_(i mod n) at every n_samples,
        # and the Gaussian block, drawn first, gives 998, 1000, 2000 and 2001
        # states the same leading Gaussian rows; at 998 the last of them is
        # in a 6-column tail, which only the padding makes a whole panel
        m = dirichlet1d_model(n, np.arange(1, n + 1, dtype=float) ** -0.5)
        states = {}
        for n_samples in (1, 7, 2001, 998, 1000, 2000):
            xs, nh, nq, lp = conditions._sample_norms(m, n_samples, 3, 1.5)
            states[n_samples] = np.column_stack([xs, nh, nq, lp]).view(np.int64)
        full = states[2000]
        for n_samples in (1, 7, 2001):
            assert np.array_equal(states[n_samples][0::3], full[0:n_samples:3]), n_samples
        for n_samples in (998, 1000, 2001):
            assert np.array_equal(states[n_samples][1::3], full[1:n_samples:3]), n_samples
