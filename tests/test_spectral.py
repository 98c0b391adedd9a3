"""Model construction, eigenbasis identities, and the four norms."""

import importlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fastdiffusion import (
    InvalidExponent,
    NotNegativeDefinite,
    NotSelfAdjoint,
    SpectralModel,
    ZeroNoiseMode,
    build_model,
    dirichlet1d_model,
    fractional_power,
    from_spectral,
    norm_h,
    norm_lp,
    to_spectral,
)
from fastdiffusion import spectral
from point_oracles import fix_signs, norm_l2m, norm_q


def two_mode_model():
    """Hand-solvable case: uniform weights, L = [[-2, 1], [1, -2]], q = (1, 2).

    Eigenpairs of -L under the m-weighted inner product: (1, (1, 1)) and
    (3, (1, -1)); hs sum = 1/1 + 4/3 = 7/3.
    """
    return build_model([0.5, 0.5], [[-2.0, 1.0], [1.0, -2.0]], [1.0, 2.0])


class TestBuildModel:
    def test_hand_eigendecomposition(self):
        m = two_mode_model()
        assert np.allclose(m.eigenvalues, [1.0, 3.0], atol=1e-12)
        assert np.allclose(np.abs(m.eigenfunctions[0]), [1.0, 1.0], atol=1e-12)
        assert np.allclose(np.abs(m.eigenfunctions[1]), [1.0, 1.0], atol=1e-12)
        # e_2 alternates in sign
        assert m.eigenfunctions[1][0] * m.eigenfunctions[1][1] < 0
        assert math.isclose(m.hs_norm_sq, 7.0 / 3.0, rel_tol=1e-14)

    def test_hs_norm_sq_is_derived_not_passed(self):
        m = two_mode_model()
        parts = (m.weights, m.operator, m.eigenvalues, m.eigenfunctions, m.q_diag)
        with pytest.raises(TypeError):
            SpectralModel(*parts, hs_norm_sq=123.0)
        assert SpectralModel(*parts).hs_norm_sq == m.hs_norm_sq

    def test_one_point_model(self):
        m = build_model([1.0], [[-5.0]], [1.0])
        assert m.eigenvalues[0] == pytest.approx(5.0, abs=1e-12)
        assert m.eigenfunctions[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_singular_operator_rejected(self):
        with pytest.raises(NotNegativeDefinite):
            build_model([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]], [1.0, 1.0])

    def test_asymmetric_operator_rejected(self):
        with pytest.raises(NotSelfAdjoint):
            build_model([0.5, 0.5], [[-2.0, 1.0], [0.0, -2.0]], [1.0, 1.0])

    def test_weighted_self_adjointness_is_the_criterion(self):
        # Asymmetric as a plain matrix but self-adjoint under m = (1/3, 2/3):
        # m_i L_ij symmetric requires L_21 = L_12 m_1 / m_2 = 1/2.
        m = build_model([1.0 / 3.0, 2.0 / 3.0], [[-2.0, 1.0], [0.5, -2.0]], [1.0, 1.0])
        E, lam, w = m.eigenfunctions, m.eigenvalues, m.weights
        gram = np.einsum("k,ik,jk->ij", w, E, E)
        assert np.allclose(gram, np.eye(2), atol=1e-10)
        L = np.array([[-2.0, 1.0], [0.5, -2.0]])
        for i in range(2):
            assert np.allclose(L @ E[i], -lam[i] * E[i], atol=1e-10 * max(1.0, lam[i]))

    def test_zero_noise_mode_rejected(self):
        with pytest.raises(ZeroNoiseMode):
            build_model([0.5, 0.5], [[-2.0, 1.0], [1.0, -2.0]], [1.0, 0.0])

    def test_measure_must_be_probability(self):
        L, q = [[-2.0, 1.0], [1.0, -2.0]], [1.0, 2.0]
        for weights in ([], [[0.5, 0.5]]):
            with pytest.raises(ValueError, match="^weights must be a nonempty 1-D array$"):
                build_model(weights, L, q)
        for weights in ([1.5, -0.5], [0.5, float("nan")], [1.0, 0.0]):
            with pytest.raises(ValueError, match="^weights must be finite and strictly positive$"):
                build_model(weights, L, q)
        with pytest.raises(ValueError, match="^weights must sum to 1 within 1e-12, got .*1.1"):
            build_model([0.5, 0.6], L, q)

    def test_model_arrays_read_only(self):
        m = two_mode_model()
        for arr in (m.weights, m.operator, m.eigenvalues, m.eigenfunctions, m.q_diag, m._analysis):
            with pytest.raises(ValueError):
                arr[0] = 2.0

    def test_caller_arrays_stay_writable_and_unshared(self):
        weights, q = np.array([0.5, 0.5]), np.array([1.0, 2.0])
        L = np.array([[-2.0, 1.0], [1.0, -2.0]])
        q3 = np.array([1.0, 0.5, 0.3])
        m = build_model(weights, L, q)
        d = dirichlet1d_model(3, q3)
        f = fractional_power(m, 0.5)
        for model, given in ((m, (weights, L, q)), (d, (q3,)), (f, (m.weights, m.eigenfunctions, m.q_diag))):
            own = (model.weights, model.operator, model.eigenvalues, model.eigenfunctions, model.q_diag)
            assert not any(a.flags.writeable for a in own)
            assert not any(np.shares_memory(g, a) for g in given for a in own)
        for arr in (weights, L, q, q3):
            assert arr.flags.writeable
        q3[0] = 2.0
        assert d.q_diag[0] == 1.0

    def test_models_compare_and_hash_by_identity(self):
        a, b = two_mode_model(), two_mode_model()
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


class TestModelChecks:
    @pytest.mark.parametrize("weights, operator, q_diag, error, message", [
        # each case fails the check named first and one build_model makes later
        ([[0.5, 0.5]], [[-2.0, math.nan], [1.0, -2.0]], [0.0, 1.0], ValueError, "weights must be a nonempty"),
        ([1.5, -0.5], [[-2.0]], [1.0, 2.0], ValueError, "weights must be finite"),
        ([0.5, 0.6], [[-2.0, 1.0], [0.0, -2.0]], [0.0, 1.0], ValueError, "weights must sum to 1"),
        ([0.5, 0.5], [[-2.0, 1.0, 0.0]] * 3, [math.nan, 1.0], ValueError, "operator must be 2x2"),
        ([0.5, 0.5], [[-2.0, math.inf], [1.0, -2.0]], [0.0, 1.0], ValueError, "operator entries must be finite"),
        ([0.5, 0.5], [[-2.0, 1.0], [0.0, -2.0]], [0.0, 1.0], NotSelfAdjoint, "diag"),
        ([0.5, 0.5], [[-1.0, 1.0], [1.0, -1.0]], [1.0], NotNegativeDefinite, "smallest eigenvalue"),
        ([0.5, 0.5], [[-2.0, 1.0], [1.0, -2.0]], [0.0, math.nan, 1.0], ValueError, "q_diag must have shape"),
        ([0.5, 0.5], [[-2.0, 1.0], [1.0, -2.0]], [math.nan, 0.0], ValueError, "q_diag entries must be finite"),
    ])
    def test_first_failed_check_wins(self, weights, operator, q_diag, error, message):
        with pytest.raises(error, match="^" + re.escape(message)):
            build_model(weights, operator, q_diag)

    def test_constructor_refuses_what_build_model_refuses(self):
        m = two_mode_model()
        with pytest.raises(ValueError, match="^weights must sum to 1 within 1e-12, got .*1.1"):
            SpectralModel([0.5, 0.6], m.operator, m.eigenvalues, m.eigenfunctions, m.q_diag)
        with pytest.raises(ValueError, match="^weights must be finite and strictly positive$"):
            SpectralModel([1.5, -0.5], m.operator, m.eigenvalues, m.eigenfunctions, m.q_diag)
        with pytest.raises(ValueError, match=re.escape("q_diag must have shape (2,), got (3,)")):
            SpectralModel(m.weights, m.operator, m.eigenvalues, m.eigenfunctions, [1.0, 2.0, 3.0])
        with pytest.raises(ZeroNoiseMode):
            SpectralModel(m.weights, m.operator, m.eigenvalues, m.eigenfunctions, [1.0, 0.0])

    def test_fractional_power_of_a_valid_model(self):
        m = dirichlet1d_model(4, [1.0, 0.5, 0.3, 0.2])
        f = fractional_power(m, 0.75)
        assert np.array_equal(f.eigenvalues, m.eigenvalues**0.75)
        for name in ("weights", "eigenfunctions", "q_diag"):
            assert np.array_equal(getattr(f, name), getattr(m, name))


def _raw_eigenvectors(n):
    """The unsigned eigenfunction rows of the uniform dirichlet1d model,
    made as build_model makes them before their signs are fixed."""
    d = np.sqrt(np.full(n, 1.0 / n))
    L = spectral._dirichlet_operator(n)
    sym = (L * d[:, None]) / d[None, :]
    _, U = np.linalg.eigh(-0.5 * (sym + sym.T))
    return (U / d[:, None]).T


class TestFixSigns:
    """The vectorized sign rule against the entry-by-entry walk, bit for bit."""

    @staticmethod
    def assert_same_bits(E):
        got, want = spectral._fix_signs(E), fix_signs(E)
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("E", [
        np.zeros((2, 3)),
        np.array([[0.0, -0.0, 0.0], [-0.0, 1.0, -1.0]]),
        np.array([[1e-14, -1e-13, -0.5, 1.0]]),  # leading entries below 1e-12 * max, then a negative
        np.array([[-1e-12, 0.3, -1.0], [1e-12, -0.3, 1.0]]),  # 1e-12 * max is not above it
        np.array([[-3.0]]),
        np.array([[2.0]]),
    ], ids=["zero", "signed-zeros", "tiny-leading", "at-threshold", "n1-negative", "n1-positive"])
    def test_edge_rows(self, E):
        self.assert_same_bits(E)

    def test_flips_past_negligible_entries(self):
        got = spectral._fix_signs(np.array([[1e-14, -1e-13, -0.5, 1.0]]))
        assert got.tolist() == [[-1e-14, 1e-13, 0.5, -1.0]]

    @pytest.mark.parametrize("n", [2, 4, 9, 16])
    def test_dirichlet_eigenvectors(self, n):
        E = _raw_eigenvectors(n)
        self.assert_same_bits(E)
        self.assert_same_bits(-E)
        assert np.array_equal(spectral._fix_signs(E), dirichlet1d_model(n, [1.0] * n).eigenfunctions)


class TestDirichletModel:
    def test_known_eigenvalues(self):
        # (n+1)^2 tridiag(1, -2, 1) has eigenvalues 4 (n+1)^2 sin^2(k pi / (2(n+1)))
        n = 8
        m = dirichlet1d_model(n, [1.0] * n)
        k = np.arange(1, n + 1)
        want = 4.0 * (n + 1) ** 2 * np.sin(k * np.pi / (2 * (n + 1))) ** 2
        assert np.allclose(m.eigenvalues, want, rtol=1e-12)

    def test_orthonormal_basis(self):
        m = dirichlet1d_model(8, [1.0] * 8)
        w, E = m.weights, m.eigenfunctions
        gram = np.einsum("k,ik,jk->ij", w, E, E)
        assert np.allclose(gram, np.eye(8), atol=1e-10)


class TestFractionalPower:
    def test_eigenvalues_raised(self):
        m = two_mode_model()
        f = fractional_power(m, 0.5)
        assert np.allclose(f.eigenvalues, [1.0, math.sqrt(3.0)], rtol=1e-12)
        assert np.allclose(f.eigenfunctions, m.eigenfunctions)

    def test_alpha_one_is_identity(self):
        m = two_mode_model()
        f = fractional_power(m, 1.0)
        assert np.allclose(f.eigenvalues, m.eigenvalues)
        assert np.allclose(f.operator, m.operator, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_eigenvalues_past_float_range_rejected(self, scale):
        # 3^1000 overflows; 0.1^1000 underflows to 0, which is not definite
        m = build_model([0.5, 0.5], [[-2.0 * scale, scale], [scale, -2.0 * scale]], [1.0, 2.0])
        with pytest.raises(InvalidExponent):
            fractional_power(m, 1000.0)


class TestTransforms:
    def test_hand_values(self):
        m = two_mode_model()
        s1 = np.sign(m.eigenfunctions[0][0])
        s2 = np.sign(m.eigenfunctions[1][0])
        assert np.allclose(to_spectral(m, [1.0, 1.0]), [s1 * 1.0, 0.0], atol=1e-12)
        assert np.allclose(to_spectral(m, [0.0, 0.0]), [0.0, 0.0])
        assert np.allclose(to_spectral(m, [1.0, -1.0]), [0.0, s2 * 1.0], atol=1e-12)
        assert np.allclose(from_spectral(m, [s1, 0.0]), [1.0, 1.0], atol=1e-12)
        assert np.allclose(
            from_spectral(m, [s1, s2]), [2.0, 0.0], atol=1e-12
        )

    def test_batched_transform(self):
        m = dirichlet1d_model(4, [1.0] * 4)
        X = np.arange(12.0).reshape(3, 4)
        C = to_spectral(m, X)
        assert C.shape == (3, 4)
        assert np.allclose(from_spectral(m, C), X, atol=1e-10)

    @given(
        x=arrays(np.float64, 8, elements=st.floats(-50.0, 50.0)),
    )
    @settings(max_examples=200)
    def test_round_trip(self, x):
        m = dirichlet1d_model(8, [1.0] * 8)
        assert np.allclose(from_spectral(m, to_spectral(m, x)), x, atol=1e-10)


def _einsum_candidates():
    """numpy's C einsum under each import path the binding tries, then
    np.einsum itself, by name; a path this numpy lacks is left out."""
    found = {}
    for module in ("numpy._core.multiarray", "numpy.core.multiarray"):
        with warnings.catch_warnings():
            # numpy 2 keeps numpy.core as a deprecated alias of numpy._core
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                found[module] = importlib.import_module(module).c_einsum
            except (ImportError, AttributeError):
                pass
    found["np.einsum"] = np.einsum
    return found


class TestEinsumBinding:
    """The transforms call numpy's C einsum directly; whichever import path
    binds it, they give np.einsum's bits for the same subscripts, for any
    mode count, width and layout.  The ensemble kernel's own transforms are
    BLAS matmuls: tests/test_montecarlo.py::TestPanelTransforms."""

    def test_binds_the_c_function(self):
        candidates = _einsum_candidates()
        if "numpy._core.multiarray" in candidates:
            assert spectral._einsum is candidates["numpy._core.multiarray"]
        else:
            assert spectral._einsum in candidates.values()

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    @pytest.mark.parametrize("binding", sorted(_einsum_candidates()))
    def test_bit_equal_to_np_einsum(self, binding, monkeypatch):
        monkeypatch.setattr(spectral, "_einsum", _einsum_candidates()[binding])
        rng = np.random.default_rng(0)
        for n in (1, 4, 8, 9, 64):
            m = dirichlet1d_model(n, np.ones(n))
            E, w = m.eigenfunctions, m.weights
            for width in (1, 2, 3, 1024):
                # magnitudes over 16 decades, so the order of the additions
                # shows in the bits, and an all -0.0 column
                base = rng.standard_normal((n, width + 5)) * 10.0 ** rng.uniform(-8, 8, (n, width + 5))
                base[:, 3] = -0.0
                layouts = {"C": base[:, :width].copy(), "sliced": base[:, 2:2 + width],
                           "F": np.asfortranarray(base[:, :width])}
                for layout, A in layouts.items():
                    where = (binding, n, width, layout)
                    pairs = [
                        (to_spectral(m, A.T), np.einsum("...j,ij->...i", A.T * w, E)),
                        (from_spectral(m, A.T), np.einsum("...i,ik->...k", A.T, E)),
                    ]
                    for form, (got, want) in enumerate(pairs):
                        assert got.shape == want.shape, (*where, form)
                        assert np.array_equal(self.bits(got), self.bits(want)), (*where, form)


class TestNorms:
    def test_l2m_hand_values(self):
        m = two_mode_model()
        assert norm_l2m(m, [1.0, 1.0]) == pytest.approx(1.0, abs=1e-14)
        assert norm_l2m(m, [2.0, 0.0]) == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert norm_l2m(m, [0.0, 0.0]) == 0.0

    def test_lp_hand_values(self):
        m = two_mode_model()
        assert norm_lp(m, [1.0, 1.0], 1.5) == pytest.approx(1.0, abs=1e-14)
        # (1/2 * 2^{3/2})^{2/3} = 2^{1/3}
        assert norm_lp(m, [2.0, 0.0], 1.5) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
        assert norm_lp(m, [0.0, 0.0], 1.5) == 0.0
        with pytest.raises(Exception):
            norm_lp(m, [1.0, 1.0], 0.5)

    def test_h_and_q_hand_values(self):
        m = two_mode_model()
        e1 = from_spectral(m, [1.0, 0.0])
        e2 = from_spectral(m, [0.0, 1.0])
        assert norm_h(m, e1) == pytest.approx(1.0, rel=1e-12)
        assert norm_h(m, e2) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)
        assert norm_q(m, e1) == pytest.approx(1.0, rel=1e-12)
        assert norm_q(m, e2) == pytest.approx(0.5, rel=1e-12)
        assert norm_h(m, np.zeros(2)) == 0.0

    @given(x=arrays(np.float64, 8, elements=st.floats(-20.0, 20.0)))
    @settings(max_examples=200)
    def test_parseval_and_gap(self, x):
        m = dirichlet1d_model(8, [1.0] * 8)
        c = to_spectral(m, x)
        assert abs(norm_l2m(m, x) ** 2 - float((c * c).sum())) <= 1e-10
        assert norm_h(m, x) <= norm_l2m(m, x) / math.sqrt(m.eigenvalues[0]) + 1e-12

    def test_hs_norm_matches_h_norms_of_noise_modes(self):
        m = two_mode_model()
        total = 0.0
        for i in range(m.n):
            c = np.zeros(m.n)
            c[i] = m.q_diag[i]
            total += norm_h(m, from_spectral(m, c)) ** 2
        assert math.isclose(total, m.hs_norm_sq, rel_tol=1e-12)
