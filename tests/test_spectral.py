"""Model construction, eigenbasis identities, and the four norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fastdiffusion import (
    InvalidExponent,
    MeasureSpace,
    NotNegativeDefinite,
    NotSelfAdjoint,
    ZeroNoiseMode,
    build_model,
    dirichlet1d_model,
    fractional_power,
    from_spectral,
    model_from_spec,
    norm_h,
    norm_l2m,
    norm_lp,
    norm_q,
    to_spectral,
)


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
        E, lam, w = m.eigenfunctions, m.eigenvalues, m.space.weights
        gram = np.einsum("k,ik,jk->ij", w, E, E)
        assert np.allclose(gram, np.eye(2), atol=1e-10)
        L = np.array([[-2.0, 1.0], [0.5, -2.0]])
        for i in range(2):
            assert np.allclose(L @ E[i], -lam[i] * E[i], atol=1e-10 * max(1.0, lam[i]))

    def test_zero_noise_mode_rejected(self):
        with pytest.raises(ZeroNoiseMode):
            build_model([0.5, 0.5], [[-2.0, 1.0], [1.0, -2.0]], [1.0, 0.0])

    def test_measure_must_be_probability(self):
        with pytest.raises(ValueError):
            MeasureSpace(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            MeasureSpace(np.array([1.5, -0.5]))

    def test_model_arrays_read_only(self):
        m = two_mode_model()
        with pytest.raises(ValueError):
            m.eigenvalues[0] = 2.0


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
        w, E = m.space.weights, m.eigenfunctions
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


class TestModelFromSpec:
    def test_dirichlet_spec(self):
        m = model_from_spec(
            {"n": 4, "measure": "uniform", "operator": "dirichlet1d",
             "q_diag": {"power": -0.5}}
        )
        assert m.n == 4
        assert np.allclose(m.q_diag, np.arange(1, 5) ** -0.5)

    def test_minimal_spec_is_uniform_dirichlet(self):
        spec = {"n": 4, "q_diag": {"power": -0.5}}
        m = model_from_spec(spec)
        full = model_from_spec({**spec, "measure": "uniform", "operator": "dirichlet1d"})
        assert np.array_equal(m.eigenvalues, full.eigenvalues)
        assert np.array_equal(m.space.weights, full.space.weights)

    def test_matrix_spec_with_alpha(self):
        m = model_from_spec(
            {"n": 2, "measure": [0.5, 0.5],
             "operator": {"matrix": [[-2.0, 1.0], [1.0, -2.0]]},
             "alpha": 2.0, "q_diag": [1.0, 2.0]}
        )
        assert np.allclose(m.eigenvalues, [1.0, 9.0], rtol=1e-12)


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
