"""Finite weighted state spaces and spectral decompositions.

A model is a probability weight vector m on n points together with a
linear operator L that is self-adjoint for the m-weighted inner product
and strictly negative definite.  Everything downstream (norms, drifts,
noise, bounds) works in the eigenbasis of -L, so the decomposition is
computed once here and carried around.

The eigenproblem is solved by symmetrizing with D = diag(m): the matrix
D^(1/2) L D^(-1/2) is symmetric exactly when L is m-self-adjoint, and
its orthonormal eigenvectors map back to m-orthonormal eigenfunctions
of L after scaling by D^(-1/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidExponent,
    NotNegativeDefinite,
    NotSelfAdjoint,
    ZeroNoiseMode,
)

__all__ = [
    "MeasureSpace",
    "SpectralModel",
    "build_model",
    "dirichlet1d_model",
    "fractional_power",
    "model_from_spec",
    "to_spectral",
    "from_spectral",
    "norm_l2m",
    "norm_lp",
    "norm_h",
    "norm_q",
]

WEIGHT_SUM_TOL = 1e-12
SELF_ADJOINT_TOL = 1e-10
DEFINITE_TOL = 1e-12


@dataclass(frozen=True)
class MeasureSpace:
    """Probability weights on a finite set of points."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D array")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {w.sum()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class SpectralModel:
    """Weighted space plus the eigendecomposition of -L and diagonal noise.

    eigenvalues are the eigenvalues of -L, sorted ascending, all > 0.
    eigenfunctions[i] is the i-th eigenfunction as a point-space vector,
    m-orthonormal, with its first nonnegligible entry made positive.
    q_diag[i] is the noise amplitude driving mode i; hs_norm_sq is
    sum(q_i^2 / lambda_i), the squared Hilbert-Schmidt size of the noise
    relative to the operator.
    """

    space: MeasureSpace
    operator: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    q_diag: np.ndarray
    hs_norm_sq: float = field(default=0.0)
    # m-weighted eigenfunctions stored point-major, the matrix to_spectral
    # applies to mode-major batches
    _analysis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("operator", "eigenvalues", "eigenfunctions", "q_diag"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(
            self,
            "hs_norm_sq",
            float(np.sum(self.q_diag**2 / self.eigenvalues)),
        )
        analysis = np.ascontiguousarray((self.eigenfunctions * self.space.weights).T)
        analysis.setflags(write=False)
        object.__setattr__(self, "_analysis", analysis)

    @property
    def n(self) -> int:
        return self.space.n


def _fix_signs(E: np.ndarray) -> np.ndarray:
    """Make the first nonnegligible entry of each eigenfunction positive."""
    out = E.copy()
    for i, row in enumerate(out):
        scale = np.max(np.abs(row))
        for v in row:
            if abs(v) > 1e-12 * scale:
                if v < 0.0:
                    out[i] = -row
                break
    return out


def build_model(weights, operator, q_diag) -> SpectralModel:
    """Assemble a SpectralModel from weights, an operator matrix, and noise.

    Raises NotSelfAdjoint if diag(m) L is not symmetric within 1e-10,
    NotNegativeDefinite if any eigenvalue of -L is <= 0, and
    ZeroNoiseMode if any noise amplitude vanishes.
    """
    space = weights if isinstance(weights, MeasureSpace) else MeasureSpace(np.asarray(weights, dtype=float))
    L = np.asarray(operator, dtype=float)
    n = space.n
    if L.shape != (n, n):
        raise ValueError(f"operator must be {n}x{n}, got {L.shape}")
    if not np.all(np.isfinite(L)):
        raise ValueError("operator entries must be finite")

    m = space.weights
    weighted = m[:, None] * L
    scale = max(float(np.max(np.abs(weighted))), 1.0)
    asym = float(np.max(np.abs(weighted - weighted.T)))
    if asym > SELF_ADJOINT_TOL * scale:
        raise NotSelfAdjoint(
            f"diag(m) L deviates from symmetry by {asym:.3e} (tolerance {SELF_ADJOINT_TOL:.1e} relative)"
        )

    d = np.sqrt(m)
    sym = (L * d[:, None]) / d[None, :]
    sym = 0.5 * (sym + sym.T)
    lam, U = np.linalg.eigh(-sym)
    if lam[0] <= DEFINITE_TOL:
        raise NotNegativeDefinite(
            f"smallest eigenvalue of -L is {float(lam[0])!r}; operator must be strictly negative definite"
        )
    E = _fix_signs((U / d[:, None]).T)

    q = np.asarray(q_diag, dtype=float)
    if q.shape != (n,):
        raise ValueError(f"q_diag must have shape ({n},), got {q.shape}")
    if not np.all(np.isfinite(q)):
        raise ValueError("q_diag entries must be finite")
    if np.any(q == 0.0):
        raise ZeroNoiseMode("every mode must carry a nonzero noise amplitude")

    return SpectralModel(space, L, lam, E, q)


def _dirichlet_operator(n: int) -> np.ndarray:
    """The n-point grid Laplacian on (0, 1) with zero boundary values,
    scaled by (n+1)^2."""
    if n < 1:
        raise ValueError("n must be at least 1")
    L = np.zeros((n, n))
    np.fill_diagonal(L, -2.0)
    idx = np.arange(n - 1)
    L[idx, idx + 1] = 1.0
    L[idx + 1, idx] = 1.0
    return L * (n + 1) ** 2


def dirichlet1d_model(n: int, q_diag) -> SpectralModel:
    """Uniform-weight model whose operator is the n-point grid Laplacian
    on (0, 1) with zero boundary values, scaled by (n+1)^2."""
    return build_model(np.full(n, 1.0 / n), _dirichlet_operator(n), q_diag)


def fractional_power(model: SpectralModel, alpha: float) -> SpectralModel:
    """Replace -L by (-L)^alpha, keeping eigenfunctions and noise.

    Raises InvalidExponent when an eigenvalue of (-L)^alpha overflows or
    underflows to 0.
    """
    if alpha <= 0.0:
        raise InvalidExponent("alpha must be strictly positive")
    with np.errstate(over="ignore"):
        lam = model.eigenvalues**alpha
    if not np.all((lam > 0.0) & np.isfinite(lam)):
        raise InvalidExponent(f"the eigenvalues of (-L)^alpha leave float range at alpha = {alpha!r}")
    E = model.eigenfunctions
    m = model.space.weights
    # L_alpha x = -sum_i lam_i <x, e_i>_m e_i, assembled as a matrix
    L = -np.einsum("ij,ik,k->jk", E * lam[:, None], E, m)
    return SpectralModel(model.space, L, lam, E, model.q_diag)


_MODEL_DEFAULTS = {"measure": "uniform", "operator": "dirichlet1d"}


def model_from_spec(spec: dict) -> SpectralModel:
    """Build a model from a plain-dict description (the JSON model block).

    Keys: n (int), measure ("uniform" or weight list), operator
    ("dirichlet1d" or {"matrix": [[...]]}), optional alpha (fractional
    power of -L), q_diag ({"power": p} for q_i = i^p, or a list);
    _MODEL_DEFAULTS holds the measure and operator of a block that names
    neither.  A power that overflows gives infinite amplitudes, which
    are rejected.
    """
    n = spec["n"]
    measure = spec.get("measure", _MODEL_DEFAULTS["measure"])
    if measure == "uniform":
        weights = np.full(n, 1.0 / n)
    else:
        weights = np.asarray(measure, dtype=float)

    q_spec = spec["q_diag"]
    if isinstance(q_spec, dict):
        with np.errstate(over="ignore"):
            q = np.arange(1, n + 1, dtype=float) ** float(q_spec["power"])
    else:
        q = np.asarray(q_spec, dtype=float)

    op = spec.get("operator", _MODEL_DEFAULTS["operator"])
    matrix = _dirichlet_operator(n) if op == "dirichlet1d" else np.asarray(op["matrix"], dtype=float)
    model = build_model(weights, matrix, q)

    alpha = spec.get("alpha")
    if alpha is not None:
        model = fractional_power(model, float(alpha))
    return model


# ---------------------------------------------------------------------------
# transforms and norms; all accept batched states with shape (..., n)
# ---------------------------------------------------------------------------

# The mode-major transforms take a batch of shape (n, P), one state per
# column.  einsum's fixed contraction order keeps each column's bits
# independent of P, which a BLAS matmul does not (its blocking depends on
# the shape).  The summed index must not be the matrix's contiguous axis:
# on a one-column batch einsum would then switch to a vectorized dot
# product, which adds in another order.

def to_spectral(model: SpectralModel, x, *, mode_major: bool = False) -> np.ndarray:
    """Coefficients <x, e_i>_m of a state (or batch of states)."""
    x = np.asarray(x, dtype=float)
    if mode_major:
        return np.einsum("ji,jp->ip", model._analysis, x)
    xm = x * model.space.weights
    return np.einsum("...j,ij->...i", xm, model.eigenfunctions)


def from_spectral(model: SpectralModel, coeffs, *, mode_major: bool = False) -> np.ndarray:
    """State vector sum_i c_i e_i from spectral coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if mode_major:
        return np.einsum("ij,ip->jp", model.eigenfunctions, c)
    return np.einsum("...i,ik->...k", c, model.eigenfunctions)


def norm_l2m(model: SpectralModel, x) -> np.ndarray | float:
    """Weighted L2 norm (sum_k m_k x_k^2)^(1/2)."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt((model.space.weights * x * x).sum(axis=-1))
    return float(out) if out.ndim == 0 else out

def norm_lp(model: SpectralModel, x, p: float) -> np.ndarray | float:
    """Weighted Lp norm (sum_k m_k |x_k|^p)^(1/p) for p >= 1."""
    if p < 1.0:
        raise InvalidExponent(f"norm exponent must be >= 1, got {p!r}")
    x = np.asarray(x, dtype=float)
    out = ((model.space.weights * np.abs(x) ** p).sum(axis=-1)) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


def norm_h(model: SpectralModel, x) -> np.ndarray | float:
    """Negative-order norm (sum_i <x, e_i>_m^2 / lambda_i)^(1/2)."""
    c = to_spectral(model, x)
    out = np.sqrt((c * c / model.eigenvalues).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def norm_q(model: SpectralModel, x) -> np.ndarray | float:
    """Noise-scaled norm (sum_i <x, e_i>_m^2 / q_i^2)^(1/2)."""
    c = to_spectral(model, x)
    out = np.sqrt((c * c / model.q_diag**2).sum(axis=-1))
    return float(out) if out.ndim == 0 else out
