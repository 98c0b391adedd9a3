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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidExponent,
    NotNegativeDefinite,
    NotSelfAdjoint,
    ZeroNoiseMode,
)

__all__ = [
    "SpectralModel",
    "build_model",
    "dirichlet1d_model",
    "fractional_power",
    "to_spectral",
    "from_spectral",
    "norm_lp",
    "norm_h",
]

WEIGHT_SUM_TOL = 1e-12
SELF_ADJOINT_TOL = 1e-10
DEFINITE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SpectralModel:
    """Probability weights, the eigendecomposition of -L and diagonal noise.

    weights[k] is the mass m_k of point k.  eigenvalues are the
    eigenvalues of -L, sorted ascending, all > 0.  eigenfunctions[i] is
    the i-th eigenfunction as a point-space vector, m-orthonormal, with
    its first nonnegligible entry made positive.  q_diag[i] is the noise
    amplitude driving mode i; hs_norm_sq is sum(q_i^2 / lambda_i), the
    squared Hilbert-Schmidt size of the noise relative to the operator.
    The arrays are read-only copies of those passed in, with the weights
    and q_diag checked as build_model checks them.  Models compare and
    hash by identity.
    """

    weights: np.ndarray
    operator: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    q_diag: np.ndarray
    hs_norm_sq: float = field(init=False)
    # the m-weighted eigenfunctions e_i(k) m_k, mode by mode: the analysis
    # matrix of the ensemble kernel's drift
    _analysis: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("weights", "operator", "eigenvalues", "eigenfunctions", "q_diag"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        _check_weights_and_noise(self.weights, self.q_diag)
        object.__setattr__(self, "hs_norm_sq", float((self.q_diag**2 / self.eigenvalues).sum()))
        analysis = self.eigenfunctions * self.weights
        analysis.setflags(write=False)
        object.__setattr__(self, "_analysis", analysis)

    @property
    def n(self) -> int:
        return self.weights.size


def _check_weights_and_noise(m: np.ndarray, q: np.ndarray | None = None):
    """Raise unless m is a probability vector and q, if given, a finite
    noise vector of m's size with no zero entry.  Entries are compared as
    Python floats, cheaper than numpy reductions on a model's few points."""
    if m.ndim != 1 or m.size == 0:
        raise ValueError("weights must be a nonempty 1-D array")
    if not all(0.0 < w < math.inf for w in m.tolist()):
        raise ValueError("weights must be finite and strictly positive")
    total = m.sum()
    if abs(float(total) - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
    if q is not None:
        if q.shape != m.shape:
            raise ValueError(f"q_diag must have shape ({m.size},), got {q.shape}")
        noise = q.tolist()
        if not all(map(math.isfinite, noise)):
            raise ValueError("q_diag entries must be finite")
        if 0.0 in noise:
            raise ZeroNoiseMode("every mode must carry a nonzero noise amplitude")


def _fix_signs(E: np.ndarray) -> np.ndarray:
    """Make the first nonnegligible entry of each eigenfunction positive."""
    out = E.copy()
    A = np.abs(out)
    first = (A > 1e-12 * A.max(axis=1, keepdims=True)).argmax(axis=1)
    flip = out[np.arange(len(out)), first] < 0.0  # an all-zero row keeps its signs
    out[flip] = -out[flip]
    return out


def build_model(weights, operator, q_diag) -> SpectralModel:
    """Assemble a SpectralModel from weights, an operator matrix, and noise.

    Raises NotSelfAdjoint if diag(m) L is not symmetric within 1e-10,
    NotNegativeDefinite if any eigenvalue of -L is <= 0, and
    ZeroNoiseMode if any noise amplitude vanishes; ValueError if the
    weights are not a probability vector or a shape is wrong.
    """
    m = np.asarray(weights, dtype=float)
    _check_weights_and_noise(m)
    L = np.asarray(operator, dtype=float)
    n = m.size
    if L.shape != (n, n):
        raise ValueError(f"operator must be {n}x{n}, got {L.shape}")
    if not np.isfinite(L).all():
        raise ValueError("operator entries must be finite")

    weighted = m[:, None] * L
    scale = max(float(np.abs(weighted).max()), 1.0)
    asym = float(np.abs(weighted - weighted.T).max())
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
    # the model's constructor checks the noise
    return SpectralModel(m, L, lam, _fix_signs((U / d[:, None]).T), q_diag)


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
    m = model.weights
    # L_alpha x = -sum_i lam_i <x, e_i>_m e_i, assembled as a matrix
    L = -np.einsum("ij,ik,k->jk", E * lam[:, None], E, m)
    return SpectralModel(m, L, lam, E, model.q_diag)


# ---------------------------------------------------------------------------
# transforms and norms; all accept batched states with shape (..., n)
# ---------------------------------------------------------------------------

# The transforms call _einsum, numpy's C einsum: the function that
# np.einsum(optimize=False) itself hands its operands to, here without the
# Python-level dispatch in front of it.  numpy._core is tried first because
# numpy 2 warns on importing numpy.core.  einsum's fixed contraction order
# keeps each column's bits independent of the batch width.  The C einsum
# takes out= only as an array.
#
# montecarlo._simulate and the sampled condition checks work on mode-major
# blocks, one state per column, transformed by BLAS matmuls (np.matmul) and
# measured by row dots; each block is a whole number of PANEL columns wide,
# with zero pad columns that are never divided.  A BLAS matmul chooses its
# blocking and its edge kernels from the shape, so an unpadded block gives a
# column other bits at width 1, or in a tail of fewer columns than the
# kernel's panel, than in the block's body.  With every width a multiple of
# PANEL each column goes through the same full-panel kernel, and adds its
# terms in the same order, at any width and offset and under any BLAS thread
# count, since the threads split the columns and rows, never the summed
# index.  tests/test_montecarlo.py::TestPanelTransforms checks this; a BLAS
# kernel with a wider panel needs a larger PANEL.  The BLAS kernel may fuse
# each multiply with its add, so another BLAS build, or another kernel for
# another CPU, can give other bits, by roundoff.
#
# _row_dot sums products over rows with this function ("ip,ip->p" and
# "ip,ip,ip->p").  Those keep _row_sum's bits because the rows are added in
# order, each into the zero-filled result column, and because this numpy
# build rounds each product before adding it: it does not fuse the multiply
# and the add.  A build that did would change the bits, and
# tests/test_montecarlo.py::TestRowDot would fail on it.  On one column the
# summed index is the only one left and einsum takes the dot product, which
# adds in another order, so _row_dot uses _row_sum there.
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x
    try:
        from numpy.core.multiarray import c_einsum as _einsum
    except ImportError:
        _einsum = np.einsum

PANEL = 8  # the blocks of the matmul transforms are whole panels of this many columns


def _panels(width: int) -> int:
    """width rounded up to whole panels of PANEL columns."""
    return -(-width // PANEL) * PANEL


def _row_sum(A: np.ndarray) -> np.ndarray:
    """Sum of the rows of A, added one row at a time in order.

    numpy's own reductions choose their summation order from the array's
    width, which would make a path's bits depend on how many paths share
    its chunk.  np.add.reduce adds row by row (from -0.0, which keeps a
    zero sum's sign) only when A has at least two contiguous columns;
    otherwise the rows are added in a Python loop.  A sum of products
    goes through _row_dot instead.
    """
    if A.shape[1] > 1 and A.strides[1] == A.itemsize:
        return np.add.reduce(A, axis=0, initial=-0.0)
    out = A[0].copy()
    for row in A[1:]:
        out += row
    return out


def _row_dot(a: np.ndarray, b: np.ndarray, c: np.ndarray | None = None) -> np.ndarray:
    """_row_sum(a * b), or _row_sum(a * b * c), of same-shape factors.

    When the block is wider than one column and every factor's columns
    are contiguous, one einsum pass multiplies and adds each row into a
    zero-filled result, one row at a time in order, without building the
    product block.  Otherwise the product goes through _row_sum: on one
    column einsum switches to a dot product, which adds in another order.
    The factors are named, not packed: on a (4, 64) block a *factors
    tuple and a generator over it cost more than the pass saves.

    The one difference in the bits: einsum starts from +0.0, so a column
    whose products are all -0.0 sums to +0.0 where _row_sum gives -0.0.
    No use can see it.  Squares and |x|^p w are never -0.0,
    and the stochastic-integral increment is added into log_s, which
    starts at +0.0 and so can never become -0.0.
    """
    s = a.itemsize
    if a.shape[1] > 1 and a.strides[1] == s and b.strides[1] == s:
        if c is None:
            return _einsum("ip,ip->p", a, b)
        if c.strides[1] == s:
            return _einsum("ip,ip,ip->p", a, b, c)
    prod = a * b
    if c is not None:
        prod *= c
    return _row_sum(prod)


def to_spectral(model: SpectralModel, x) -> np.ndarray:
    """Coefficients <x, e_i>_m of a state (or batch of states)."""
    xm = np.asarray(x, dtype=float) * model.weights
    return _einsum("...j,ij->...i", xm, model.eigenfunctions)


def from_spectral(model: SpectralModel, coeffs) -> np.ndarray:
    """State vector sum_i c_i e_i from spectral coefficients."""
    return _einsum("...i,ik->...k", np.asarray(coeffs, dtype=float), model.eigenfunctions)


def norm_lp(model: SpectralModel, x, p: float) -> np.ndarray | float:
    """Weighted Lp norm (sum_k m_k |x_k|^p)^(1/p) for p >= 1."""
    if p < 1.0:
        raise InvalidExponent(f"norm exponent must be >= 1, got {p!r}")
    x = np.asarray(x, dtype=float)
    out = ((model.weights * np.abs(x) ** p).sum(axis=-1)) ** (1.0 / p)
    return float(out) if out.ndim == 0 else out


def norm_h(model: SpectralModel, x) -> np.ndarray | float:
    """Negative-order norm (sum_i <x, e_i>_m^2 / lambda_i)^(1/2)."""
    c = to_spectral(model, x)
    out = np.sqrt((c * c / model.eigenvalues).sum(axis=-1))
    return float(out) if out.ndim == 0 else out

