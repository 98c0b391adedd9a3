"""The step formulas of one state or pair, written on point values.

An independent route for cross-checking the ensemble kernel
(fastdiffusion.montecarlo._simulate), which advances batches of paths in
eigen-coordinates: Psi, the drift, the tamed or explicit drift step, the
attraction drift, the reweighting integrand zeta and the f envelope.
Beside them, four references the spectral, coupling and condition tests
check the library against: the weighted L2 norm, for Parseval, the
noise-scaled norm |x|_Q, the noise-domination ratio, with each of its
norms computed afresh, and the eigenfunction sign rule, entry by entry.
"""

import numpy as np

from fastdiffusion.spectral import from_spectral, norm_h, norm_lp, to_spectral


def psi_eval(coeffs, s, t: float = 0.0):
    """Pointwise nonlinearity Psi(t, s); accepts scalars or arrays."""
    s = np.asarray(s, dtype=float)
    if coeffs.nonlinearity == "identity":
        out = s.copy()
    else:
        scale = coeffs.delta(t) / (2.0 * coeffs.r)
        out = scale * np.sign(s) * np.abs(s) ** coeffs.r
    return float(out) if out.ndim == 0 else out


def drift_eval(model, coeffs, x, t: float = 0.0) -> np.ndarray:
    """Drift L Psi(t, x) + gamma_t x for a state or batch of states."""
    x = np.asarray(x, dtype=float)
    c = to_spectral(model, psi_eval(coeffs, x, t))
    lpsi = from_spectral(model, -model.eigenvalues * c)
    return lpsi + coeffs.gamma(t) * x


def apply_drift(x, b, dt: float, scheme: str, weights) -> np.ndarray:
    """Drift part of one step; taming divides by 1 + dt * |b| in L2(m)."""
    if scheme == "explicit_euler":
        return x + dt * b
    bnorm = np.sqrt((weights * b * b).sum(axis=-1, keepdims=True))
    return x + dt * b / (1.0 + dt * bnorm)


def coupling_drift(model, sched, x, y, t: float) -> np.ndarray:
    """Attraction drift beta_t (x - y) / |x - y|_H^epsilon; zero at x = y."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    dist = float(norm_h(model, d))
    if dist == 0.0:
        return np.zeros(model.n)
    return sched.beta(t) * d / dist**sched.epsilon


def zeta(model, sched, x, y, t: float) -> np.ndarray:
    """Spectral coordinates of the reweighting integrand; zero at x = y."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    dist = float(norm_h(model, d))
    if dist == 0.0:
        return np.zeros(model.n)
    return sched.beta(t) * to_spectral(model, d) / (model.q_diag * dist**sched.epsilon)


def f_diagnostic(model, coeffs, x, y):
    """Envelope moment f = m[(|x| v |y|)^(r+1)] raised to (1-r)/(1+r).

    Accepts batched states; the ensemble kernel integrates
    f^(2/(sigma-2)) while the pair is uncoupled.
    """
    r = coeffs.r
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    env = np.maximum(np.abs(x), np.abs(y)) ** (r + 1.0)
    moment = (model.weights * env).sum(axis=-1)
    out = moment ** ((1.0 - r) / (1.0 + r))
    return float(out) if out.ndim == 0 else out


def norm_l2m(model, x):
    """Weighted L2 norm (sum_k m_k x_k^2)^(1/2)."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt((model.weights * x * x).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def norm_q(model, x):
    """Noise-scaled norm (sum_i <x, e_i>_m^2 / q_i^2)^(1/2)."""
    c = to_spectral(model, x)
    out = np.sqrt((c * c / model.q_diag**2).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def domination_ratio(model, coeffs, x):
    """|x|_{r+1}^2 |x|_H^(sigma-2) / |x|_Q^sigma, each norm computed afresh."""
    sigma = coeffs.sigma
    return norm_lp(model, x, coeffs.r + 1.0) ** 2 * norm_h(model, x) ** (sigma - 2.0) / norm_q(model, x) ** sigma


def fix_signs(E):
    """Each row of E with its first entry above 1e-12 times the row's
    largest |entry| made positive, found by a walk along the row."""
    out = E.copy()
    for i, row in enumerate(out):
        scale = np.max(np.abs(row))
        for v in row:
            if abs(v) > 1e-12 * scale:
                if v < 0.0:
                    out[i] = -row
                break
    return out
