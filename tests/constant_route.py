"""Constant-coefficient closed forms, written out without schedules.

An independent route for cross-checking the schedule-integral constants
of fastdiffusion.bounds when no coefficient depends on time.
"""

import math


def constant_coefficient_constants(model, coeffs, T: float) -> dict:
    """exp_moment_weight, the pointwise log_moment_rate and the two
    coupling-gain integrals at horizon T, for constant coefficients."""
    assert coeffs.is_time_homogeneous
    gamma = coeffs.gamma(0.0)
    delta = coeffs.delta(0.0)
    eta = coeffs.eta(0.0)
    xi_v = coeffs.xi(0.0)
    r = coeffs.r
    q = model.hs_norm_sq

    lam = 0.5 * delta * math.exp(-(2.0 * gamma + 2.0 * q + 1.0) * T)
    rate = q + 2.0 ** ((r + 2.0) / r) * eta ** ((r + 1.0) / r) * delta ** (-1.0 / r)
    g0 = (delta * xi_v) ** (1.0 / coeffs.sigma)
    if gamma == 0.0:
        gi = g0 * T
        gsq = g0**2 * T
    else:
        gi = g0 * -math.expm1(-gamma * T) / gamma
        gsq = g0**2 * -math.expm1(-2.0 * gamma * T) / (2.0 * gamma)
    return {
        "exp_moment_weight": lam,
        "log_moment_rate": rate,
        "coupling_gain_int": gi,
        "coupling_gain_sq_int": gsq,
    }
