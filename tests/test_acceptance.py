"""Acceptance checklist: one test per shipped guarantee, one verdict line each.

Every test prints a single PASS/FAIL line naming the guarantee and the
measured numbers, then asserts on the same flag, so both `pytest -v` and
`pytest -s` read as a checklist.  Settings stay at desk scale: at most
8 modes, horizons at most 1, dt at most 1e-3 except where a finer grid
is the stated requirement, and at most 10^4 paths per run.
"""

import json
import math

import numpy as np

from constant_route import constant_coefficient_constants
from fastdiffusion import (
    AsymptoticSpec,
    CoefficientSet,
    EnsembleConfig,
    apply_drift,
    build_model,
    check_fractional_power,
    check_noise_domination,
    check_noise_sandwich,
    check_power_spectrum_window,
    check_spectral_growth,
    coupling_gain,
    coupling_gain_int,
    coupling_gain_sq_int,
    dirichlet1d_model,
    drift_eval,
    estimate_invariant,
    estimate_ptf,
    exp_moment_weight,
    from_spectral,
    harnack_rhs,
    hs_check,
    log_moment_rate,
    make_test_function,
    norm_h,
    norm_l2m,
    psi_eval,
    run_coupled_ensemble,
    to_spectral,
    verify_exp_moment_bound,
    verify_harnack,
)
from fastdiffusion.cli import main


def verdict(ok: bool, label: str) -> bool:
    print(("PASS: " if ok else "FAIL: ") + label, flush=True)
    return ok


def inv_sqrt_q(n: int) -> list[float]:
    return [float(i) ** -0.5 for i in range(1, n + 1)]


M2 = dirichlet1d_model(2, inv_sqrt_q(2))
M4 = dirichlet1d_model(4, inv_sqrt_q(4))
M8 = dirichlet1d_model(8, inv_sqrt_q(8))
COEFFS = CoefficientSet(r=0.5, gamma=-0.2)
START4 = np.array([0.35, -0.20, 0.10, -0.05])
OTHER4 = np.array([0.29, -0.16, 0.13, -0.02])


def test_01_spectral_identities():
    worst = 0.0
    for m in (M2, M8):
        n = m.n
        k = np.arange(1, n + 1)
        lam_exact = 4.0 * (n + 1) ** 2 * np.sin(k * np.pi / (2 * (n + 1))) ** 2
        worst = max(worst, float(np.max(np.abs(m.eigenvalues - np.sort(lam_exact)) / lam_exact)))
        ei_h = np.array([norm_h(m, e) for e in m.eigenfunctions])
        worst = max(worst, float(np.max(np.abs(ei_h - m.eigenvalues**-0.5))))
        ei_q = np.array([float(np.sqrt(np.sum(to_spectral(m, e) ** 2 / m.q_diag**2))) for e in m.eigenfunctions])
        worst = max(worst, float(np.max(np.abs(ei_q - 1.0 / m.q_diag))))
        worst = max(worst, abs(m.hs_norm_sq - float(np.sum(m.q_diag**2 / lam_exact))))
        rng = np.random.default_rng(1)
        for u in rng.standard_normal((20, n)):
            parseval = norm_l2m(m, u) ** 2 - float(np.sum(to_spectral(m, u) ** 2))
            worst = max(worst, abs(parseval))
    assert verdict(
        worst <= 1e-10,
        f"01 spectral identities on the n=2 and n=8 models: worst deviation {worst:.2e} (allowed 1e-10)",
    )


def test_02_pointwise_dissipativity():
    rng = np.random.default_rng(2)
    worst = math.inf
    for r in (0.35, 0.5, 0.9):
        c = CoefficientSet(r=r)
        s1, s2 = rng.uniform(-10.0, 10.0, size=(2, 10_000))
        lhs = 2.0 * (psi_eval(c, s1) - psi_eval(c, s2)) * (s1 - s2)
        env = np.maximum(np.abs(s1), np.abs(s2))
        rhs = np.where(env > 0.0, (s1 - s2) ** 2 * env ** (r - 1.0), 0.0)
        worst = min(worst, float(np.min(lhs - rhs)))
    assert verdict(
        worst >= -1e-12,
        f"02 pointwise dissipativity, 10^4 pairs per r in (0.35, 0.5, 0.9): worst margin {worst:.2e} (allowed -1e-12)",
    )


def test_03_shared_noise_contraction():
    dt, T, n_paths = 1e-4, 0.25, 100
    gam = COEFFS.gamma(0.0)
    x = from_spectral(M4, np.array([0.4, -0.2, 0.1, 0.05]))
    y = from_spectral(M4, np.array([0.3, -0.1, 0.15, 0.0]))
    X = np.tile(x, (n_paths, 1))
    Y = np.tile(y, (n_paths, 1))
    rng = np.random.default_rng(11)
    w = M4.space.weights
    t = 0.0
    D = np.exp(-2 * gam * t) * norm_h(M4, X - Y) ** 2
    worst = -math.inf
    for _ in range(int(round(T / dt))):
        xi = rng.standard_normal((n_paths, M4.n))
        dW = from_spectral(M4, M4.q_diag * np.sqrt(dt) * xi)
        X = apply_drift(X, drift_eval(M4, COEFFS, X, t), dt, "tamed_euler", w) + dW
        Y = apply_drift(Y, drift_eval(M4, COEFFS, Y, t), dt, "tamed_euler", w) + dW
        t += dt
        Dn = np.exp(-2 * gam * t) * norm_h(M4, X - Y) ** 2
        worst = max(worst, float(np.max(Dn - D)))
        D = Dn
    assert verdict(
        worst <= 1e-6 * dt,
        f"03 discounted pair distance non-increasing under shared noise, 100 paths: "
        f"worst per-step increment {worst:.2e} (allowed {1e-6 * dt:.1e})",
    )


def test_04_coupling_success_rate():
    x = from_spectral(M4, START4)
    y = from_spectral(M4, OTHER4)
    cfg = EnsembleConfig(T=0.25, n_paths=500, dt=1e-4, seed=2)
    res = run_coupled_ensemble(M4, COEFFS, cfg, x, y)
    d0 = float(norm_h(M4, x - y))
    frac = float(np.mean(res.dist_final < 1e-6 * d0))
    assert verdict(
        res.n_blowups == 0 and frac >= 0.99,
        f"04 coupling closes the gap at dt=1e-4: {frac:.1%} of 500 paths end below 1e-6 of the "
        f"starting distance (need 99%)",
    )


def test_05_change_of_measure_weights():
    configs = [
        ("n=4 default", M4, COEFFS, START4, OTHER4, 0.25),
        ("n=2 gamma=0 r=0.35", M2, CoefficientSet(r=0.35, gamma=0.0),
         np.array([0.3, -0.1]), np.array([0.25, -0.05]), 0.1),
        ("n=4 gamma=-0.5 r=0.9 far", M4, CoefficientSet(r=0.9, gamma=-0.5), START4, 2.0 * OTHER4, 0.25),
    ]
    oks, details = [], []
    for name, m, c, xs, ys, T in configs:
        cfg = EnsembleConfig(T=T, n_paths=10_000, dt=1e-3, seed=5)
        res = run_coupled_ensemble(m, c, cfg, from_spectral(m, xs), from_spectral(m, ys))
        wts = res.weights[res.alive]
        dev = abs(float(np.mean(wts)) - 1.0)
        se = float(np.std(wts, ddof=1) / np.sqrt(wts.size))
        oks.append(dev <= 3.0 * se)
        details.append(f"{name}: |mean-1|={dev:.1e} vs 3se={3 * se:.1e}")
    assert verdict(
        all(oks),
        "05 reweighting mass is conserved over 10^4 paths in 3 configurations: " + "; ".join(details),
    )


def test_06_pathwise_hoelder_chain():
    xi_est = check_noise_domination(M4, COEFFS).xi_estimate
    c = CoefficientSet(r=0.5, gamma=-0.2, xi=0.5 * xi_est)
    cfg = EnsembleConfig(T=0.25, n_paths=500, dt=1e-3, seed=3)
    res = run_coupled_ensemble(M4, c, cfg, from_spectral(M4, START4), from_spectral(M4, OTHER4))
    sched = res.schedule
    sig = c.sigma
    rhs = res.f_int ** ((sig - 2.0) / sig) * (sched.c**sig * sched.dist0 ** (2.0 * sched.epsilon)) ** (2.0 / sig)
    ratio = float(np.max(res.zeta_sq_int / rhs))
    assert verdict(
        res.n_blowups == 0 and ratio <= 1.0 + 1e-6,
        f"06 pathwise Hoelder chain for the attraction cost on all 500 paths: "
        f"max lhs/rhs {ratio:.6f} (allowed 1+1e-6)",
    )


def test_07_exponential_moment_bound():
    oks, details = [], []
    for name, m, xs in (("n=2", M2, np.array([0.3, -0.1])), ("n=4", M4, START4)):
        cfg = EnsembleConfig(T=0.25, n_paths=4000, dt=1e-3, seed=9)
        x = from_spectral(m, xs)
        rep = verify_exp_moment_bound(m, COEFFS, run_coupled_ensemble(m, COEFFS, cfg, x, x))
        s = rep["x_side"]
        oks.append(rep["holds"])
        details.append(f"{name}: mean {s['mean']:.3f} <= rhs {s['rhs']:.1f}, marginal={s['marginal']}")
    assert verdict(
        all(oks),
        "07 exponential moment of the nonlinearity integral stays below its bound: " + "; ".join(details),
    )


def test_08_harnack_verdicts():
    # the ensemble depends on the starts only: one run per distance serves
    # every (p, F)
    x = from_spectral(M4, START4)
    cfg = EnsembleConfig(T=0.25, n_paths=10_000, dt=1e-4, seed=21)
    e1 = M4.eigenfunctions[0] / norm_h(M4, M4.eigenfunctions[0])
    runs = {dist: run_coupled_ensemble(M4, COEFFS, cfg, x, x + dist * e1) for dist in (0.05, 0.1)}
    oks, details = [], []
    for p in (2.0, 4.0):
        for dist in (0.05, 0.1):
            for kind in ("exp_neg_h_sq", "rational_h"):
                F = make_test_function(M4, {"kind": kind})
                rep = verify_harnack(M4, COEFFS, runs[dist], p, F)
                oks.append(rep["holds"] and rep["coupled_fraction"] > 0.99)
                details.append(f"p={p:g} dist={dist:g} {kind}: holds={rep['holds']}")
    assert verdict(
        all(oks),
        "08 power-Harnack verdict holds for all 8 combinations at 10^4 paths, 5% slack: "
        + "; ".join(details),
    )


def test_09_closed_form_constants():
    m1 = build_model([1.0], [[-1.0]], [1.0])
    checks = []

    def close(a, b, rel=1e-12):
        checks.append(math.isclose(a, b, rel_tol=rel, abs_tol=0.0))

    base = CoefficientSet(r=0.5, gamma=0.0)
    close(exp_moment_weight(m1, base, 1.0), 0.5 * math.exp(-3.0))
    close(exp_moment_weight(m1, CoefficientSet(r=0.5, gamma=0.0, delta=2.0), 1.0),
          2.0 * exp_moment_weight(m1, base, 1.0))
    close(exp_moment_weight(m1, base, 1e-14), 0.5)
    close(log_moment_rate(m1, CoefficientSet(r=0.5, delta=1.0, eta=1.0)), 33.0)
    close(log_moment_rate(m1, CoefficientSet(r=0.5, delta=2.0, eta=1.0)), 9.0)
    close(coupling_gain(base, 0.3), 1.0)
    close(coupling_gain_int(base, 0.7), 0.7)
    close(coupling_gain(CoefficientSet(r=0.5, sigma=4.0, delta=16.0), 0.2), 2.0)
    close(coupling_gain_int(CoefficientSet(r=0.5, gamma=1.0), 1.0), 1.0 - math.exp(-1.0))
    close(
        harnack_rhs(m1, CoefficientSet(r=0.5, gamma=0.0, sigma=8.0 / 3.0), 1.0, 2.0, [0.0], [0.0]),
        math.exp(0.25 * (66.0 + 0.5 * math.exp(-3.0))),
    )
    for gamma in (0.0, -0.7):
        c = CoefficientSet(r=0.5, gamma=gamma)
        consts = constant_coefficient_constants(M4, c, 0.8)
        close(consts["exp_moment_weight"], exp_moment_weight(M4, c, 0.8))
        close(consts["log_moment_rate"], log_moment_rate(M4, c))
        close(consts["coupling_gain_int"], coupling_gain_int(c, 0.8))
        close(consts["coupling_gain_sq_int"], coupling_gain_sq_int(c, 0.8))
    n_bad = checks.count(False)
    assert verdict(
        n_bad == 0,
        f"09 closed-form constants match hand values and the independent constant-coefficient "
        f"route to 1e-12: {len(checks) - n_bad}/{len(checks)} identities",
    )


def test_10_condition_windows_and_series():
    checks = []

    def close(a, b):
        checks.append(math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0))

    ns = check_noise_sandwich(r=0.5, eps=0.25, alpha_decay=0.9)
    close(ns.numbers["eps_lo"], 1.0 / 6.0)
    close(ns.numbers["eps_hi"], 1.0 / 3.0)
    close(ns.numbers["lower_exponent"], 7.0 / 8.0)
    psw = check_power_spectrum_window(
        AsymptoticSpec(theta=1.0, rho=2.0, alpha=2.0, d=1.0, eps=0.25, r=0.5, sigma=8.0 / 3.0)
    )
    close(psw.numbers["theta_min"], 7.0 / 18.0)
    fp = check_fractional_power(
        AsymptoticSpec(theta=-2.0, rho=2.0, alpha=1.0, d=2.0, eps=0.5, r=0.5, sigma=8.0 / 3.0)
    )
    close(fp.numbers["alpha_min"], 2.0 / 3.0)
    sg = check_spectral_growth(
        AsymptoticSpec(theta=0.5, rho=1.0, d=0.5, eps=0.25, r=0.5, sigma=8.0 / 3.0)
    )
    close(sg.numbers["growth_exponent"], 7.0 / 32.0)

    cases = [
        (1.0, 2.0, 2.0, True),
        (0.5, 2.0, 1.75, True),
        (0.25, 2.0, 1.0, True),
        (1.0, 2.0, 1.5, False),
        (0.6, 2.0, 1.0, False),
        (1.0, 1.0, 1.0, False),
    ]
    i = np.arange(1, 1_000_001, dtype=float)
    agree = []
    for theta, rho, alpha, expect in cases:
        terms = i ** (2.0 * theta - alpha * rho)
        s6 = float(terms.sum())
        s5 = float(terms[:100_000].sum())
        oracle_converges = abs(s6 - s5) / s6 < 0.01
        rep = hs_check(AsymptoticSpec(theta=theta, rho=rho, alpha=alpha))
        agree.append(oracle_converges == expect and rep.holds == oracle_converges)
    n_bad = checks.count(False) + agree.count(False)
    assert verdict(
        n_bad == 0,
        f"10 condition windows reproduced to 1e-12 ({checks.count(True)}/{len(checks)}) and "
        f"series verdicts agree with 10^5-vs-10^6-term partial sums ({agree.count(True)}/{len(agree)})",
    )


def _self_convergence_slope(dt_base=1e-3, T=0.25, n_paths=256, seed=7):
    """Strong error of the default scheme against a dt/64 reference.

    All levels consume the same fine-grid Gaussian draws, so the coarse
    runs see block sums of the reference increments (common noise).
    Returns the log2 error ratios of the three dt halvings over the levels
    dt, dt/2, dt/4, dt/8.

    The expected strong order is 1.  The noise Q dW is additive, so the
    Euler scheme coincides with Milstein and converges at first order
    (Kloeden & Platen, *Numerical Solution of SDEs*, 1992, ch. 10); the
    1 + dt |b| taming perturbs the step by O(dt^2) and keeps that order.
    The half order of tamed Euler (Hutzenthaler, Jentzen & Kloeden, Ann.
    Appl. Probab. 2012) is the multiplicative-noise rate.  The classical
    first-order result assumes a C^2 drift, and Psi(s) ~ |s|^r is only
    Hoelder at 0, where paths do pass: no theorem covers this drift, and
    first order is the classical additive-noise rate that is also what is
    measured here.
    """
    n_fine = int(round(T / (dt_base / 64.0)))
    dt_fine = T / n_fine
    x0 = from_spectral(M4, np.array([0.6, -0.3, 0.2, 0.1]))
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal((n_fine, n_paths, M4.n))
    w = M4.space.weights
    sqdt = math.sqrt(dt_fine)

    def run(stride):
        dt = dt_fine * stride
        X = np.tile(x0, (n_paths, 1))
        t = 0.0
        for k0 in range(0, n_fine, stride):
            X = apply_drift(X, drift_eval(M4, COEFFS, X, t), dt, "tamed_euler", w)
            X = X + from_spectral(M4, M4.q_diag * xi[k0:k0 + stride].sum(axis=0) * sqdt)
            t += dt
        return X

    ref = run(1)
    errs = [
        float(np.sqrt(np.mean(norm_h(M4, run(64 // 2**k) - ref) ** 2)))
        for k in range(4)
    ]
    return [math.log2(errs[k] / errs[k + 1]) for k in range(3)]


def test_11_integrator_sanity():
    lam, gam, q1, x0, T = 1.3, -0.2, 0.5, 2.0, 0.5
    m1 = build_model([1.0], [[-lam]], [q1])
    c1 = CoefficientSet(r=0.5, gamma=gam, nonlinearity="identity")
    cfg = EnsembleConfig(T=T, n_paths=10_000, dt=5e-4, seed=13)
    est = estimate_ptf(m1, c1, cfg, x0 * m1.eigenfunctions[0], lambda X: to_spectral(m1, X)[..., 0])
    exact = x0 * math.exp(-(lam - gam) * T)
    dev = abs(est.mean - exact)
    ok_mean = dev <= 3.0 * est.stderr

    slopes = _self_convergence_slope()
    slope = sum(slopes) / len(slopes)
    ok_slope = 0.85 <= slope <= 1.15
    assert verdict(
        ok_mean and ok_slope,
        f"11 integrator sanity: linear-mode mean dev {dev:.1e} vs 3se {3 * est.stderr:.1e} "
        f"({'ok' if ok_mean else 'off'}); strong self-convergence order {slope:.2f} "
        f"(per halving {', '.join(f'{v:.2f}' for v in slopes)}) "
        f"vs target window [0.85, 1.15] ({'ok' if ok_slope else 'off'})",
    )


def test_12_invariant_measure_averages():
    c = CoefficientSet(r=0.5, gamma=-0.4)
    cfg = EnsembleConfig(T=40.0, n_paths=8, dt=1e-3, seed=17, burn_in=8.0)
    _, rep = estimate_invariant(M4, c, cfg)
    rel = rep["split_half"]["rel_diff"]["moment_rp1"]
    finite = all(math.isfinite(v) for v in rep["averages"].values())
    assert verdict(
        finite and rel <= 0.05,
        f"12 long-run averages: split-half agreement {rel:.1%} on the (r+1)-moment "
        f"(allowed 5%), all averages finite={finite}",
    )


def test_13_worker_reproducibility(tmp_path, capsys):
    base = {
        "model": {"n": 4, "q_diag": {"power": -0.5}},
        "coeffs": {"r": 0.5, "gamma": -0.2},
        "x": {"spectral": [0.35, -0.2, 0.1, -0.05]},
    }
    jobs = {
        "couple": dict(base, y={"spectral": [0.29, -0.16, 0.13, -0.02]},
                       run={"n_paths": 2304, "dt": 1e-3, "T": 0.1, "seed": 41}),
        "simulate": dict(base, run={"n_paths": 1280, "dt": 1e-3, "T": 0.1, "seed": 42}),
        "invariant": dict(base, coeffs={"r": 0.5, "gamma": -0.4}, thin=2,
                          run={"n_paths": 1100, "dt": 1e-3, "T": 0.1, "burn_in": 0.02, "seed": 43}),
    }
    oks, details = [], []
    for cmd, payload in jobs.items():
        path = tmp_path / f"{cmd}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        outs = []
        for workers in (1, 2, 8):
            for _ in range(2):
                rc = main([cmd, "--config", str(path), "--workers", str(workers)])
                outs.append(capsys.readouterr().out)
                oks.append(rc == 0)
        oks.append(len(set(outs)) == 1)
        details.append(f"{cmd}: {len(outs)} runs, {len(set(outs))} distinct output(s)")
    assert verdict(
        all(oks),
        "13 byte-identical stdout under 1, 2, 8 workers and reruns: " + "; ".join(details),
    )
