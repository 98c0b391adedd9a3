"""The benchmark's three workloads: inputs, CLI commands and output checks.

Every workload runs the public entry point ``fastdiffusion.cli.main`` on
the four-mode Dirichlet model with q_i = i^-0.5 and r = 0.5, starting from
the states of the acceptance tests.  The workload seed becomes the run
seed (and the sampling seed of the condition checks), so one seed gives
one set of inputs.  A check raises ``CheckFailed``; estimates are compared
with ``reference.json`` (written by ``make_reference.py``) within a
statistical tolerance, so any seed passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

MODEL = {"n": 4, "q_diag": {"power": -0.5}}
X_NEAR = {"spectral": [0.35, -0.20, 0.10, -0.05]}
Y_NEAR = {"spectral": [0.29, -0.16, 0.13, -0.02]}
Y_FAR = {"spectral": [20.0, 0.0, 0.0, 0.0]}
HARNACK_RUN = {"dt": 1e-4, "T": 0.25}

Z = 5.0  # tolerance in combined standard errors for estimates
INVARIANT_REF_PATHS = 64

CLOSED_FORM_CHECKS = [
    {"check": "hs"},
    {"check": "hs", "theta": 1.0, "rho": 2.0, "alpha": 2.0},
    {"check": "noise_sandwich", "eps": 0.25, "alpha_decay": 0.9},
    {"check": "power_spectrum_window", "theta": 1.0, "alpha": 2.0, "d": 1.0, "eps": 0.25},
    {"check": "fractional_power", "theta": 1.4, "rho": 2.0, "alpha": 2.0, "d": 2.0, "eps": 0.5},
    {"check": "spectral_growth", "theta": 0.48, "rho": 2.0, "d": 0.5, "eps": 0.2, "r": 1.0 / 3.0, "sigma": 3.0},
]


class CheckFailed(Exception):
    """An op's exit code or output is not what the workload expects."""


@dataclass
class Outcome:
    """What one ``main`` call left behind: exit code, streams, and the
    exception that escaped it, if any."""

    code: int | None
    stdout: str
    stderr: str
    error: Exception | None = None


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple
    check: Callable[[Outcome], None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: dict
    ops: tuple  # run in this order, cycling
    path_steps: int  # ensemble path-steps per op; 0 when no ensemble runs
    n_steps: int  # time steps of the ensemble; 0 when none runs
    min_ops: int


def execute(op: Op, call: Callable) -> tuple[Outcome, float]:
    """Run one CLI op through ``call(argv)``; return its outcome and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(list(op.argv))
    except Exception as exc:  # an escaped exception fails this op, not the run
        error = exc
    seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue(), err.getvalue(), error), seconds


def judge(op: Op, res: Outcome) -> str | None:
    """None when the op passed, else why it failed."""
    if res.error is not None:
        return f"exception: {type(res.error).__name__}: {res.error}"
    try:
        op.check(res)
    except CheckFailed as exc:
        return f"check: {exc}"
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"check: malformed record ({type(exc).__name__}: {exc})"
    return None


def _need(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _record(res: Outcome, code: int = 0) -> dict:
    _need(res.code == code, f"exit code {res.code}, expected {code}: {res.stderr.strip()[:200]}")
    try:
        return json.loads(res.stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not one JSON record: {exc}") from None


def _near(est: dict, ref_mean: float, ref_se: float, what: str):
    tol = Z * math.hypot(est["stderr"], ref_se)
    _need(
        math.isfinite(est["mean"]) and abs(est["mean"] - ref_mean) <= tol,
        f"{what} {est['mean']!r} differs from reference {ref_mean!r} by more than {tol:.3g}",
    )


def _same_numbers(got, ref, what: str, rel: float = 1e-9):
    """Recursive equality with a relative tolerance on floats."""
    if isinstance(ref, dict):
        _need(isinstance(got, dict) and set(got) == set(ref), f"{what}: keys differ")
        for k in ref:
            _same_numbers(got[k], ref[k], f"{what}.{k}", rel)
    elif isinstance(ref, list):
        _need(isinstance(got, list) and len(got) == len(ref), f"{what}: lengths differ")
        for i, (g, r) in enumerate(zip(got, ref)):
            _same_numbers(g, r, f"{what}[{i}]", rel)
    elif isinstance(ref, float) and not isinstance(got, bool):
        _need(isinstance(got, (int, float)) and math.isclose(got, ref, rel_tol=rel, abs_tol=1e-300),
              f"{what}: {got!r} != {ref!r}")
    else:
        _need(got == ref, f"{what}: {got!r} != {ref!r}")


def load_reference() -> dict:
    path = HERE / "reference.json"
    if not path.is_file():
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_config(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _harnack(seed, workdir, tiny, ref):
    n_paths = 16 if tiny else 1024
    run = dict(HARNACK_RUN, n_paths=n_paths, seed=seed)
    cfg = _write_config(workdir, "harnack.json", {
        "model": MODEL, "coeffs": {"r": 0.5, "gamma": -0.2}, "run": run,
        "x": X_NEAR, "y": Y_NEAR, "p": 2.0,
    })

    def check(res):
        out = _record(res)["outputs"]
        _need(out["holds"] is True, "Harnack verdict does not hold")
        _need(out["coupled_fraction"] > 0.99, f"coupled_fraction {out['coupled_fraction']}")
        _need(out["n_blowups"] == 0, f"{out['n_blowups']} blow-ups")
        _near(out["mean_weight"], 1.0, 0.0, "mean change-of-measure weight")
        for key in ("weighted_estimate", "plain_p_estimate"):
            _near(out[key], *ref["harnack"][key], key)

    steps = round(run["T"] / run["dt"])
    return Workload(
        name="harnack",
        why="coupled pair kernel on full 1024-path chunks, one worker, no table: per-row kernel work",
        inputs={"command": "harnack-check", "paths": n_paths, "steps": steps, "workers": 1,
                "format": "json", "p": 2.0, "gamma": -0.2},
        ops=(Op("harnack-check", ("harnack-check", "--config", cfg, "--workers", "1"), check),),
        path_steps=n_paths * steps, n_steps=steps, min_ops=1,
    )


def _invariant(seed, workdir, tiny, ref):
    n_paths = 4 if tiny else INVARIANT_REF_PATHS
    run = {"n_paths": n_paths, "dt": 1e-3, "T": 40.0, "burn_in": 8.0, "seed": seed}
    thin = 10
    cfg = _write_config(workdir, "invariant.json", {
        "model": MODEL, "coeffs": {"r": 0.5, "gamma": -0.4}, "run": run, "thin": thin,
    })
    steps = round(run["T"] / run["dt"])
    kept = (steps - round(run["burn_in"] / run["dt"])) // thin
    # the reference spread is between seeds at 64 paths; it shrinks as 1/sqrt(paths)
    widen = math.sqrt(INVARIANT_REF_PATHS / n_paths)

    def check(res):
        out = _record(res)["outputs"]
        _need(out["n_samples"] == kept * n_paths, f"n_samples {out['n_samples']}")
        avg = out["averages"]
        for key in ("moment_rp1", "exp_h_rp1", "exp_h_sq"):
            _need(avg.get(key) is not None and math.isfinite(avg[key]), f"average {key} not finite")
            mean, sd = ref["invariant"][key]
            _need(abs(avg[key] - mean) <= 6.0 * sd * widen,
                  f"average {key} {avg[key]!r} far from reference {mean!r}")
        _need(all(v is not None for v in out["split_half"]["rel_diff"].values()), "split-half not finite")

    return Workload(
        name="invariant",
        why="one small chunk over 40000 steps of the plain ensemble loop: per-step overhead and kept snapshots",
        inputs={"command": "invariant", "paths": n_paths, "steps": steps, "workers": 1, "format": "json",
                "thin": thin, "burn_in": run["burn_in"], "gamma": -0.4},
        ops=(Op("invariant", ("invariant", "--config", cfg), check),),
        path_steps=n_paths * steps, n_steps=steps, min_ops=1,
    )


def _desk(seed, workdir, tiny, ref):
    base = {"model": MODEL, "coeffs": {"r": 0.5, "gamma": -0.2}, "x": X_NEAR, "p": 2.0}
    near = _write_config(workdir, "bounds_near.json", dict(
        base, y=Y_NEAR, run=dict(HARNACK_RUN, seed=seed)))
    far = _write_config(workdir, "bounds_far.json", dict(
        base, y=Y_FAR, run={"dt": 1e-4, "T": 0.01, "seed": seed}))
    n_samples = 2000
    cond = _write_config(workdir, "conditions.json", {
        "model": MODEL, "coeffs": {"r": 0.5, "gamma": -0.2, "xi": 0.01},
        "conditions": [
            {"check": "noise_domination", "n_samples": n_samples, "seed": seed},
            {"check": "embedding", "n_samples": n_samples, "seed": seed},
        ] + CLOSED_FORM_CHECKS,
    })
    desk_ref = ref.get("desk", {})

    def check_near(res):
        _same_numbers(_record(res)["outputs"], desk_ref["bounds_near"], "bounds")

    def check_far(res):
        # a record or a one-line error both count; an uncaught exception does not
        if res.code == 1:
            lines = res.stderr.strip().splitlines()
            _need(len(lines) == 1 and lines[0].startswith("error:"), "exit 1 without a one-line error")
            return
        rhs = _record(res)["outputs"].get("harnack_rhs")
        _need(rhs is None or rhs > 0.0, f"harnack_rhs {rhs!r}")

    def check_conditions(res):
        out = _record(res)["outputs"]
        reports = out["reports"]
        _need(out["all_hold"] is True and len(reports) == 2 + len(CLOSED_FORM_CHECKS), "reports")
        for rep, key in zip(reports[:2], ("min_ratio", "embedding_constant")):
            lo, hi = desk_ref[key]
            value = rep["numbers"][key]
            _need(rep["holds"] is True and lo <= value <= hi, f"{key} {value!r} outside [{lo}, {hi}]")
        _same_numbers([{"holds": r["holds"], "numbers": r["numbers"]} for r in reports[2:]],
                      desk_ref["closed_form"], "closed-form checks")

    return Workload(
        name="desk",
        why="closed loop of bounds (near y), bounds (distant y) and sampled conditions: no ensemble runs",
        inputs={"commands": ["bounds near-y p=2", "bounds y=20e_1 T=0.01 p=2", "conditions"],
                "samples": n_samples, "clients": 1, "loop": "closed", "format": "json"},
        ops=(
            Op("bounds_near", ("bounds", "--config", near), check_near),
            Op("bounds_far", ("bounds", "--config", far), check_far),
            Op("conditions", ("conditions", "--config", cond), check_conditions),
        ),
        path_steps=0, n_steps=0, min_ops=3 if tiny else 200,
    )


BY_NAME = {"harnack": _harnack, "invariant": _invariant, "desk": _desk}


def build(name: str, seed: int, workdir: Path, tiny: bool = False, ref: dict | None = None) -> Workload:
    """Write the workload's config files into workdir and return its ops."""
    return BY_NAME[name](seed, Path(workdir), tiny, load_reference() if ref is None else ref)
