"""Config documents: schema validation and object construction.

A config is a plain JSON document with blocks "model", "coeffs", and
"run" plus command-specific keys.  Validation walks the whole document
and collects every violation with its dotted key path before raising,
so a broken config surfaces all of its problems in one round trip.
Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SCHEMES, CoefficientSet
from .errors import FastDiffusionError, SchemaError
from .montecarlo import EnsembleConfig
from .schedules import PiecewiseConstant
from .spectral import SpectralModel, from_spectral, model_from_spec

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "validate_config",
    "COMMANDS",
    "TEST_FUNCTION_KINDS",
    "CONDITION_CHECKS",
]

COMMANDS = (
    "bounds",
    "conditions",
    "simulate",
    "couple",
    "harnack-check",
    "moments",
    "invariant",
    "probe-feller",
)

TEST_FUNCTION_KINDS = ("exp_neg_h_sq", "rational_h", "indicator_ball")

CONDITION_CHECKS = (
    "hs",
    "noise_domination",
    "spectral_growth",
    "noise_sandwich",
    "power_spectrum_window",
    "fractional_power",
    "embedding",
)

# keys each command accepts beyond the common blocks, and which of the
# common blocks it needs at all
_COMMAND_KEYS = {
    "bounds": {"required": ("model", "coeffs", "run", "x", "y"), "optional": ("p",)},
    "conditions": {"required": ("conditions",), "optional": ("model", "coeffs")},
    "simulate": {"required": ("model", "coeffs", "run", "x"), "optional": ("test_function",)},
    "couple": {
        "required": ("model", "coeffs", "run", "x", "y"),
        "optional": ("couple_tol", "sample_paths", "record_every"),
    },
    "harnack-check": {
        "required": ("model", "coeffs", "run", "x", "y", "p"),
        "optional": ("slack", "test_function", "couple_tol"),
    },
    "moments": {
        "required": ("model", "coeffs", "run", "x", "y"),
        "optional": ("exponent", "test_function", "couple_tol"),
    },
    "invariant": {"required": ("model", "coeffs", "run"), "optional": ("x", "thin", "eps0")},
    "probe-feller": {
        "required": ("model", "coeffs", "run", "x"),
        "optional": ("test_function", "radii"),
    },
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


class _Collector:
    def __init__(self):
        self.violations: list[str] = []

    def fail(self, path: str, msg: str):
        self.violations.append(f"{path}: {msg}")

    def raise_if_failed(self):
        if self.violations:
            raise SchemaError(
                "configuration invalid:\n  " + "\n  ".join(self.violations)
            )


def _check_keys(ck: _Collector, d: dict, path: str, allowed):
    for key in d:
        if key not in allowed:
            ck.fail(f"{path}.{key}" if path else key, "unknown key")


def _check_schedule(ck: _Collector, v, path: str, positive: bool):
    """A coefficient is a number or {"breaks": [...], "values": [...]}."""
    if _is_num(v):
        if positive and not v > 0.0:
            ck.fail(path, "must be strictly positive")
        return
    if isinstance(v, dict):
        _check_keys(ck, v, path, ("breaks", "values"))
        breaks = v.get("breaks")
        values = v.get("values")
        ok = True
        if not (isinstance(breaks, list) and all(_is_num(b) for b in breaks) and breaks):
            ck.fail(f"{path}.breaks", "must be a nonempty list of finite numbers")
            ok = False
        if not (isinstance(values, list) and all(_is_num(b) for b in values) and values):
            ck.fail(f"{path}.values", "must be a nonempty list of finite numbers")
            ok = False
        if not ok:
            return
        if breaks[0] != 0.0:
            ck.fail(f"{path}.breaks", "must start at 0.0")
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            ck.fail(f"{path}.breaks", "must be strictly increasing")
        if len(values) != len(breaks):
            ck.fail(f"{path}.values", "must have one value per break")
        elif positive and any(not val > 0.0 for val in values):
            ck.fail(f"{path}.values", "must be strictly positive")
        return
    ck.fail(path, "must be a number or {breaks, values}")


def _check_model(ck: _Collector, m, path: str = "model"):
    if not isinstance(m, dict):
        ck.fail(path, "must be an object")
        return
    _check_keys(ck, m, path, ("n", "measure", "operator", "alpha", "q_diag"))
    n = m.get("n")
    if not (_is_int(n) and n >= 1):
        ck.fail(f"{path}.n", "must be a positive integer")
        n = None
    measure = m.get("measure", "uniform")
    if measure != "uniform":
        if not (isinstance(measure, list) and all(_is_num(w) and w > 0.0 for w in measure)):
            ck.fail(f"{path}.measure", 'must be "uniform" or a list of positive weights')
        elif n is not None and len(measure) != n:
            ck.fail(f"{path}.measure", f"must have n = {n} entries")
    op = m.get("operator", "dirichlet1d")
    if op != "dirichlet1d":
        if not (isinstance(op, dict) and set(op) == {"matrix"}):
            ck.fail(f"{path}.operator", 'must be "dirichlet1d" or {"matrix": [[...]]}')
        else:
            rows = op["matrix"]
            square = (
                isinstance(rows, list)
                and rows
                and all(
                    isinstance(row, list)
                    and len(row) == len(rows)
                    and all(_is_num(vv) for vv in row)
                    for row in rows
                )
            )
            if not square:
                ck.fail(f"{path}.operator.matrix", "must be a square matrix of finite numbers")
            elif n is not None and len(rows) != n:
                ck.fail(f"{path}.operator.matrix", f"must be {n} x {n}")
    alpha = m.get("alpha")
    if alpha is not None and not (_is_num(alpha) and alpha > 0.0):
        ck.fail(f"{path}.alpha", "must be a positive number")
    if "q_diag" not in m:
        ck.fail(f"{path}.q_diag", "is required")
    else:
        q = m["q_diag"]
        if isinstance(q, dict):
            _check_keys(ck, q, f"{path}.q_diag", ("power",))
            if not _is_num(q.get("power")):
                ck.fail(f"{path}.q_diag.power", "must be a finite number")
        elif isinstance(q, list):
            if not all(_is_num(v) and v != 0.0 for v in q):
                ck.fail(f"{path}.q_diag", "entries must be finite and nonzero")
            elif n is not None and len(q) != n:
                ck.fail(f"{path}.q_diag", f"must have n = {n} entries")
        else:
            ck.fail(f"{path}.q_diag", 'must be {"power": p} or a list')


def _check_coeffs(ck: _Collector, c, path: str = "coeffs"):
    if not isinstance(c, dict):
        ck.fail(path, "must be an object")
        return
    _check_keys(ck, c, path, ("r", "delta", "eta", "gamma", "xi", "sigma"))
    r = c.get("r")
    if not _is_num(r):
        ck.fail(f"{path}.r", "is required and must be a finite number")
        r = None
    elif not (0.0 < r < 1.0):
        ck.fail(f"{path}.r", "must be in (0, 1)")
        r = None
    for key, positive in (("delta", True), ("eta", True), ("gamma", False), ("xi", True)):
        if key in c:
            _check_schedule(ck, c[key], f"{path}.{key}", positive)
    sigma = c.get("sigma")
    if sigma is not None:
        if not _is_num(sigma):
            ck.fail(f"{path}.sigma", "must be a finite number")
        elif r is not None and sigma < 4.0 / (1.0 + r):
            ck.fail(f"{path}.sigma", f"must be >= 4/(1+r) = {4.0 / (1.0 + r)!r}")


def _check_run(ck: _Collector, rn, path: str = "run", need_burn_in: bool = False):
    if not isinstance(rn, dict):
        ck.fail(path, "must be an object")
        return
    _check_keys(ck, rn, path, ("n_paths", "dt", "T", "seed", "burn_in", "scheme", "n_workers"))
    T = rn.get("T")
    if not (_is_num(T) and T > 0.0):
        ck.fail(f"{path}.T", "is required and must be a positive number")
        T = None
    dt = rn.get("dt", 1e-3)
    if not (_is_num(dt) and dt > 0.0):
        ck.fail(f"{path}.dt", "must be a positive number")
        dt = None
    if T is not None and dt is not None:
        n_steps = round(T / dt)
        if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
            ck.fail(f"{path}.T", f"must be an integer number of dt = {dt!r} steps")
    n_paths = rn.get("n_paths", 1000)
    if not (_is_int(n_paths) and n_paths >= 2):
        ck.fail(f"{path}.n_paths", "must be an integer >= 2")
    seed = rn.get("seed", 0)
    if not (_is_int(seed) and seed >= 0):
        ck.fail(f"{path}.seed", "must be a nonnegative integer")
    burn_in = rn.get("burn_in", 0.0)
    if not (_is_num(burn_in) and burn_in >= 0.0):
        ck.fail(f"{path}.burn_in", "must be a nonnegative number")
    elif T is not None and burn_in >= T:
        ck.fail(f"{path}.burn_in", "must be smaller than T")
    elif need_burn_in and burn_in == 0.0:
        ck.fail(f"{path}.burn_in", "must be positive for this command")
    scheme = rn.get("scheme", "tamed_euler")
    if scheme not in SCHEMES:
        ck.fail(f"{path}.scheme", f"must be one of {list(SCHEMES)}")
    n_workers = rn.get("n_workers", 1)
    if not (_is_int(n_workers) and n_workers >= 1):
        ck.fail(f"{path}.n_workers", "must be an integer >= 1")


def _check_state(ck: _Collector, v, path: str, n: int | None):
    if isinstance(v, dict):
        _check_keys(ck, v, path, ("spectral",))
        v = v.get("spectral")
        path = f"{path}.spectral"
    if not (isinstance(v, list) and v and all(_is_num(e) for e in v)):
        ck.fail(path, "must be a list of finite numbers (optionally under 'spectral')")
    elif n is not None and len(v) != n:
        ck.fail(path, f"must have n = {n} entries")


def _check_test_function(ck: _Collector, v, path: str, n: int | None):
    if not isinstance(v, dict):
        ck.fail(path, "must be an object with a 'kind'")
        return
    kind = v.get("kind")
    if kind not in TEST_FUNCTION_KINDS:
        ck.fail(f"{path}.kind", f"must be one of {list(TEST_FUNCTION_KINDS)}")
        return
    if kind == "indicator_ball":
        _check_keys(ck, v, path, ("kind", "center", "radius"))
        if "center" not in v:
            ck.fail(f"{path}.center", "is required for indicator_ball")
        else:
            _check_state(ck, v["center"], f"{path}.center", n)
        radius = v.get("radius")
        if not (_is_num(radius) and radius > 0.0):
            ck.fail(f"{path}.radius", "must be a positive number")
    else:
        _check_keys(ck, v, path, ("kind",))


_CHECK_PARAMS = {
    "hs": ("theta", "rho", "alpha"),
    "noise_domination": ("n_samples", "seed"),
    "embedding": ("n_samples", "seed"),
    "spectral_growth": ("theta", "rho", "eig_c", "d", "eps", "r", "sigma"),
    "noise_sandwich": ("r", "eps", "alpha_decay", "theta", "c1", "c2", "use_model"),
    "power_spectrum_window": ("theta", "d", "eps", "alpha", "r", "sigma"),
    "fractional_power": ("theta", "rho", "alpha", "d", "eps", "r", "sigma"),
}

_CHECK_REQUIRED = {
    "spectral_growth": ("theta", "d", "eps"),
    "noise_sandwich": ("eps", "alpha_decay"),
    "power_spectrum_window": ("theta", "d", "eps"),
    "fractional_power": ("theta", "alpha", "d", "eps"),
}

# checks that can only run against a concrete model (and coefficients)
_MODEL_CHECKS = ("noise_domination", "embedding")


def _check_conditions(ck: _Collector, v, path: str, have_model: bool, have_coeffs: bool):
    if not (isinstance(v, list) and v):
        ck.fail(path, "must be a nonempty list of checks")
        return
    for i, entry in enumerate(v):
        epath = f"{path}[{i}]"
        if not isinstance(entry, dict):
            ck.fail(epath, "must be an object")
            continue
        name = entry.get("check")
        if name not in CONDITION_CHECKS:
            ck.fail(f"{epath}.check", f"must be one of {list(CONDITION_CHECKS)}")
            continue
        _check_keys(ck, entry, epath, ("check",) + _CHECK_PARAMS[name])
        for key in _CHECK_REQUIRED.get(name, ()):
            if key not in entry:
                ck.fail(f"{epath}.{key}", f"is required for check {name!r}")
        for key in _CHECK_PARAMS[name]:
            if key not in entry:
                continue
            val = entry[key]
            if key in ("n_samples", "seed"):
                if not (_is_int(val) and val >= (1 if key == "n_samples" else 0)):
                    ck.fail(f"{epath}.{key}", "must be a nonnegative integer" if key == "seed" else "must be a positive integer")
            elif key == "use_model":
                if not isinstance(val, bool):
                    ck.fail(f"{epath}.{key}", "must be a boolean")
            elif not _is_num(val):
                ck.fail(f"{epath}.{key}", "must be a finite number")
        needs_model = name in _MODEL_CHECKS or (
            name == "hs" and "theta" not in entry
        ) or entry.get("use_model")
        if needs_model and not have_model:
            ck.fail(epath, f"check {name!r} needs a 'model' block")
        if name in _MODEL_CHECKS and not have_coeffs:
            ck.fail(epath, f"check {name!r} needs a 'coeffs' block")
        if name in _CHECK_REQUIRED and "r" not in entry and not have_coeffs:
            ck.fail(f"{epath}.r", f"is required for check {name!r} without a 'coeffs' block")


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config with its heavyweight objects built."""

    command: str
    model: SpectralModel | None
    coeffs: CoefficientSet | None
    run: EnsembleConfig | None
    extras: dict
    document: dict

    def state(self, key: str) -> np.ndarray:
        return self.extras[key]


def validate_config(raw: dict, command: str) -> ExperimentConfig:
    """Validate a config document for one command and build its objects.

    Raises SchemaError listing every violation with its key path.
    """
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}; expected one of {list(COMMANDS)}")
    ck = _Collector()
    if not isinstance(raw, dict):
        ck.fail("config", "must be a JSON object")
        ck.raise_if_failed()
    spec = _COMMAND_KEYS[command]
    allowed = set(spec["required"]) | set(spec["optional"])
    _check_keys(ck, raw, "", allowed)
    for key in spec["required"]:
        if key not in raw:
            ck.fail(key, f"is required for command {command!r}")

    n = None
    if "model" in raw:
        _check_model(ck, raw["model"], "model")
        if isinstance(raw["model"], dict) and _is_int(raw["model"].get("n")):
            n = raw["model"]["n"]
    if "coeffs" in raw:
        _check_coeffs(ck, raw["coeffs"], "coeffs")
    if "run" in raw:
        _check_run(ck, raw["run"], "run", need_burn_in=(command == "invariant"))
    for key in ("x", "y"):
        if key in raw:
            _check_state(ck, raw[key], key, n)

    if "p" in raw and not (_is_num(raw["p"]) and raw["p"] > 1.0):
        ck.fail("p", "must be a number > 1")
    if "slack" in raw and not (_is_num(raw["slack"]) and raw["slack"] >= 0.0):
        ck.fail("slack", "must be a nonnegative number")
    if "exponent" in raw and not _is_num(raw["exponent"]):
        ck.fail("exponent", "must be a finite number")
    if "couple_tol" in raw and not (_is_num(raw["couple_tol"]) and raw["couple_tol"] > 0.0):
        ck.fail("couple_tol", "must be a positive number")
    if "sample_paths" in raw and not (_is_int(raw["sample_paths"]) and raw["sample_paths"] >= 0):
        ck.fail("sample_paths", "must be a nonnegative integer")
    if "record_every" in raw and not (_is_int(raw["record_every"]) and raw["record_every"] >= 1):
        ck.fail("record_every", "must be an integer >= 1")
    if "thin" in raw and not (_is_int(raw["thin"]) and raw["thin"] >= 1):
        ck.fail("thin", "must be an integer >= 1")
    if "eps0" in raw and not (_is_num(raw["eps0"]) and raw["eps0"] > 0.0):
        ck.fail("eps0", "must be a positive number")
    if "radii" in raw:
        radii = raw["radii"]
        if not (
            isinstance(radii, list)
            and radii
            and all(_is_num(h) and h > 0.0 for h in radii)
        ):
            ck.fail("radii", "must be a nonempty list of positive numbers")
    if "test_function" in raw:
        _check_test_function(ck, raw["test_function"], "test_function", n)
    if "conditions" in raw:
        _check_conditions(ck, raw["conditions"], "conditions", "model" in raw, "coeffs" in raw)
    ck.raise_if_failed()

    return _build(ck, raw, command)


def _build(ck: _Collector, raw: dict, command: str) -> ExperimentConfig:
    model = None
    if "model" in raw:
        try:
            model = model_from_spec(raw["model"])
        except (FastDiffusionError, ValueError) as exc:
            ck.fail("model", str(exc))
    coeffs = None
    if "coeffs" in raw:
        c = raw["coeffs"]
        kwargs = {"r": float(c["r"])}
        for key in ("delta", "eta", "gamma", "xi"):
            if key in c:
                kwargs[key] = _to_schedule_arg(c[key])
        if "sigma" in c:
            kwargs["sigma"] = float(c["sigma"])
        try:
            coeffs = CoefficientSet(**kwargs)
        except ValueError as exc:
            ck.fail("coeffs", str(exc))
    run = None
    if "run" in raw:
        rn = raw["run"]
        try:
            run = EnsembleConfig(
                n_paths=rn.get("n_paths", 1000),
                dt=float(rn.get("dt", 1e-3)),
                T=float(rn["T"]),
                seed=rn.get("seed", 0),
                burn_in=float(rn.get("burn_in", 0.0)),
                scheme=rn.get("scheme", "tamed_euler"),
                n_workers=rn.get("n_workers", 1),
            )
        except (FastDiffusionError, ValueError) as exc:
            ck.fail("run", str(exc))
    ck.raise_if_failed()

    extras: dict = {}
    for key in ("x", "y"):
        if key in raw:
            extras[key] = _resolve_state(model, raw[key])
    for key in ("p", "slack", "exponent", "couple_tol", "eps0"):
        if key in raw:
            extras[key] = float(raw[key])
    for key in ("sample_paths", "record_every", "thin"):
        if key in raw:
            extras[key] = int(raw[key])
    if "radii" in raw:
        extras["radii"] = [float(h) for h in raw["radii"]]
    if "test_function" in raw:
        extras["test_function"] = raw["test_function"]
    if "conditions" in raw:
        extras["conditions"] = raw["conditions"]

    document = dict(raw)
    if run is not None:
        # n_workers is execution plumbing, not an input to the math: it is
        # kept out of the echo so verdicts are byte-identical across worker
        # counts.
        document["run"] = {
            "n_paths": run.n_paths,
            "dt": run.dt,
            "T": run.T,
            "seed": run.seed,
            "burn_in": run.burn_in,
            "scheme": run.scheme,
        }
    return ExperimentConfig(
        command=command, model=model, coeffs=coeffs, run=run,
        extras=extras, document=document,
    )


def _to_schedule_arg(v):
    if isinstance(v, dict):
        return PiecewiseConstant(v["breaks"], v["values"])
    return float(v)


def _resolve_state(model: SpectralModel | None, v) -> np.ndarray:
    if isinstance(v, dict):
        coords = np.asarray(v["spectral"], dtype=float)
        return from_spectral(model, coords)
    return np.asarray(v, dtype=float)


def parse_config(path: str, command: str) -> ExperimentConfig:
    """Load a JSON config file and validate it for the given command."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw, command)
