"""Config documents: one schema table, validation and object construction.

A config is a plain JSON document with blocks "model", "coeffs", and
"run" plus command-specific keys.  ``_SCHEMA`` states each key once: its
path, type, range, default and the commands that accept it.  Validation
walks the document against the table and collects every violation with
its dotted key path before raising, so a broken config surfaces all of
its problems in one round trip.  Unknown keys are rejected everywhere.
Every absent optional key is filled in with its table default, so the
commands read no default of their own.  A default that a library
function or constructor already declares is read from its signature.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conditions import AsymptoticSpec, check_noise_domination, check_noise_sandwich
from .dynamics import SCHEMES, CoefficientSet, _sigma_floor
from .errors import FastDiffusionError, NotSelfAdjoint, SchemaError
from .montecarlo import (
    EnsembleConfig,
    estimate_invariant,
    estimate_weighted,
    run_coupled_ensemble,
    strong_feller_probe,
    verify_harnack,
)
from .schedules import PiecewiseConstant
from .spectral import _MODEL_DEFAULTS, SpectralModel, from_spectral, model_from_spec

__all__ = [
    "ExperimentConfig",
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


@dataclass(frozen=True)
class _Key:
    """One row of the schema.

    path is the dotted key path; a condition entry's parameter is
    "conditions[].name".  kind names the value type, checked by
    _KINDS[kind].  commands are the commands that accept the key
    (for an entry parameter the checks, for a test-function key the
    kinds), required those of them that need it.  Numbers, list entries
    and schedule values must lie in [lo, hi]; lo_open and hi_open make a
    bound strict.  note describes a default derived from other keys.  A
    number becomes a float unless verbatim (the record echoes it as written).
    """

    path: str
    kind: str
    commands: tuple
    required: tuple = ()
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    default: object = None
    note: str = ""
    choices: tuple = ()
    verbatim: bool = False

    @cached_property
    def parent(self) -> str:
        return self.path.rpartition(".")[0]

    @cached_property
    def name(self) -> str:
        return self.path.rpartition(".")[2]

    def bounds(self) -> str:
        """The range as text: "in (0, 1)", "> 0", ">= 2", or ""."""
        if self.lo is not None and self.hi is not None:
            left = "(" if self.lo_open else "["
            right = ")" if self.hi_open else "]"
            return f"in {left}{self.lo:g}, {self.hi:g}{right}"
        if self.lo is not None:
            return f"{'>' if self.lo_open else '>='} {self.lo:g}"
        return ""

    def admits(self, v) -> bool:
        if self.lo is not None and not (v > self.lo if self.lo_open else v >= self.lo):
            return False
        return self.hi is None or (v < self.hi if self.hi_open else v <= self.hi)


def _default(fn, name: str):
    """The default that fn declares for its parameter name."""
    return inspect.signature(fn).parameters[name].default


_RUN_COMMANDS = tuple(c for c in COMMANDS if c != "conditions")
_PAIR_COMMANDS = ("couple", "harnack-check", "moments")
_MODEL_CHECKS = ("noise_domination", "embedding")
_CLOSED_FORM = ("spectral_growth", "power_spectrum_window", "fractional_power")
_R_CHECKS = _CLOSED_FORM + ("noise_sandwich",)
_POSITIVE = {"lo": 0.0, "lo_open": True}

_SCHEMA = (
    _Key("model", "block", COMMANDS, _RUN_COMMANDS),
    _Key("coeffs", "block", COMMANDS, _RUN_COMMANDS),
    _Key("run", "block", _RUN_COMMANDS, _RUN_COMMANDS),
    _Key("x", "state", _RUN_COMMANDS, tuple(c for c in _RUN_COMMANDS if c != "invariant"),
         note="zero state"),
    _Key("y", "state", ("bounds",) + _PAIR_COMMANDS, ("bounds",) + _PAIR_COMMANDS),
    _Key("p", "num", ("bounds", "harnack-check"), ("harnack-check",), lo=1.0, lo_open=True),
    _Key("slack", "num", ("harnack-check",), lo=0.0, default=_default(verify_harnack, "slack")),
    _Key("exponent", "num", ("moments",), default=_default(estimate_weighted, "exponent")),
    _Key("couple_tol", "num", _PAIR_COMMANDS, **_POSITIVE, note="1e-6 × starting H distance"),
    _Key("sample_paths", "int", ("couple",), lo=0, default=4),
    _Key("record_every", "int", ("couple",), lo=1,
         default=_default(run_coupled_ensemble, "record_every")),
    _Key("thin", "int", ("invariant",), lo=1, default=_default(estimate_invariant, "thin")),
    _Key("eps0", "num", ("invariant",), **_POSITIVE, default=_default(estimate_invariant, "eps0")),
    _Key("radii", "nums", ("probe-feller",), **_POSITIVE,
         default=list(_default(strong_feller_probe, "radii"))),
    _Key("test_function", "test_function", ("simulate", "harnack-check", "probe-feller"),
         default={"kind": "exp_neg_h_sq"}),
    _Key("test_function", "test_function", ("moments",), note="F = 1"),
    _Key("conditions", "checks", ("conditions",), ("conditions",)),
    _Key("test_function.kind", "choice", TEST_FUNCTION_KINDS, TEST_FUNCTION_KINDS,
         choices=TEST_FUNCTION_KINDS),
    _Key("test_function.center", "state", ("indicator_ball",), ("indicator_ball",)),
    _Key("test_function.radius", "num", ("indicator_ball",), ("indicator_ball",), **_POSITIVE),
    _Key("model.n", "int", COMMANDS, COMMANDS, lo=1),
    _Key("model.measure", "measure", COMMANDS, **_POSITIVE, default=_MODEL_DEFAULTS["measure"]),
    _Key("model.operator", "operator", COMMANDS, default=_MODEL_DEFAULTS["operator"]),
    _Key("model.alpha", "num", COMMANDS, **_POSITIVE, note="none: -L itself"),
    _Key("model.q_diag", "q_diag", COMMANDS, COMMANDS),
    _Key("coeffs.r", "num", COMMANDS, COMMANDS, lo=0.0, hi=1.0, lo_open=True, hi_open=True),
    _Key("coeffs.delta", "schedule", COMMANDS, **_POSITIVE, default=_default(CoefficientSet, "delta")),
    _Key("coeffs.eta", "schedule", COMMANDS, **_POSITIVE, note="delta/(2r)"),
    _Key("coeffs.gamma", "schedule", COMMANDS, default=_default(CoefficientSet, "gamma")),
    _Key("coeffs.xi", "schedule", COMMANDS, **_POSITIVE, default=_default(CoefficientSet, "xi")),
    _Key("coeffs.sigma", "num", COMMANDS, note="4/(1+r)"),
    _Key("run.n_paths", "int", _RUN_COMMANDS, lo=2, default=1000),
    _Key("run.dt", "num", _RUN_COMMANDS, **_POSITIVE, default=1e-3),
    _Key("run.T", "num", _RUN_COMMANDS, _RUN_COMMANDS, **_POSITIVE),
    _Key("run.seed", "int", _RUN_COMMANDS, lo=0, default=_default(EnsembleConfig, "seed")),
    _Key("run.burn_in", "num", tuple(c for c in _RUN_COMMANDS if c != "invariant"), lo=0.0,
         default=_default(EnsembleConfig, "burn_in")),
    _Key("run.burn_in", "num", ("invariant",), ("invariant",), **_POSITIVE),
    _Key("run.scheme", "choice", _RUN_COMMANDS, choices=SCHEMES,
         default=_default(EnsembleConfig, "scheme")),
    _Key("run.n_workers", "int", _RUN_COMMANDS, lo=1, default=_default(EnsembleConfig, "n_workers")),
    _Key("conditions[].check", "choice", CONDITION_CHECKS, CONDITION_CHECKS, choices=CONDITION_CHECKS),
    _Key("conditions[].theta", "num", ("hs", "noise_sandwich") + _CLOSED_FORM, _CLOSED_FORM,
         note="none: hs reads the model"),
    _Key("conditions[].rho", "num", ("hs", "spectral_growth", "fractional_power"),
         default=_default(AsymptoticSpec, "rho")),
    _Key("conditions[].eig_c", "num", ("spectral_growth",), default=_default(AsymptoticSpec, "eig_c")),
    _Key("conditions[].alpha", "num", ("hs", "fractional_power"), ("fractional_power",),
         default=_default(AsymptoticSpec, "alpha")),
    _Key("conditions[].alpha", "num", ("power_spectrum_window",), note="none: no alpha clause",
         verbatim=True),
    _Key("conditions[].d", "num", _CLOSED_FORM, _CLOSED_FORM),
    _Key("conditions[].eps", "num", _R_CHECKS, _R_CHECKS),
    _Key("conditions[].r", "num", _R_CHECKS, lo=0.0, hi=1.0, lo_open=True, hi_open=True,
         note="coeffs.r"),
    _Key("conditions[].sigma", "num", _CLOSED_FORM, **_POSITIVE,
         note="coeffs.sigma, else its default at r"),
    _Key("conditions[].alpha_decay", "num", ("noise_sandwich",), ("noise_sandwich",)),
    _Key("conditions[].c1", "num", ("noise_sandwich",), default=_default(check_noise_sandwich, "c1")),
    _Key("conditions[].c2", "num", ("noise_sandwich",), default=_default(check_noise_sandwich, "c2")),
    _Key("conditions[].use_model", "bool", ("noise_sandwich",), default=False),
    _Key("conditions[].n_samples", "int", _MODEL_CHECKS, lo=1,
         default=_default(check_noise_domination, "n_samples")),
    _Key("conditions[].seed", "int", _MODEL_CHECKS, lo=0,
         default=_default(check_noise_domination, "seed")),
)


_INDEX: dict = {}
for _k in _SCHEMA:
    for _selector in _k.commands:
        _INDEX.setdefault((_k.parent, _selector), []).append(_k)


def _rows(parent: str, selector: str) -> list:
    """The rows of one object: its parent path and the command, check or
    kind that selects them."""
    return _INDEX.get((parent, selector), [])


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    """A JSON number that is a finite float; an integer past float range is not."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _nums(v) -> bool:
    return isinstance(v, list) and bool(v) and all(_is_num(e) for e in v)


class _Collector:
    """The violations found so far, and what the check of one key needs
    to know about the rest of the document."""

    def __init__(self, doc: dict, command: str):
        self.violations: list[str] = []
        self.doc = doc
        self.command = command
        model = doc.get("model")
        self.n = model["n"] if isinstance(model, dict) and _is_int(model.get("n")) else None

    def fail(self, path: str, msg: str):
        self.violations.append(f"{path}: {msg}")

    def raise_if_failed(self):
        if len(self.violations) == 1:
            raise SchemaError(f"configuration invalid: {self.violations[0]}")
        if self.violations:
            raise SchemaError("configuration invalid:\n  " + "\n  ".join(self.violations))


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _unknown_keys(ck, path, d: dict, allowed):
    for key in d:
        if key not in allowed:
            ck.fail(_join(path, key), "unknown key")


def _object(ck: _Collector, d, path: str, rows: list, selector: str, label: str = ""):
    """Check d against its rows.

    Returns its values, converted, with every absent optional key at its
    default; None if any key failed.  Each kind's check below returns
    the converted value, or reports a violation.
    """
    if not isinstance(d, dict):
        ck.fail(path, "must be an object")
        return None
    before = len(ck.violations)
    _unknown_keys(ck, path, d, {k.name for k in rows})
    out = {}
    for k in rows:
        if k.name in d:
            out[k.name] = _KINDS[k.kind](ck, _join(path, k.name), d[k.name], k)
        elif selector in k.required:
            ck.fail(_join(path, k.name), f"is required{label}")
        else:
            out[k.name] = k.default
    return None if len(ck.violations) > before else out


def _check_num(ck, path, v, k):
    if not _is_num(v):
        ck.fail(path, "must be a finite number")
    elif not k.admits(v):
        ck.fail(path, f"must be {k.bounds()}")
    return v if k.verbatim or not _is_num(v) else float(v)


def _check_int(ck, path, v, k):
    if not _is_int(v):
        ck.fail(path, "must be an integer")
    elif not k.admits(v):
        ck.fail(path, f"must be {k.bounds()}")
    return v


def _check_bool(ck, path, v, k):
    if not isinstance(v, bool):
        ck.fail(path, "must be a boolean")
    return v


def _check_choice(ck, path, v, k):
    if not (isinstance(v, str) and v in k.choices):
        ck.fail(path, f"must be one of {list(k.choices)}")
    return v


def _check_nums(ck, path, v, k):
    if not (_nums(v) and all(k.admits(e) for e in v)):
        ck.fail(path, f"must be a nonempty list of numbers {k.bounds()}")
        return None
    return [float(e) for e in v]


def _check_length(ck, path, v):
    if ck.n is not None and len(v) != ck.n:
        ck.fail(path, f"must have n = {ck.n} entries")


def _check_state(ck, path, v, k):
    """A point-space vector, or {"spectral": [...]} for eigen-coefficients;
    resolved against the model once the config is valid."""
    coords, where = v, path
    if isinstance(v, dict):
        _unknown_keys(ck, path, v, ("spectral",))
        coords, where = v.get("spectral"), f"{path}.spectral"
    if not _nums(coords):
        ck.fail(where, "must be a list of finite numbers (optionally under 'spectral')")
    else:
        _check_length(ck, where, coords)
    return v


def _check_schedule(ck, path, v, k):
    """A number, or {"breaks": [...], "values": [...]} for a step schedule."""
    if _is_num(v):
        return _check_num(ck, path, v, k)
    if not isinstance(v, dict):
        ck.fail(path, "must be a number or {breaks, values}")
        return None
    _unknown_keys(ck, path, v, ("breaks", "values"))
    bad = [key for key in ("breaks", "values") if not _nums(v.get(key))]
    for key in bad:
        ck.fail(f"{path}.{key}", "must be a nonempty list of finite numbers")
    if bad:
        return None
    try:
        sched = PiecewiseConstant(v["breaks"], v["values"])
    except ValueError as exc:
        ck.fail(path, str(exc))
        return None
    if not all(k.admits(e) for e in sched.values):
        ck.fail(f"{path}.values", f"must be {k.bounds()}")
    return sched


def _check_measure(ck, path, v, k):
    if v == "uniform":
        return v
    if not (_nums(v) and all(k.admits(w) for w in v)):
        ck.fail(path, 'must be "uniform" or a list of positive weights')
    else:
        _check_length(ck, path, v)
    return v


def _check_operator(ck, path, v, k):
    if v == "dirichlet1d":
        return v
    if not (isinstance(v, dict) and set(v) == {"matrix"}):
        ck.fail(path, 'must be "dirichlet1d" or {"matrix": [[...]]}')
        return v
    rows = v["matrix"]
    if not (isinstance(rows, list) and rows and all(_nums(row) and len(row) == len(rows) for row in rows)):
        ck.fail(f"{path}.matrix", "must be a square matrix of finite numbers")
    elif ck.n is not None and len(rows) != ck.n:
        ck.fail(f"{path}.matrix", f"must be {ck.n} x {ck.n}")
    return v


def _check_q_diag(ck, path, v, k):
    """{"power": p} for q_i = i^p, or one nonzero amplitude per mode."""
    if isinstance(v, dict):
        _unknown_keys(ck, path, v, ("power",))
        if not _is_num(v.get("power")):
            ck.fail(f"{path}.power", "must be a finite number")
    elif not isinstance(v, list):
        ck.fail(path, 'must be {"power": p} or a list')
    elif not all(_is_num(q) and q != 0.0 for q in v):
        ck.fail(path, "entries must be finite and nonzero")
    else:
        _check_length(ck, path, v)
    return v


def _check_test_function(ck, path, v, k):
    """Kept as written once valid: the record echoes it verbatim."""
    if not isinstance(v, dict):
        ck.fail(path, "must be an object with a 'kind'")
    elif v.get("kind") not in TEST_FUNCTION_KINDS:
        ck.fail(f"{path}.kind", f"must be one of {list(TEST_FUNCTION_KINDS)}")
    else:
        kind = v["kind"]
        _object(ck, v, path, _rows(path, kind), kind, f" for kind {kind!r}")
    return v


def _check_entry(ck, path, e):
    if not isinstance(e, dict):
        ck.fail(path, "must be an object")
        return None
    name = e.get("check")
    if name not in CONDITION_CHECKS:
        ck.fail(f"{path}.check", f"must be one of {list(CONDITION_CHECKS)}")
        return None
    values = _object(ck, e, path, _rows("conditions[]", name), name, f" for check {name!r}")
    # what each check needs from the rest of the document
    needs_model = name in _MODEL_CHECKS or (name == "hs" and "theta" not in e) or e.get("use_model")
    if needs_model and "model" not in ck.doc:
        ck.fail(path, f"check {name!r} needs a 'model' block")
    if name in _MODEL_CHECKS and "coeffs" not in ck.doc:
        ck.fail(path, f"check {name!r} needs a 'coeffs' block")
    if name in _R_CHECKS and "r" not in e and "coeffs" not in ck.doc:
        ck.fail(f"{path}.r", f"is required for check {name!r} without a 'coeffs' block")
    return values


def _check_conditions(ck, path, v, k):
    if not (isinstance(v, list) and v):
        ck.fail(path, "must be a nonempty list of checks")
        return None
    return [_check_entry(ck, f"{path}[{i}]", e) for i, e in enumerate(v)]


_BUILD = {
    "model": model_from_spec,
    "coeffs": lambda values: CoefficientSet(**values),
    "run": lambda values: EnsembleConfig(**values),
}


def _check_block(ck, path, v, k):
    """Check a block's keys, then build its object.  A rule that the
    constructor enforces is reported with the constructor's message."""
    values = _object(ck, v, path, _rows(path, ck.command), ck.command)
    if values is None:
        return None
    try:
        return _BUILD[path](values)
    except NotSelfAdjoint as exc:
        if path == "model" and values["operator"] == "dirichlet1d":
            # the grid Laplacian is self-adjoint under the uniform measure only
            ck.fail("model.measure", 'is not uniform, and model.operator "dirichlet1d" is self-adjoint '
                    'only under the uniform measure; a non-uniform measure needs an explicit '
                    'operator.matrix')
        else:
            ck.fail(path, str(exc))
        return None
    except (FastDiffusionError, ValueError) as exc:
        ck.fail(path, str(exc))
        return None


_KINDS = {
    "num": _check_num,
    "int": _check_int,
    "bool": _check_bool,
    "choice": _check_choice,
    "nums": _check_nums,
    "state": _check_state,
    "schedule": _check_schedule,
    "measure": _check_measure,
    "operator": _check_operator,
    "q_diag": _check_q_diag,
    "test_function": _check_test_function,
    "checks": _check_conditions,
    "block": _check_block,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config with its heavyweight objects built."""

    command: str
    model: SpectralModel | None
    coeffs: CoefficientSet | None
    run: EnsembleConfig | None
    extras: dict
    document: dict


def validate_config(raw: dict, command: str) -> ExperimentConfig:
    """Validate a config document for one command and build its objects.

    Raises SchemaError listing every violation with its key path.
    """
    if command not in COMMANDS:
        raise SchemaError(f"unknown command {command!r}; expected one of {list(COMMANDS)}")
    if not isinstance(raw, dict):
        raise SchemaError("configuration invalid: config: must be a JSON object")
    ck = _Collector(raw, command)
    extras = _object(ck, raw, "", _rows("", command), command, f" for command {command!r}")
    ck.raise_if_failed()

    model, coeffs, run = extras.pop("model"), extras.pop("coeffs"), extras.pop("run", None)
    for key in ("x", "y"):
        if extras.get(key) is not None:
            extras[key] = _resolve_state(model, extras[key])
    for entry in extras.get("conditions", ()):
        # an entry's r and sigma default to the coeffs block's
        if "r" in entry and entry["r"] is None:
            entry["r"] = coeffs.r
        if "sigma" in entry and entry["sigma"] is None:
            entry["sigma"] = coeffs.sigma if coeffs is not None else _sigma_floor(entry["r"])

    document = dict(raw)
    if run is not None:
        # n_workers is execution plumbing, not an input to the math: it is
        # kept out of the echo so verdicts are byte-identical across worker
        # counts.
        document["run"] = {k: v for k, v in vars(run).items() if k != "n_workers"}
    return ExperimentConfig(
        command=command, model=model, coeffs=coeffs, run=run,
        extras=extras, document=document,
    )


def _resolve_state(model: SpectralModel | None, v) -> np.ndarray:
    if isinstance(v, dict):
        coords = np.asarray(v["spectral"], dtype=float)
        return from_spectral(model, coords)
    return np.asarray(v, dtype=float)
