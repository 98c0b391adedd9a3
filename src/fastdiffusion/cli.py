"""Experiment runner: JSON config in, JSON verdict (and CSV tables) out.

Exit codes: 0 when a report is produced or a verdict holds, 2 when a
verdict fails, 1 on any error (bad config, bad usage, runtime failure).

Each command's handler imports the modules it runs, so a process loads
only what its command needs: bounds and conditions never load the
ensemble kernel.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .config import _RUN_COMMANDS, COMMANDS, ExperimentConfig, validate_config
from .errors import FastDiffusionError
from .records import emit_report, make_record

__all__ = ["main", "build_parser", "run_command"]

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exit code 1."""

    def error(self, message):
        raise _UsageError(message)


_COMMAND_HELP = {
    "bounds": "evaluate the closed-form constants and the Harnack bound",
    "conditions": "run the sufficient-condition checks",
    "simulate": "Monte Carlo estimate of the semigroup at a point",
    "couple": "run the coupled ensemble and report coupling statistics",
    "harnack-check": "Monte Carlo verdict on the power-Harnack inequality",
    "moments": "Monte Carlo estimate of a weight-moment over coupled pairs",
    "invariant": "long-run sampling of the invariant law with moment report",
    "probe-feller": "sensitivity of the semigroup to the starting point",
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: a command name and the options every command takes."""
    epilog = "commands:\n" + "\n".join(
        f"  {name:<15}{_COMMAND_HELP[name]}" for name in COMMANDS
    )
    parser = _Parser(
        prog="fastdiffusion", description=__doc__, epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="COMMAND", help="one of the commands below")
    parser.add_argument("--config", required=True, metavar="PATH", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument("--paths", type=int, default=None, help="override run.n_paths")
    parser.add_argument("--dt", type=float, default=None, help="override run.dt")
    parser.add_argument("--workers", type=int, default=None, help="override run.n_workers")
    parser.add_argument("--out", default=None, metavar="DIR", help="directory for report files")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="csv additionally writes the bulk per-path tables",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call in this process reads.  parse_args makes
    a new Namespace per call, and no action changes a shared default."""
    return build_parser()


# the run-block key each override flag sets
_RUN_FLAGS = {"seed": "seed", "paths": "n_paths", "dt": "dt", "workers": "n_workers"}


def _tf(cfg: ExperimentConfig):
    """The configured test function's description and the function itself."""
    from .montecarlo import make_test_function
    spec = cfg.extras["test_function"]
    return spec, make_test_function(cfg.model, spec)


def _coupled(cfg: ExperimentConfig, **kw):
    from .montecarlo import run_coupled_ensemble
    return run_coupled_ensemble(
        cfg.model, cfg.coeffs, cfg.run, cfg.extras["x"], cfg.extras["y"],
        cfg.extras["couple_tol"], **kw,
    )


def _cmd_bounds(cfg: ExperimentConfig, with_tables: bool):
    from .bounds import bound_report
    rep = bound_report(
        cfg.model, cfg.coeffs, cfg.run.realized_T,
        cfg.extras["x"], cfg.extras["y"], cfg.extras["p"],
    )
    return rep.as_dict(), None, None


def _run_condition(entry: dict, cfg: ExperimentConfig):
    """One check.  The entry's keys, defaults filled in, are the check's parameter
    names; the model and coeffs go only to the checks that read them."""
    from . import conditions
    name = entry["check"]
    params = {k: v for k, v in entry.items() if k != "check"}
    if name == "noise_domination":
        return conditions.check_noise_domination(cfg.model, cfg.coeffs, **params)
    if name == "embedding":
        return conditions.check_embedding_constant(cfg.model, cfg.coeffs, **params)
    if name == "noise_sandwich":
        model = cfg.model if params.pop("use_model") else None
        return conditions.check_noise_sandwich(**params, model=model)
    if name == "hs":
        return conditions.hs_check(cfg.model, **params)
    if name == "spectral_growth":
        return conditions.check_spectral_growth(**params)
    if name == "power_spectrum_window":
        return conditions.check_power_spectrum_window(**params)
    return conditions.check_fractional_power(**params)


def _cmd_conditions(cfg: ExperimentConfig, with_tables: bool):
    # each report carries every ConditionReport field
    reports = [{"check": e["check"], **vars(_run_condition(e, cfg))} for e in cfg.extras["conditions"]]
    all_hold = all(r["holds"] for r in reports)
    return {"reports": reports, "all_hold": all_hold}, None, all_hold


def _cmd_simulate(cfg: ExperimentConfig, with_tables: bool):
    from .montecarlo import estimate_ptf
    spec, F = _tf(cfg)
    est = estimate_ptf(cfg.model, cfg.coeffs, cfg.run, cfg.extras["x"], F)
    # the estimate leaves out exactly the paths that blew up
    outputs = {"estimate": est.as_dict(), "n_blowups": cfg.run.n_paths - est.n, "test_function": spec}
    return outputs, None, None


# fixed column orders of the couple tables (documented contract), one per
# field of each row _path_rows and _trace_rows yield
COUPLE_CSV_COLUMNS = ("path_index", "coupled", "tau", "log_weight", "zeta_sq_int", "f_int", "final_dist_h")
PLOT_CSV_COLUMNS = ("path_index", "t", "dist_h", "beta", "zeta_sq")


def _path_rows(res):
    """The rows of the couple paths table of a CoupledEnsembleResult, one per
    pair in path order."""
    return zip(
        range(res.alive.size), res.coupled, res.tau, res.log_weights,
        res.zeta_sq_int, res.f_int, res.dist_final,
    )


def _trace_rows(res):
    """The rows of the couple trace table of a CoupledEnsembleResult, each
    traced pair's in time order."""
    trace = res.trace if res.trace is not None else np.empty((0, 0, 4))
    return ((j, *row) for j, rows in enumerate(trace) for row in rows)


def _cmd_couple(cfg: ExperimentConfig, with_tables: bool):
    from .montecarlo import estimate_from_values
    # only the trace table reads the traced rows, only the paths table f_int
    traced = cfg.extras["sample_paths"] if with_tables else 0
    res = _coupled(cfg, trace_paths=traced, record_every=cfg.extras["record_every"],
                   f_envelope=with_tables)
    a = res.alive
    coupled = res.coupled  # a dead pair is never coupled
    tau_vals = res.tau[coupled]
    # an alive pair is advanced in two copies for the steps before it meets
    run = cfg.run
    two_copy_steps = np.where(coupled, np.rint(res.tau / run.dt), run.n_steps)[a]
    outputs = {
        "n_paths": cfg.run.n_paths,
        "n_blowups": res.n_blowups,
        "couple_tol": res.couple_tol,
        "coupled_fraction": res.coupled_fraction,
        "mean_weight": estimate_from_values(res.weights[a]).as_dict(),
        **res.weight_health(),
        "two_copy_step_fraction": float(np.mean(two_copy_steps) / run.n_steps),
        "schedule": {k: getattr(res.schedule, k) for k in ("epsilon", "c", "dist0")},
        "tau": None if not tau_vals.size else {
            "mean": float(np.sum(tau_vals) / tau_vals.size),
            "min": float(np.min(tau_vals)),
            "max": float(np.max(tau_vals)),
            **{f"q{q}": float(v) for q, v in zip((10, 50, 90), np.quantile(tau_vals, (0.1, 0.5, 0.9)))},
        },
        "final_dist_h": {
            "max_coupled": float(np.max(res.dist_final[coupled])) if coupled.any() else None,
            "max_alive": float(np.max(res.dist_final[a])) if a.any() else None,
        },
    }

    if not with_tables:
        return outputs, None, None
    return outputs, {
        "paths": (COUPLE_CSV_COLUMNS, _path_rows(res)),
        "trace": (PLOT_CSV_COLUMNS, _trace_rows(res)),
    }, None


def _cmd_harnack(cfg: ExperimentConfig, with_tables: bool):
    from .montecarlo import verify_harnack
    spec, F = _tf(cfg)
    res = _coupled(cfg, f_envelope=False)  # no verdict reads the f envelope
    verdict = verify_harnack(cfg.model, cfg.coeffs, res, cfg.extras["p"], F, cfg.extras["slack"])
    verdict["test_function"] = spec
    return verdict, None, verdict["holds"]


def _cmd_moments(cfg: ExperimentConfig, with_tables: bool):
    from .montecarlo import estimate_weighted, make_test_function
    exponent = cfg.extras["exponent"]
    tf = cfg.extras["test_function"]
    if tf is None:
        F = lambda X: np.ones(np.asarray(X).shape[0])  # noqa: E731
    else:
        F = make_test_function(cfg.model, tf)
    res = _coupled(cfg, f_envelope=False)
    est = estimate_weighted(res, F, exponent)
    outputs = {"estimate": est.as_dict(), "exponent": exponent, "n_blowups": res.n_blowups,
               "test_function": tf, **res.weight_health()}
    return outputs, None, None


def _cmd_invariant(cfg: ExperimentConfig, with_tables: bool):
    from .montecarlo import estimate_invariant
    # the kernel keeps its snapshots only for the sample table
    samples, report = estimate_invariant(
        cfg.model, cfg.coeffs, cfg.run,
        x0=cfg.extras["x"], thin=cfg.extras["thin"], eps0=cfg.extras["eps0"], samples=with_tables,
    )
    if not with_tables:
        return report, None, None
    columns = tuple(f"v{i}" for i in range(cfg.model.n))
    return report, {"samples": (columns, map(tuple, samples))}, None


def _cmd_probe(cfg: ExperimentConfig, with_tables: bool):
    from .montecarlo import strong_feller_probe
    spec, F = _tf(cfg)
    report = strong_feller_probe(
        cfg.model, cfg.coeffs, cfg.run, cfg.extras["x"], F, cfg.extras["radii"]
    )
    report["test_function"] = spec
    return report, None, None


_DISPATCH = {
    "bounds": _cmd_bounds,
    "conditions": _cmd_conditions,
    "simulate": _cmd_simulate,
    "couple": _cmd_couple,
    "harnack-check": _cmd_harnack,
    "moments": _cmd_moments,
    "invariant": _cmd_invariant,
    "probe-feller": _cmd_probe,
}


def run_command(cfg: ExperimentConfig, with_tables: bool = False):
    """Dispatch a validated config; returns (record, tables, holds).

    A command builds its CSV tables only when with_tables is true;
    tables is None otherwise.
    """
    outputs, tables, holds = _DISPATCH[cfg.command](cfg, with_tables)
    seed = cfg.run.seed if cfg.run is not None else None
    record = make_record(cfg.command, cfg.document, outputs, seed)
    return record, tables, holds


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    overrides = {key: getattr(args, flag) for flag, key in _RUN_FLAGS.items()
                 if getattr(args, flag) is not None}
    if overrides and args.command not in _RUN_COMMANDS:
        flags = ", ".join(f"--{flag}" for flag, key in _RUN_FLAGS.items() if key in overrides)
        print(f"usage error: {args.command} has no run block for {flags}", file=sys.stderr)
        return 1

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1

    if overrides:
        # a config, or a run block, that is not an object is left for the
        # schema to name, as it is without the flags
        run = raw.setdefault("run", {}) if isinstance(raw, dict) else None
        if isinstance(run, dict):
            run.update(overrides)

    try:
        cfg = validate_config(raw, args.command)
        record, tables, holds = run_command(cfg, args.out is not None and args.format == "csv")
    except (FastDiffusionError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(record.to_json())
    if args.out is not None:
        written = emit_report(record, args.out, tables)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return 2 if holds is False else 0


if __name__ == "__main__":
    sys.exit(main())
