"""Experiment runner: JSON config in, JSON verdict (and CSV tables) out.

Exit codes: 0 when a report is produced or a verdict holds, 2 when a
verdict fails, 1 on any error (bad config, bad usage, runtime failure).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bounds, montecarlo
from .conditions import (
    AsymptoticSpec,
    check_embedding_constant,
    check_fractional_power,
    check_noise_domination,
    check_noise_sandwich,
    check_power_spectrum_window,
    check_spectral_growth,
    hs_check,
)
from .config import COMMANDS, ExperimentConfig, validate_config
from .errors import FastDiffusionError
from .montecarlo import estimate_from_values, make_test_function
from .records import (
    COUPLE_CSV_COLUMNS,
    PLOT_CSV_COLUMNS,
    emit_report,
    make_record,
)

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


def _tf(cfg: ExperimentConfig):
    """The configured test function's description and the function itself."""
    spec = cfg.extras["test_function"]
    return spec, make_test_function(cfg.model, spec)


def _coupled(cfg: ExperimentConfig, **trace):
    return montecarlo.run_coupled_ensemble(
        cfg.model, cfg.coeffs, cfg.run, cfg.extras["x"], cfg.extras["y"],
        cfg.extras["couple_tol"], **trace,
    )


def _cmd_bounds(cfg: ExperimentConfig, with_tables: bool):
    rep = bounds.bound_report(
        cfg.model, cfg.coeffs, cfg.run.realized_T,
        cfg.extras["x"], cfg.extras["y"], cfg.extras["p"],
    )
    return rep.as_dict(), None, None


def _run_condition(entry: dict, cfg: ExperimentConfig):
    """One check.  The entry carries every parameter the check takes, with
    the schema's defaults filled in, under the library's parameter names."""
    name = entry["check"]
    if name == "noise_domination":
        return check_noise_domination(cfg.model, cfg.coeffs, entry["n_samples"], entry["seed"])
    if name == "embedding":
        return check_embedding_constant(cfg.model, cfg.coeffs, entry["n_samples"], entry["seed"])
    if name == "noise_sandwich":
        params = {k: v for k, v in entry.items() if k not in ("check", "use_model")}
        return check_noise_sandwich(**params, model=cfg.model if entry["use_model"] else None)
    if name == "hs" and entry["theta"] is None:
        return hs_check(cfg.model)
    spec = AsymptoticSpec(**{k: v for k, v in entry.items() if k != "check"})
    if name == "hs":
        return hs_check(spec)
    if name == "spectral_growth":
        return check_spectral_growth(spec)
    if name == "power_spectrum_window":
        return check_power_spectrum_window(spec)
    return check_fractional_power(spec)


def _cmd_conditions(cfg: ExperimentConfig, with_tables: bool):
    # each report carries every ConditionReport field
    reports = [{"check": e["check"], **vars(_run_condition(e, cfg))} for e in cfg.extras["conditions"]]
    all_hold = all(r["holds"] for r in reports)
    return {"reports": reports, "all_hold": all_hold}, None, all_hold


def _cmd_simulate(cfg: ExperimentConfig, with_tables: bool):
    spec, F = _tf(cfg)
    est = montecarlo.estimate_ptf(cfg.model, cfg.coeffs, cfg.run, cfg.extras["x"], F)
    # the estimate leaves out exactly the paths that blew up
    outputs = {"estimate": est.as_dict(), "n_blowups": cfg.run.n_paths - est.n, "test_function": spec}
    return outputs, None, None


def _cmd_couple(cfg: ExperimentConfig, with_tables: bool):
    res = _coupled(
        cfg, trace_paths=cfg.extras["sample_paths"], record_every=cfg.extras["record_every"],
    )
    a = res.alive
    coupled = res.coupled & a
    sched = res.schedule
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
        "schedule": {
            "epsilon": sched.epsilon,
            "c": sched.c,
            "dist0": sched.dist0,
            "hypothesis_integral": sched.hypothesis_integral(),
            "beta_sq_exp_integral": sched.beta_sq_exp_integral(),
        },
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
    log_weight = -res.log_stoch_int - 0.5 * res.zeta_sq_int
    path_rows = zip(
        range(cfg.run.n_paths), res.coupled, res.tau, log_weight,
        res.zeta_sq_int, res.f_int, res.dist_final,
    )
    trace = res.trace if res.trace is not None else np.empty((0, 0, 4))
    trace_rows = ((j, *row) for j, rows in enumerate(trace) for row in rows)
    return outputs, {
        "paths": (COUPLE_CSV_COLUMNS, path_rows),
        "trace": (PLOT_CSV_COLUMNS, trace_rows),
    }, None


def _cmd_harnack(cfg: ExperimentConfig, with_tables: bool):
    spec, F = _tf(cfg)
    verdict = montecarlo.verify_harnack(
        cfg.model, cfg.coeffs, _coupled(cfg), cfg.extras["p"], F, cfg.extras["slack"],
    )
    verdict["test_function"] = spec
    return verdict, None, verdict["holds"]


def _cmd_moments(cfg: ExperimentConfig, with_tables: bool):
    exponent = cfg.extras["exponent"]
    tf = cfg.extras["test_function"]
    if tf is None:
        F = lambda X: np.ones(np.asarray(X).shape[0])  # noqa: E731
    else:
        F = make_test_function(cfg.model, tf)
    res = _coupled(cfg)
    est = montecarlo.estimate_weighted(res, F, exponent)
    outputs = {"estimate": est.as_dict(), "exponent": exponent, "n_blowups": res.n_blowups,
               "test_function": tf, **res.weight_health()}
    return outputs, None, None


def _cmd_invariant(cfg: ExperimentConfig, with_tables: bool):
    # the kernel keeps its snapshots only for the sample table
    samples, report = montecarlo.estimate_invariant(
        cfg.model, cfg.coeffs, cfg.run,
        x0=cfg.extras["x"], thin=cfg.extras["thin"], eps0=cfg.extras["eps0"], samples=with_tables,
    )
    if not with_tables:
        return report, None, None
    columns = tuple(f"v{i}" for i in range(cfg.model.n))
    return report, {"samples": (columns, map(tuple, samples))}, None


def _cmd_probe(cfg: ExperimentConfig, with_tables: bool):
    spec, F = _tf(cfg)
    report = montecarlo.strong_feller_probe(
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
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

    overrides = {
        "seed": args.seed,
        "n_paths": args.paths,
        "dt": args.dt,
        "n_workers": args.workers,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        if not isinstance(raw, dict):
            print("error: config must be a JSON object", file=sys.stderr)
            return 1
        raw.setdefault("run", {}).update(overrides)

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
