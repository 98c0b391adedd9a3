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
from .errors import FastDiffusionError, SchemaError
from .montecarlo import estimate_from_values, make_test_function
from .records import (
    COUPLE_CSV_COLUMNS,
    PLOT_CSV_COLUMNS,
    emit_report,
    make_record,
)

__all__ = ["main", "build_parser", "run_command"]

_DEFAULT_TEST_FUNCTION = {"kind": "exp_neg_h_sq"}


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


def _tf(cfg: ExperimentConfig) -> dict:
    return cfg.extras.get("test_function", _DEFAULT_TEST_FUNCTION)


def _cmd_bounds(cfg: ExperimentConfig):
    rep = bounds.bound_report(
        cfg.model, cfg.coeffs, cfg.run.realized_T,
        cfg.state("x"), cfg.state("y"), cfg.extras.get("p"),
    )
    return rep.as_dict(), None, None


def _asym_from(entry: dict, cfg: ExperimentConfig, alpha_default) -> AsymptoticSpec:
    coeffs = cfg.coeffs
    r = entry.get("r", coeffs.r if coeffs is not None else None)
    sigma = entry.get("sigma")
    if sigma is None and coeffs is not None:
        sigma = coeffs.sigma
    elif sigma is None and r is not None:
        sigma = 4.0 / (1.0 + r)
    return AsymptoticSpec(
        theta=float(entry.get("theta", 0.0)),
        rho=float(entry.get("rho", 2.0)),
        eig_c=float(entry.get("eig_c", 1.0)),
        alpha=entry.get("alpha", alpha_default),
        d=float(entry.get("d", 1.0)),
        eps=entry.get("eps"),
        r=r,
        sigma=sigma,
    )


def _run_condition(entry: dict, cfg: ExperimentConfig):
    name = entry["check"]
    if name == "hs":
        if "theta" in entry:
            return hs_check(_asym_from(entry, cfg, alpha_default=1.0))
        return hs_check(cfg.model)
    if name == "noise_domination":
        return check_noise_domination(
            cfg.model, cfg.coeffs, entry.get("n_samples", 2000), entry.get("seed", 0)
        )
    if name == "embedding":
        return check_embedding_constant(
            cfg.model, cfg.coeffs, entry.get("n_samples", 2000), entry.get("seed", 0)
        )
    if name == "spectral_growth":
        return check_spectral_growth(_asym_from(entry, cfg, alpha_default=1.0))
    if name == "noise_sandwich":
        coeffs = cfg.coeffs
        return check_noise_sandwich(
            r=float(entry.get("r", coeffs.r if coeffs is not None else 0.5)),
            eps=float(entry["eps"]),
            alpha_decay=float(entry["alpha_decay"]),
            theta=entry.get("theta"),
            c1=float(entry.get("c1", 1.0)),
            c2=float(entry.get("c2", 1.0)),
            model=cfg.model if entry.get("use_model") else None,
        )
    if name == "power_spectrum_window":
        return check_power_spectrum_window(_asym_from(entry, cfg, alpha_default=None))
    if name == "fractional_power":
        return check_fractional_power(_asym_from(entry, cfg, alpha_default=1.0))
    raise SchemaError(f"unknown condition check {name!r}")


def _cmd_conditions(cfg: ExperimentConfig):
    reports = []
    for entry in cfg.extras["conditions"]:
        rep = _run_condition(entry, cfg)
        reports.append({
            "check": entry["check"],
            "holds": rep.holds,
            "detail": rep.detail,
            "xi_estimate": rep.xi_estimate,
            "witness": rep.witness,
            "clauses": rep.clauses,
            "numbers": rep.numbers,
        })
    all_hold = all(r["holds"] for r in reports)
    return {"reports": reports, "all_hold": all_hold}, None, all_hold


def _cmd_simulate(cfg: ExperimentConfig):
    F = make_test_function(cfg.model, _tf(cfg))
    est = montecarlo.estimate_ptf(cfg.model, cfg.coeffs, cfg.run, cfg.state("x"), F)
    return {"estimate": est.as_dict(), "test_function": _tf(cfg)}, None, None


def _cmd_couple(cfg: ExperimentConfig):
    x, y = cfg.state("x"), cfg.state("y")
    res = montecarlo.run_coupled_ensemble(
        cfg.model, cfg.coeffs, cfg.run, x, y, cfg.extras.get("couple_tol"),
        trace_paths=cfg.extras.get("sample_paths", 4),
        record_every=cfg.extras.get("record_every", 1),
    )
    a = res.alive
    coupled = res.coupled & a
    sched = res.schedule
    tau_vals = res.tau[coupled]
    outputs = {
        "n_paths": cfg.run.n_paths,
        "n_blowups": res.n_blowups,
        "couple_tol": res.couple_tol,
        "coupled_fraction": res.coupled_fraction,
        "mean_weight": estimate_from_values(res.weights[a]).as_dict(),
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
        },
        "final_dist_h": {
            "max_coupled": float(np.max(res.dist_final[coupled])) if coupled.any() else None,
            "max_alive": float(np.max(res.dist_final[a])) if a.any() else None,
        },
    }

    # rows are built only if a table is written
    log_weight = -res.log_stoch_int - 0.5 * res.zeta_sq_int
    path_rows = zip(
        range(cfg.run.n_paths), res.coupled, res.tau, log_weight,
        res.zeta_sq_int, res.f_int, res.dist_final,
    )
    trace = res.trace if res.trace is not None else np.empty((0, 0, 4))
    trace_rows = ((j, *row) for j, rows in enumerate(trace) for row in rows)
    tables = {
        "paths": (COUPLE_CSV_COLUMNS, path_rows),
        "trace": (PLOT_CSV_COLUMNS, trace_rows),
    }
    return outputs, tables, None


def _cmd_harnack(cfg: ExperimentConfig):
    F = make_test_function(cfg.model, _tf(cfg))
    verdict = montecarlo.verify_harnack(
        cfg.model, cfg.coeffs, cfg.run, cfg.state("x"), cfg.state("y"),
        cfg.extras["p"], F, cfg.extras.get("slack", 0.05), cfg.extras.get("couple_tol"),
    )
    verdict["test_function"] = _tf(cfg)
    return verdict, None, verdict["holds"]


def _cmd_moments(cfg: ExperimentConfig):
    exponent = cfg.extras.get("exponent", 1.0)
    tf = cfg.extras.get("test_function")
    if tf is None:
        F = lambda X: np.ones(np.asarray(X).shape[0])  # noqa: E731
    else:
        F = make_test_function(cfg.model, tf)
    est = montecarlo.estimate_weighted(
        cfg.model, cfg.coeffs, cfg.run, cfg.state("x"), cfg.state("y"),
        F, exponent, cfg.extras.get("couple_tol"),
    )
    return {"estimate": est.as_dict(), "exponent": exponent, "test_function": tf}, None, None


def _cmd_invariant(cfg: ExperimentConfig):
    samples, report = montecarlo.estimate_invariant(
        cfg.model, cfg.coeffs, cfg.run,
        x0=cfg.extras.get("x"),
        thin=cfg.extras.get("thin", 10),
        eps0=cfg.extras.get("eps0", 0.01),
    )
    columns = tuple(f"v{i}" for i in range(cfg.model.n))
    tables = {"samples": (columns, map(tuple, samples))}
    return report, tables, None


def _cmd_probe(cfg: ExperimentConfig):
    F = make_test_function(cfg.model, _tf(cfg))
    radii = cfg.extras.get("radii", [0.1, 0.05, 0.025, 0.0125])
    report = montecarlo.strong_feller_probe(
        cfg.model, cfg.coeffs, cfg.run, cfg.state("x"), F, radii
    )
    report["test_function"] = _tf(cfg)
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


def run_command(cfg: ExperimentConfig):
    """Dispatch a validated config; returns (record, tables, holds)."""
    outputs, tables, holds = _DISPATCH[cfg.command](cfg)
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
        record, tables, holds = run_command(cfg)
    except (FastDiffusionError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(record.to_json())
    if args.out is not None:
        written = emit_report(record, args.out, tables if args.format == "csv" else None)
        for path in written:
            print(f"wrote {path}", file=sys.stderr)
    return 2 if holds is False else 0


if __name__ == "__main__":
    sys.exit(main())
