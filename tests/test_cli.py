"""End-to-end CLI behavior: exit codes, stdout JSON, file emission."""

import contextlib
import csv
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fastdiffusion import (
    CoefficientSet,
    EnsembleConfig,
    cli,
    conditions,
    config,
    dirichlet1d_model,
    from_spectral,
    make_schedule,
    montecarlo,
    records,
    run_coupled_ensemble,
)
from fastdiffusion.cli import _path_rows, _trace_rows, main
from fastdiffusion.config import COMMANDS, CONDITION_CHECKS, TEST_FUNCTION_KINDS


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def bounds_config():
    return {
        "model": {"n": 4, "q_diag": {"power": -0.5}},
        "coeffs": {"r": 0.5, "gamma": -0.2},
        "run": {"n_paths": 50, "dt": 0.01, "T": 1.0, "seed": 7},
        "x": {"spectral": [1.0, 0.5, 0.0, 0.0]},
        "y": [0.0, 0.0, 0.0, 0.0],
        "p": 2.0,
    }


def couple_config(n_paths=8):
    return {
        "model": {"n": 4, "q_diag": {"power": -0.5}},
        "coeffs": {"r": 0.5, "gamma": -0.2},
        "run": {"n_paths": n_paths, "dt": 0.01, "T": 0.1, "seed": 3},
        "x": {"spectral": [1.0, 0.5, 0.0, 0.0]},
        "y": [0.0, 0.0, 0.0, 0.0],
        "sample_paths": 2,
    }


class TestExitCodes:
    def test_bounds_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", bounds_config())
        assert main(["bounds", "--config", cfg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["command"] == "bounds"
        assert rec["outputs"]["harnack_rhs"] > 1.0

    def test_bounds_distant_y_reports_null_multiplier(self, tmp_path, capsys):
        # the Harnack exponent overflows a float: the record says null
        payload = bounds_config()
        payload["x"] = {"spectral": [0.35, -0.2, 0.1, -0.05]}
        payload["y"] = {"spectral": [20.0, 0.0, 0.0, 0.0]}
        payload["run"] = {"dt": 1e-4, "T": 0.01, "seed": 7}
        cfg = write_config(tmp_path, "b.json", payload)
        assert main(["bounds", "--config", cfg]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        rec = json.loads(out.out)
        assert rec["command"] == "bounds"
        assert rec["outputs"]["harnack_rhs"] is None

    def test_bounds_overflow_is_one_line_error(self, tmp_path, capsys):
        # exp_moment_weight overflows math.exp at gamma = -400, T = 5
        payload = bounds_config()
        payload["coeffs"]["gamma"] = -400
        payload["run"].update(T=5, dt=0.01)
        cfg = write_config(tmp_path, "b.json", payload)
        assert main(["bounds", "--config", cfg]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1

    @pytest.mark.parametrize("command, extra", [
        ("bounds", {"p": 2.0}), ("simulate", {}), ("couple", {}), ("harnack-check", {"p": 2.0}),
        ("moments", {"exponent": 1.0}), ("probe-feller", {}),
    ])
    def test_burn_in_only_for_invariant(self, tmp_path, capsys, command, extra):
        # only invariant discards a burn-in; elsewhere the key is unknown
        payload = {**couple_config(), **extra}
        del payload["sample_paths"]
        if command in ("simulate", "probe-feller"):
            del payload["y"]
        payload["run"]["burn_in"] = 0.05
        cfg = write_config(tmp_path, "b.json", payload)
        assert main([command, "--config", cfg]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: configuration invalid: run.burn_in: unknown key\n"

    def test_unknown_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", bounds_config())
        assert main(["optimize", "--config", cfg]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["bounds", "--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["bounds", "--config", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("q_diag, gamma, name", [
        ({"power": -0.5}, -400.0, "exp_moment_weight"),
        ([20.0] * 4, -200.0, "coupling_gain_sq_int"),
    ])
    def test_bounds_constant_past_float_range_is_named(self, tmp_path, capsys, q_diag, gamma, name):
        payload = bounds_config()
        payload["model"]["q_diag"] = q_diag
        payload["coeffs"]["gamma"] = gamma
        payload["run"] = {"dt": 0.1, "T": 2.0}
        cfg = write_config(tmp_path, "b.json", payload)
        assert main(["bounds", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {name} leaves float range\n"

    def test_bounds_exponent_term_past_float_range_reports_null(self, tmp_path, capsys):
        # exp_moment_weight underflows to 0, which term3 raises to a negative power
        payload = bounds_config()
        payload["model"]["q_diag"] = [20.0] * 4
        payload["run"] = {"dt": 0.1, "T": 10.0}
        cfg = write_config(tmp_path, "b.json", payload)
        assert main(["bounds", "--config", cfg]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        rec = json.loads(out.out)["outputs"]
        assert rec["exp_moment_weight"] == 0.0
        assert rec["harnack_rhs"] is None and rec["harnack_terms"][2] is None

    def test_schema_violation(self, tmp_path, capsys):
        payload = bounds_config()
        payload["coeffs"]["r"] = 2.0
        cfg = write_config(tmp_path, "b.json", payload)
        assert main(["bounds", "--config", cfg]) == 1
        assert "coeffs.r" in capsys.readouterr().err

    def test_degenerate_eps_fails_a_clause(self, tmp_path, capsys):
        # a zero denominator in a threshold is a failing clause, not an error
        check = {"check": "fractional_power", "theta": 1.4, "alpha": 2.0, "d": 2.0, "eps": 0.0}
        cfg = write_config(tmp_path, "c.json", {"coeffs": {"r": 0.5}, "conditions": [check]})
        assert main(["conditions", "--config", cfg]) == 2
        out = capsys.readouterr()
        assert out.err == ""
        rep = json.loads(out.out)["outputs"]["reports"][0]
        assert rep["holds"] is False and None in rep["numbers"].values()

    def test_integer_alpha_echoed_as_written(self, tmp_path, capsys):
        check = {"check": "power_spectrum_window", "theta": 1.0, "d": 1.0, "eps": 0.3, "alpha": 2}
        cfg = write_config(tmp_path, "c.json", {"coeffs": {"r": 0.5}, "conditions": [check]})
        assert main(["conditions", "--config", cfg]) in (0, 2)
        out = capsys.readouterr().out
        assert json.loads(out)["outputs"]["reports"][0]["numbers"]["alpha"] == 2
        assert '"alpha": 2,' in out

    @pytest.mark.parametrize("entry, key", [
        ({"check": "noise_sandwich", "eps": 0.3, "alpha_decay": 0.5, "r": -1}, "r"),
        ({"check": "spectral_growth", "theta": 1.4, "d": 2.0, "eps": 0.3, "r": 1}, "r"),
        ({"check": "spectral_growth", "theta": 1.4, "d": 2.0, "eps": 0.3, "r": 0.5, "sigma": 0}, "sigma"),
        ({"check": "fractional_power", "theta": 1.4, "alpha": 2.0, "d": 2.0, "eps": 0.3,
          "r": 0.5, "sigma": 0}, "sigma"),
    ])
    def test_entry_range_names_the_key(self, tmp_path, capsys, entry, key):
        # r outside (0, 1) or sigma <= 0 would divide by zero in a threshold
        cfg = write_config(tmp_path, "c.json", {"conditions": [entry]})
        assert main(["conditions", "--config", cfg]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.count("\n") == 1
        assert out.err.startswith(f"error: configuration invalid: conditions[0].{key}: must be ")

    def test_integer_past_float_range_names_the_key(self, tmp_path, capsys):
        payload = bounds_config()
        payload["p"] = 10**400
        cfg = write_config(tmp_path, "b.json", payload)
        assert main(["bounds", "--config", cfg]) == 1
        assert capsys.readouterr().err == "error: configuration invalid: p: must be a finite number\n"

    def test_model_build_error_is_one_line(self, tmp_path, capsys):
        # the leaves pass; the identity operator is not negative definite
        payload = bounds_config()
        payload["model"]["operator"] = {"matrix": [[1.0 if i == j else 0.0 for j in range(4)]
                                                   for i in range(4)]}
        cfg = write_config(tmp_path, "b.json", payload)
        assert main(["bounds", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: configuration invalid: model: smallest eigenvalue of -L is -1.0; "
            "operator must be strictly negative definite\n"
        )

    def test_failing_verdict_exits_two(self, tmp_path, capsys):
        payload = {"conditions": [{"check": "hs", "theta": 1.0, "rho": 2.0, "alpha": 1.0}]}
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["conditions", "--config", cfg]) == 2
        rec = json.loads(capsys.readouterr().out)
        assert rec["outputs"]["all_hold"] is False

    def test_passing_verdict_exits_zero(self, tmp_path, capsys):
        payload = {"conditions": [{"check": "hs", "theta": 1.0, "rho": 2.0, "alpha": 2.0}]}
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["conditions", "--config", cfg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["outputs"]["all_hold"] is True

    @staticmethod
    def pair_config(command, gamma):
        """The four-mode pair config of tools/record_digests.py at T = 1."""
        payload = {
            "model": {"n": 4, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5, "gamma": gamma, "xi": 0.01},
            "run": {"n_paths": 8, "dt": 0.01, "T": 1.0, "seed": 3},
            "x": {"spectral": [0.35, -0.20, 0.10, -0.05]},
            "y": {"spectral": [0.29, -0.16, 0.13, -0.02]},
        }
        if command == "harnack-check":
            payload["p"] = 2.0
        return payload

    @pytest.mark.parametrize("command", ["couple", "moments", "harnack-check"])
    def test_gain_integral_past_float_range_is_named(self, tmp_path, capsys, command):
        # every pair command calibrates its schedule from coupling_gain_int
        cfg = write_config(tmp_path, "g.json", self.pair_config(command, -800.0))
        assert main([command, "--config", cfg]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: coupling_gain_int leaves float range\n"

    @pytest.mark.parametrize("command", ["couple", "moments"])
    def test_finite_gain_integral_runs(self, tmp_path, capsys, command):
        # at gamma = -400 the gain integral is finite and its square is not;
        # neither command needs the square
        cfg = write_config(tmp_path, "g.json", self.pair_config(command, -400.0))
        assert main([command, "--config", cfg]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert json.loads(out.out)["command"] == command

    @pytest.mark.parametrize("command, key", [("bounds", "run.seed"), ("conditions", "conditions[0].seed")])
    def test_seed_past_philox_key_range_is_refused(self, tmp_path, capsys, command, key):
        # a seed is the first 64-bit word of a Philox key
        for seed, code in ((2**64, 1), (2**64 - 1, 0)):
            if command == "bounds":
                payload = bounds_config()
                payload["run"]["seed"] = seed
            else:
                entry = {"check": "noise_domination", "n_samples": 50, "seed": seed}
                payload = {"model": {"n": 4, "q_diag": {"power": -0.5}}, "coeffs": {"r": 0.5},
                           "conditions": [entry]}
            cfg = write_config(tmp_path, "s.json", payload)
            assert main([command, "--config", cfg]) in ((1,) if code else (0, 2))
            out = capsys.readouterr()
            if code:
                assert out.out == ""
                assert out.err == (f"error: configuration invalid: {key}: "
                                   "must be in [0, 18446744073709551615]\n")
            else:
                assert out.err == "" and json.loads(out.out)["command"] == command

    def test_seed_override_past_philox_key_range_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", couple_config())
        assert main(["couple", "--config", cfg, "--seed", str(2**64)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: configuration invalid: run.seed: must be in [0, 18446744073709551615]\n"
        assert main(["couple", "--config", cfg, "--seed", str(2**64 - 1)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1

    def test_eig_c_is_an_unknown_key(self, tmp_path, capsys):
        entry = {"check": "spectral_growth", "theta": 0.48, "d": 0.5, "eps": 0.2, "r": 0.5, "eig_c": 1.0}
        cfg = write_config(tmp_path, "c.json", {"conditions": [entry]})
        assert main(["conditions", "--config", cfg]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: configuration invalid: conditions[0].eig_c: unknown key\n"


class TestOverrides:
    def test_seed_override_recorded(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", bounds_config())
        assert main(["bounds", "--config", cfg, "--seed", "99"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["seed"] == 99
        assert rec["inputs"]["run"]["seed"] == 99

    def test_paths_and_dt_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "model": {"n": 4, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5, "gamma": -0.2},
            "run": {"n_paths": 50, "dt": 0.01, "T": 0.1, "seed": 1},
            "x": [0.1, 0.0, 0.0, 0.0],
        })
        assert main(["simulate", "--config", cfg, "--paths", "20", "--dt", "0.005"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["inputs"]["run"]["n_paths"] == 20
        assert rec["inputs"]["run"]["dt"] == 0.005

    def test_worker_override_does_not_change_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", couple_config(n_paths=16))
        assert main(["couple", "--config", cfg, "--workers", "1"]) == 0
        one = capsys.readouterr().out
        assert main(["couple", "--config", cfg, "--workers", "2"]) == 0
        two = capsys.readouterr().out
        assert one == two
        assert "n_workers" not in json.loads(one)["inputs"]["run"]

    @pytest.mark.parametrize("run", [5, [], None])
    def test_override_on_a_run_that_is_not_an_object(self, tmp_path, capsys, run):
        # the flag gives the schema's one-line error, as the config alone does
        payload = bounds_config()
        payload["run"] = run
        cfg = write_config(tmp_path, "b.json", payload)
        assert main(["bounds", "--config", cfg]) == 1
        alone = capsys.readouterr()
        assert alone.err == "error: configuration invalid: run: must be an object\n"
        assert main(["bounds", "--config", cfg, "--seed", "3"]) == 1
        assert capsys.readouterr() == alone

    def test_override_on_a_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", [1])
        assert main(["bounds", "--config", cfg]) == 1
        alone = capsys.readouterr()
        assert alone.err == "error: configuration invalid: config: must be a JSON object\n"
        assert main(["bounds", "--config", cfg, "--seed", "3"]) == 1
        assert capsys.readouterr() == alone

    @pytest.mark.parametrize("flags, named", [
        (["--seed", "3"], "--seed"),
        (["--dt", "0.1", "--workers", "2"], "--dt, --workers"),
    ])
    def test_override_on_conditions_names_the_flag(self, tmp_path, capsys, flags, named):
        cfg = write_config(tmp_path, "c.json", {
            "conditions": [{"check": "hs", "theta": 1.0, "rho": 2.0, "alpha": 2.0}],
        })
        assert main(["conditions", "--config", cfg, *flags]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"usage error: conditions has no run block for {named}\n"


class TestParserReuse:
    """In-process main calls share one parser; build_parser() makes a new one."""

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_one_parser_per_process(self, tmp_path, capsys, monkeypatch):
        builds = []
        real = cli.build_parser

        def counting():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        cfg = write_config(tmp_path, "b.json", bounds_config())
        try:
            for argv in (["bounds", "--config", cfg], ["bounds", "--config", cfg, "--seed", "4"],
                         ["bounds", "--bogus"]):
                main(argv)
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_override_does_not_carry_over(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", bounds_config())
        assert main(["bounds", "--config", cfg, "--seed", "99"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 99
        assert main(["bounds", "--config", cfg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["seed"] == 7 and rec["inputs"]["run"]["seed"] == 7

    def test_usage_error_leaves_the_parser_as_new(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", bounds_config())
        argv = ["bounds", "--config", cfg, "--format", "json"]
        cli._parser.cache_clear()
        assert main(argv) == 0
        first = capsys.readouterr()
        cli._parser.cache_clear()
        assert main(["bounds", "--config", cfg, "--format", "xml", "--seed", "x"]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert main(argv) == 0
        assert capsys.readouterr() == first


class TestEmission:
    def test_json_only_by_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", couple_config())
        out = tmp_path / "report"
        assert main(["couple", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert (out / "couple.json").exists()
        assert not (out / "couple_paths.csv").exists()

    def test_csv_tables(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", couple_config(n_paths=8))
        out = tmp_path / "report"
        code = main(["couple", "--config", cfg, "--out", str(out), "--format", "csv"])
        assert code == 0
        capsys.readouterr()
        with open(out / "couple_paths.csv", newline="", encoding="utf-8") as fh:
            paths_rows = list(csv.reader(fh))
        assert len(paths_rows) == 1 + 8  # header + one row per path
        with open(out / "couple_trace.csv", newline="", encoding="utf-8") as fh:
            trace_rows = list(csv.reader(fh))
        # header + n_steps rows for each of the sample_paths=2 traced paths
        assert len(trace_rows) == 1 + 10 * 2

    def test_couple_traces_only_for_the_tables(self, tmp_path, capsys, monkeypatch):
        calls, real = [], montecarlo.run_coupled_ensemble

        @functools.wraps(real)  # config reads its defaults from the signature
        def spy(*args, **kw):
            calls.append(kw["trace_paths"])
            return real(*args, **kw)

        monkeypatch.setattr(montecarlo, "run_coupled_ensemble", spy)
        cfg = write_config(tmp_path, "c.json", couple_config())
        for fmt in ("json", "csv"):
            assert main(["couple", "--config", cfg, "--out", str(tmp_path / fmt), "--format", fmt]) == 0
        capsys.readouterr()
        assert calls == [0, couple_config()["sample_paths"]]
        # the trace changes no byte of the record
        assert (tmp_path / "json" / "couple.json").read_bytes() == (tmp_path / "csv" / "couple.json").read_bytes()

    def test_f_envelope_only_for_the_paths_table(self, tmp_path, capsys, monkeypatch):
        calls, real = [], montecarlo.run_coupled_ensemble

        @functools.wraps(real)
        def spy(*args, **kw):
            calls.append(kw.get("f_envelope", True))
            return real(*args, **kw)

        monkeypatch.setattr(montecarlo, "run_coupled_ensemble", spy)
        configs = ensemble_command_configs()
        for command in ("harnack-check", "moments", "couple"):
            cfg = write_config(tmp_path, f"{command}.json", configs[command])
            assert main([command, "--config", cfg]) in (0, 2)
        cfg = write_config(tmp_path, "c.json", couple_config())
        assert main(["couple", "--config", cfg, "--out", str(tmp_path / "csv"), "--format", "csv"]) == 0
        capsys.readouterr()
        assert calls == [False, False, False, True]
        # the table's f_int column is the library default's
        with open(tmp_path / "csv" / "couple_paths.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        c = config.validate_config(couple_config(), "couple")
        res = real(c.model, c.coeffs, c.run, c.extras["x"], c.extras["y"], c.extras["couple_tol"])
        assert [row["f_int"] for row in rows] == [repr(float(v)) for v in res.f_int]
        assert np.all(res.f_int > 0.0)

    def test_stdout_floats_reparse_losslessly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", bounds_config())
        assert main(["bounds", "--config", cfg]) == 0
        text = capsys.readouterr().out
        rec = json.loads(text)
        # serialize the parsed record again: text representations of the
        # floats must be identical (shortest round-trip form)
        assert json.dumps(rec, sort_keys=True, indent=2) + "\n" == text


class TestDeadPairs:
    def test_dead_pairs_are_not_coupled(self, tmp_path, monkeypatch):
        # explicit Euler past its stability limit on a linear drift: all six
        # pairs leave the finite range, between steps 790 and 1465, before
        # they can meet.  The kernel carries a dead pair on as nan, so
        # neither table may depend on where noise blocks end.
        monkeypatch.setattr(montecarlo, "BLOWUP_BUDGET", 1.0)
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5, nonlinearity="identity")
        x, y = from_spectral(m, [0.4, 0.0, 0.0, 0.0]), from_spectral(m, [0.3, 0.0, 0.0, 0.0])
        cfg = EnsembleConfig(n_paths=6, dt=0.029, T=0.029 * 1500, seed=3, scheme="explicit_euler")
        tables = {"paths": [], "trace": []}
        for block in (7, 2000):
            monkeypatch.setattr(montecarlo, "TIME_BLOCK", block)
            res = run_coupled_ensemble(m, c, cfg, x, y, couple_tol=1e-300, trace_paths=6)
            assert not res.alive.any() and res.coupled_fraction == 0.0
            for name in ("XT", "YT", *montecarlo.PAIR_ROWS):
                assert np.isnan(getattr(res, name)).all(), name
            for name, columns, rows in (("paths", cli.COUPLE_CSV_COLUMNS, _path_rows(res)),
                                        ("trace", cli.PLOT_CSV_COLUMNS, _trace_rows(res))):
                path = tmp_path / f"couple_{name}_{block}.csv"
                records._write_csv(path, columns, rows)
                tables[name].append(path.read_bytes())
        assert tables["paths"][0] == tables["paths"][1]
        assert tables["trace"][0] == tables["trace"][1]
        rows = list(csv.reader(io.StringIO(tables["paths"][0].decode("utf-8"))))
        assert rows[0] == list(cli.COUPLE_CSV_COLUMNS)
        assert rows[1:] == [[str(j), "0"] + ["nan"] * 5 for j in range(6)]
        # row s - 1 is the state after s steps: pair j's dist_h and zeta_sq
        # read nan from the row of the step on which it left the finite
        # range, as runs of s - 1 and s steps under the same schedule show
        first = [int(np.argmax(np.isnan(rows[:, 1]))) + 1 for rows in res.trace]
        for s, rows in zip(first, res.trace):
            assert 790 < s < cfg.n_steps
            assert not np.isnan(rows[:s - 1, 1:]).any() and np.isnan(rows[s - 1:, [1, 3]]).all()
        alive = {}
        for steps in {k for s in first for k in (s - 1, s)}:
            short = EnsembleConfig(n_paths=6, dt=cfg.dt, T=cfg.dt * steps, seed=3, scheme=cfg.scheme)
            alive[steps] = montecarlo._simulate(m, c, short, [x, y], res.schedule, 1e-300).alive
        assert all(alive[s - 1][j] and not alive[s][j] for j, s in enumerate(first))
        # over 1463 steps pair 1 leaves the finite range near the end, and
        # its path integrals are still inf, not nan, when the run stops
        short = EnsembleConfig(n_paths=6, dt=cfg.dt, T=cfg.dt * 1463, seed=3, scheme=cfg.scheme)
        raw = montecarlo._simulate(m, c, short, [x, y], make_schedule(m, c, short.realized_T, x, y), 1e-300)
        res = run_coupled_ensemble(m, c, short, x, y, couple_tol=1e-300)
        lp_int = raw.pairs[[montecarlo.PAIR_ROWS.index(name) for name in ("lp_int_x", "lp_int_y")]]
        assert np.isinf(lp_int[:, 1]).all() and not res.alive[1]
        assert np.isnan(res.lp_int_x[~res.alive]).all() and np.isnan(res.lp_int_y[~res.alive]).all()

    def test_far_apart_alive_pairs_read_inf(self, monkeypatch):
        # the same run stopped at 791 steps: every pair is still finite, at
        # about 1e165, and three of them are more than 1e154 apart, where
        # |X - Y|_H overflows quietly to inf in the kernel (so the attraction
        # and zeta read 0) and in dist_final
        monkeypatch.setattr(montecarlo, "BLOWUP_BUDGET", 1.0)
        m = dirichlet1d_model(4, [1.0, 0.8, 0.6, 0.5])
        c = CoefficientSet(r=0.5, nonlinearity="identity")
        x, y = from_spectral(m, [0.4, 0.0, 0.0, 0.0]), from_spectral(m, [0.3, 0.0, 0.0, 0.0])
        cfg = EnsembleConfig(n_paths=6, dt=0.029, T=0.029 * 791, seed=3, scheme="explicit_euler")
        res = run_coupled_ensemble(m, c, cfg, x, y, couple_tol=1e-300, trace_paths=6)
        assert res.alive.all() and np.isfinite(res.XT).all() and np.isfinite(res.YT).all()
        far = np.isinf(res.trace[:, -1, 1])
        assert far.sum() == 3
        assert np.array_equal(np.isinf(res.dist_final), far)
        assert (res.trace[far, -1, 3] == 0.0).all()


def far_config(scheme="tamed_euler"):
    """The far30 config of tools/record_digests.py: x at |x|_H = 30 along
    e_1 (|e_1|_H = lambda_1^(-1/2)) and y 0.05 further."""
    lam1 = 100.0 * math.sin(math.pi / 10.0) ** 2
    x, y = ({"spectral": [h * math.sqrt(lam1), 0.0, 0.0, 0.0]} for h in (30.0, 30.05))
    return {
        "model": {"n": 4, "q_diag": {"power": -0.5}}, "coeffs": {"r": 0.5, "gamma": -0.2},
        "x": x, "y": y, "run": {"n_paths": 64, "dt": 1e-3, "T": 0.25, "seed": 3, "scheme": scheme},
    }


class TestCommandOutputs:
    def test_simulate_reports_estimate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {
            "model": {"n": 4, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5, "gamma": -0.2},
            "run": {"n_paths": 40, "dt": 0.01, "T": 0.1, "seed": 1},
            "x": [0.1, 0.0, 0.0, 0.0],
        })
        assert main(["simulate", "--config", cfg]) == 0
        rec = json.loads(capsys.readouterr().out)
        est = rec["outputs"]["estimate"]
        assert set(est) >= {"mean", "stderr", "n"}

    def test_moments_weighted_estimate(self, tmp_path, capsys):
        payload = couple_config()
        del payload["sample_paths"]
        payload["exponent"] = 1.0
        cfg = write_config(tmp_path, "m.json", payload)
        assert main(["moments", "--config", cfg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert "estimate" in rec["outputs"]

    def test_probe_feller_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "p.json", {
            "model": {"n": 4, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5, "gamma": -0.2},
            "run": {"n_paths": 30, "dt": 0.01, "T": 0.1, "seed": 1},
            "x": [0.1, 0.0, 0.0, 0.0],
            "radii": [0.1, 0.05],
        })
        assert main(["probe-feller", "--config", cfg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert len(rec["outputs"]["rows"]) == 2

    def test_invariant_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "i.json", {
            "model": {"n": 4, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5, "gamma": -0.4},
            "run": {"n_paths": 10, "dt": 0.01, "T": 1.0, "seed": 2, "burn_in": 0.3},
            "thin": 5,
        })
        assert main(["invariant", "--config", cfg]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert "averages" in rec["outputs"]

    def test_default_test_function_is_exp_neg_h_sq(self, tmp_path, capsys):
        # one default both builds F and is echoed in the record
        payload = couple_config()
        del payload["y"], payload["sample_paths"]
        records = []
        for extra in ({}, {"test_function": {"kind": "exp_neg_h_sq"}}):
            cfg = write_config(tmp_path, "s.json", {**payload, **extra})
            assert main(["simulate", "--config", cfg]) == 0
            records.append(json.loads(capsys.readouterr().out)["outputs"])
        assert records[0] == records[1]
        assert records[0]["test_function"] == {"kind": "exp_neg_h_sq"}

    def test_harnack_check_verdict_fields(self, tmp_path, capsys):
        payload = bounds_config()
        payload["run"]["n_paths"] = 200
        cfg = write_config(tmp_path, "h.json", payload)
        code = main(["harnack-check", "--config", cfg])
        rec = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert set(rec["outputs"]) >= {"holds", "informative", "lhs", "rhs", "rhs_factor"}


    @pytest.mark.parametrize("scheme", ["tamed_euler", "explicit_euler"])
    def test_distant_pairs_meet_under_both_schemes(self, tmp_path, capsys, scheme):
        # at |x|_H = 30 the taming is strong; the attraction is added untamed,
        # so the calibrated schedule closes the gap under either scheme
        cfg = write_config(tmp_path, "c.json", far_config(scheme))
        assert main(["couple", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)["outputs"]
        assert out["n_blowups"] == 0
        assert out["final_dist_h"]["max_alive"] <= 1e-5

    def test_zero_against_zero_is_uninformative(self, tmp_path, capsys):
        # exp(-|X_T|_H^2) underflows to 0 on every path at |x|_H = 30: the
        # finite multiplier compares 0 with 0, which says nothing
        cfg = write_config(tmp_path, "h.json", {**far_config(), "p": 2.0})
        assert main(["harnack-check", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)["outputs"]
        assert out["rhs_ci95"] == [0.0, 0.0] and 1.0 < out["rhs_factor"] < math.inf
        assert out["holds"] is True and out["informative"] is False and out["ci_margin"] is None

    def test_couple_coupling_time_spread(self, tmp_path, capsys):
        # about half the pairs meet at this tolerance
        payload = couple_config(n_paths=40)
        payload["run"].update(dt=1e-3, T=0.1)
        payload["couple_tol"] = 3e-5
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["couple", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)["outputs"]
        tau = out["tau"]
        assert tau["min"] <= tau["q10"] <= tau["q50"] <= tau["q90"] <= tau["max"]
        assert 0.0 < out["coupled_fraction"] < 1.0
        assert 0.0 < out["two_copy_step_fraction"] < 1.0
        # pairs that never meet take every step in two copies
        cfg = write_config(tmp_path, "c.json", couple_config())
        assert main(["couple", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)["outputs"]
        assert out["tau"] is None and out["two_copy_step_fraction"] == 1.0
        # pairs from (x, x) meet before their first step
        payload = couple_config()
        payload["y"] = payload["x"]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["couple", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)["outputs"]
        assert out["two_copy_step_fraction"] == 0.0
        assert {out["tau"][k] for k in ("min", "q10", "q50", "q90", "max")} == {0.0}

    @pytest.mark.parametrize("command", ["couple", "harnack-check", "moments"])
    def test_weight_health_from_equal_starts(self, tmp_path, capsys, command):
        # every weight is 1: the effective sample size is every path
        payload = couple_config(n_paths=50)
        payload["y"] = payload["x"]
        if command != "couple":
            del payload["sample_paths"]
        if command == "harnack-check":
            payload["p"] = 2.0
        cfg = write_config(tmp_path, "w.json", payload)
        assert main([command, "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)["outputs"]
        assert out["weight_ess"] == 50.0
        assert out["max_weight_share"] == 1.0 / 50.0


class TestConditionSigma:
    def test_entry_r_runs_as_the_library_call(self, tmp_path, capsys):
        # sigma defaults to 4/(1+r) at the entry's own r, not at coeffs.r
        params = {"theta": 0.4, "d": 0.5, "eps": 0.2, "r": 0.1}
        cfg = write_config(tmp_path, "c.json", {
            "coeffs": {"r": 0.9}, "conditions": [{"check": "spectral_growth", **params}],
        })
        assert main(["conditions", "--config", cfg]) == 2  # dimension_window fails
        (report,) = json.loads(capsys.readouterr().out)["outputs"]["reports"]
        want = conditions.check_spectral_growth(**params)
        assert report == json.loads(records._dumps({"check": "spectral_growth", **vars(want)}))
        assert report["clauses"]["sigma_admissible"] is True


class TestConditionSample:
    def test_one_sample_per_command_none_carried_over(self, tmp_path, capsys, monkeypatch):
        # both sampled checks of one command read one sample; the next
        # command builds its own model and so draws its own sample
        draws = []
        real = conditions._path_generators

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(conditions, "_path_generators", counting)
        cfg = write_config(tmp_path, "c.json", {
            "model": {"n": 4, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5, "xi": 0.01},
            "conditions": [
                {"check": "noise_domination", "n_samples": 300, "seed": 4},
                {"check": "embedding", "n_samples": 300, "seed": 4},
            ],
        })
        assert main(["conditions", "--config", cfg]) == 0
        first, first_model = capsys.readouterr().out, conditions._last_sample[0]
        assert len(draws) == 1
        assert main(["conditions", "--config", cfg]) == 0
        assert capsys.readouterr().out == first
        assert len(draws) == 2 and conditions._last_sample[0] is not first_model


def ensemble_command_configs():
    """A small valid config for each command that runs an ensemble."""
    base = couple_config()
    del base["sample_paths"]
    x_only = {k: v for k, v in base.items() if k != "y"}
    invariant = {
        "model": base["model"], "coeffs": {"r": 0.5, "gamma": -0.4}, "thin": 2,
        "run": {"n_paths": 8, "dt": 0.01, "T": 0.2, "seed": 3, "burn_in": 0.1},
    }
    return {
        "simulate": x_only,
        "couple": base,
        "harnack-check": {**base, "p": 2.0},
        "moments": {**base, "test_function": {"kind": "rational_h"}},
        "invariant": invariant,
        "probe-feller": x_only,
    }


class TestOneEnsemblePerCommand:
    @pytest.mark.parametrize("command", sorted(ensemble_command_configs()))
    def test_one_kernel_run(self, tmp_path, capsys, monkeypatch, command):
        # a command runs one ensemble; its verdicts and estimates read it
        copies = []
        real = montecarlo._simulate

        def counting(model, coeffs, cfg, starts, *args, **kw):
            copies.append(len(starts))
            return real(model, coeffs, cfg, starts, *args, **kw)

        monkeypatch.setattr(montecarlo, "_simulate", counting)
        cfg = write_config(tmp_path, "e.json", ensemble_command_configs()[command])
        assert main([command, "--config", cfg]) in (0, 2)
        assert capsys.readouterr().err == ""
        # probe-feller carries the base start and its four default radii
        assert copies == [{"simulate": 1, "invariant": 1, "probe-feller": 5}.get(command, 2)]


class TestBlowupCount:
    @pytest.mark.parametrize("command", sorted(ensemble_command_configs()))
    def test_every_ensemble_record_counts_blowups(self, tmp_path, capsys, monkeypatch, command):
        # the record reports the paths the run lost; 1000 paths keep one
        # lost path inside the 0.1 % budget
        real = montecarlo._simulate

        def path_0_dead(*args, **kw):
            run = real(*args, **kw)
            run.alive[0] = False
            return run

        cfg = write_config(tmp_path, "e.json", ensemble_command_configs()[command])
        argv = [command, "--config", cfg, "--paths", "1000"]
        for lost, kernel in ((0, real), (1, path_0_dead)):
            monkeypatch.setattr(montecarlo, "_simulate", kernel)
            assert main(argv) in (0, 2)
            assert json.loads(capsys.readouterr().out)["outputs"]["n_blowups"] == lost


class TestInvariantSampleTable:
    def run(self, tmp_path, capsys, monkeypatch, fmt):
        runs = []
        real = montecarlo._simulate

        def spy(*args, **kw):
            runs.append(real(*args, **kw))
            return runs[-1]

        monkeypatch.setattr(montecarlo, "_simulate", spy)
        cfg = write_config(tmp_path, "i.json", ensemble_command_configs()["invariant"])
        out = tmp_path / fmt
        assert main(["invariant", "--config", cfg, "--out", str(out), "--format", fmt]) == 0
        record = json.loads(capsys.readouterr().out)["outputs"]
        return out, record, runs

    def test_csv_table_is_the_kept_block(self, tmp_path, capsys, monkeypatch):
        out, record, runs = self.run(tmp_path, capsys, monkeypatch, "csv")
        (run,) = runs  # the record and the table come from one kernel run
        n_kept, n_paths, n = run.kept.shape
        assert record["n_samples"] == n_kept * n_paths
        text = (out / "invariant_samples.csv").read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == ",".join(f"v{i}" for i in range(n))
        # time-major rows, each float written in its shortest round-trip form
        want = [",".join(repr(float(v)) for v in row) for row in run.kept.reshape(-1, n)]
        assert lines[1:] == want and len(want) == record["n_samples"]

    def test_json_run_keeps_no_snapshots(self, tmp_path, capsys, monkeypatch):
        out, record, runs = self.run(tmp_path, capsys, monkeypatch, "json")
        (run,) = runs
        assert run.kept is None
        assert run.window_sums.shape == (2, 3, record["n_paths"])
        assert not (out / "invariant_samples.csv").exists()
        _, csv_record, _ = self.run(tmp_path, capsys, monkeypatch, "csv")
        assert csv_record == record


# --- any schema-valid small config --------------------------------------

# test-size caps and value spans by key path; a drawn number lies in the
# intersection of its row's range with these, so a closed endpoint of the
# row inside the caps (slack 0, thin 1, sample_paths 0) is drawn too
_CAPS = {
    "model.n": (1, 5),
    "model.measure": (0.05, 1.0),
    "model.alpha": (0.25, 3.0),
    "coeffs.r": (0.05, 0.95),
    "coeffs.delta": (1e-3, 100.0),
    "coeffs.eta": (1e-3, 100.0),
    "coeffs.xi": (1e-3, 100.0),
    "coeffs.gamma": (-500.0, 5.0),
    "run.n_paths": (2, 8),
    "run.seed": (0, 99),
    "run.n_workers": (1, 2),
    "p": (1.01, 10.0),
    "slack": (0.0, 1.0),
    "exponent": (-3.0, 3.0),
    "couple_tol": (1e-3, 100.0),
    "sample_paths": (0, 10),
    "record_every": (1, 5),
    "thin": (1, 5),
    "eps0": (1e-3, 1.0),
    "radii": (1e-3, 1.0),
    "test_function.radius": (1e-3, 100.0),
    "conditions[].theta": (-3.0, 3.0),
    "conditions[].rho": (0.5, 4.0),
    "conditions[].alpha": (0.25, 3.0),
    "conditions[].d": (-1.0, 4.0),
    "conditions[].eps": (-1.0, 2.0),
    "conditions[].alpha_decay": (-1.0, 2.0),
    "conditions[].n_samples": (1, 40),
    "conditions[].seed": (0, 3),
}
_SPAN = (-50.0, 50.0)  # any other number, and state coordinates


def _number(key):
    lo, hi = _CAPS.get(key.path, _SPAN)
    lo_open = hi_open = False
    if key.lo is not None and key.lo >= lo:
        lo, lo_open = key.lo, key.lo_open
    if key.hi is not None and key.hi <= hi:
        hi, hi_open = key.hi, key.hi_open
    if key.kind == "int":
        return st.integers(lo + lo_open, hi - hi_open)
    return st.floats(lo, hi, exclude_min=lo_open, exclude_max=hi_open)


def _row(parent, selector, name):
    return next(k for k in config._rows(parent, selector) if k.name == name)


def _state(draw, n):
    coords = draw(st.lists(st.floats(*_SPAN), min_size=n, max_size=n))
    return {"spectral": coords} if draw(st.booleans()) else coords


def _schedule(draw, key):
    if draw(st.booleans()):
        return draw(_number(key))
    steps = draw(st.lists(st.floats(0.01, 1.0), min_size=0, max_size=3))
    breaks = [0.0]
    for step in steps:
        breaks.append(breaks[-1] + step)
    return {"breaks": breaks, "values": draw(st.lists(_number(key), min_size=len(breaks),
                                                      max_size=len(breaks)))}


def _measure(draw, key, n):
    if draw(st.booleans()):
        return "uniform"
    w = draw(st.lists(_number(key), min_size=n, max_size=n))
    return [v / sum(w) for v in w]


def _operator(draw, ctx):
    if draw(st.booleans()):
        return "dirichlet1d"
    # diag(m)^-1 S with S symmetric is self-adjoint in L2(m); definite or not
    n, m = ctx["model.n"], ctx.get("model.measure", "uniform")
    m = [1.0 / n] * n if m == "uniform" else m
    diag = draw(st.lists(st.floats(-50.0, 1.0), min_size=n, max_size=n))
    off = draw(st.floats(-2.0, 2.0))
    S = [[diag[i] if i == j else off if abs(i - j) == 1 else 0.0 for j in range(n)] for i in range(n)]
    return {"matrix": [[S[i][j] / m[i] for j in range(n)] for i in range(n)]}


def _q_diag(draw, n):
    if draw(st.booleans()):
        return {"power": draw(st.floats(-3.0, 3.0))}
    return draw(st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n))


def _entry(draw, ctx):
    """A condition check that the rest of the document can run."""
    sampled = ("noise_domination", "embedding")  # they read both the model and coeffs
    have_model, have_coeffs = "model" in ctx, "coeffs" in ctx
    if have_model and have_coeffs and draw(st.booleans()):
        # only these documents reach the sampled checks: half their entries
        # do, and half of those set both the sample size and the seed
        name = draw(st.sampled_from(sampled))
    else:
        name = draw(st.sampled_from([c for c in CONDITION_CHECKS if c not in sampled]))
    fixed = {"check": name}
    if name in sampled and draw(st.booleans()):
        fixed.update((k, draw(_number(_row("conditions[]", name, k)))) for k in ("n_samples", "seed"))
    if not have_coeffs and name in ("spectral_growth", "noise_sandwich",
                                    "power_spectrum_window", "fractional_power"):
        fixed["r"] = draw(_number(_row("conditions[]", name, "r")))
    if not have_model and name == "hs":
        fixed["theta"] = draw(_number(_row("conditions[]", name, "theta")))
    if not have_model and name == "noise_sandwich":
        fixed["use_model"] = False
    return _draw_object(draw, "conditions[]", name, ctx, fixed)


# the cross-key rules: T an integer number of dt steps, burn_in below T,
# sigma at least 4/(1+r).  A command that simulates takes at most 20
# steps; bounds is closed-form, and its terms grow with the horizon, so
# it draws up to 500.
_CROSS = {
    "run.dt": lambda draw, key, ctx: draw(st.sampled_from([0.1, 0.01, 0.001])),
    "run.T": lambda draw, key, ctx: (
        ctx.get("run.dt", _row("run", ctx["command"], "dt").default)
        * draw(st.integers(1, 500 if ctx["command"] == "bounds" else 20))
    ),
    "run.burn_in": lambda draw, key, ctx: (
        ctx["run.T"] * draw(st.floats(0.01 if key.lo_open else 0.0, 0.99))
    ),
    "coeffs.sigma": lambda draw, key, ctx: 4.0 / (1.0 + ctx["coeffs.r"]) + draw(st.floats(0.0, 10.0)),
}


def _draw_value(draw, key, ctx):
    if key.path in _CROSS:
        return _CROSS[key.path](draw, key, ctx)
    kind = key.kind
    if kind in ("num", "int"):
        return draw(_number(key))
    if kind == "bool":
        return draw(st.booleans())
    if kind == "choice":
        return draw(st.sampled_from(key.choices))
    if kind == "nums":
        return draw(st.lists(_number(key), min_size=1, max_size=4))
    if kind == "state":
        return _state(draw, ctx["model.n"])
    if kind == "schedule":
        return _schedule(draw, key)
    if kind == "measure":
        return _measure(draw, key, ctx["model.n"])
    if kind == "operator":
        return _operator(draw, ctx)
    if kind == "q_diag":
        return _q_diag(draw, ctx["model.n"])
    if kind == "test_function":
        tf_kind = draw(st.sampled_from(TEST_FUNCTION_KINDS))
        return _draw_object(draw, "test_function", tf_kind, ctx, {"kind": tf_kind})
    if kind == "checks":
        return [_entry(draw, ctx) for _ in range(draw(st.integers(1, 5)))]
    assert kind == "block", kind
    return _draw_object(draw, key.path, ctx["command"], ctx)


def _draw_object(draw, parent, selector, ctx, fixed=()):
    """Each key the table accepts here: required ones always, optional
    ones present or absent."""
    out = dict(fixed)
    for key in config._rows(parent, selector):
        if key.name not in out and (selector in key.required or draw(st.booleans())):
            out[key.name] = _draw_value(draw, key, ctx)
        if key.name in out:
            ctx[key.path] = out[key.name]
    return out


def strategies_from_schema(command):
    """Schema-valid documents for command, drawn from the schema table."""

    @st.composite
    def docs(draw):
        return _draw_object(draw, "", command, {"command": command})

    return docs()


def _schema_paths(command):
    """Every key path the table accepts for command; a nested row is
    selected by the command (run.burn_in) or by a value inside its
    object (a check name, a test-function kind)."""
    top = {k.path for k in config._SCHEMA if k.parent == "" and command in k.commands}
    return top | {
        k.path for k in config._SCHEMA
        if k.parent.removesuffix("[]") in top and (command in k.commands or not set(k.commands) & set(COMMANDS))
    }


def _doc_paths(doc):
    parents = {k.parent for k in config._SCHEMA}
    for key, v in doc.items():
        yield key
        if key in parents:
            yield from (f"{key}.{sub}" for sub in v)
        if f"{key}[]" in parents:
            yield from (f"{key}[].{sub}" for entry in v for sub in entry)


@pytest.mark.parametrize("command", COMMANDS)
def test_strategies_draw_every_schema_key(command):
    seen = set()

    @given(strategies_from_schema(command))
    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    def collect(doc):
        seen.update(_doc_paths(doc))

    collect()
    assert seen == _schema_paths(command)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestAnyValidConfig:
    """On any schema-valid config a command emits one record or exits 1
    with one error line, and the same argv gives the same bytes again."""

    @given(st.one_of(*(st.tuples(st.just(c), strategies_from_schema(c)) for c in COMMANDS)))
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_record_or_one_line_error(self, case):
        command, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            argv = [command, "--config", str(cfg)]
            first = _run(argv)
            assert _run(argv) == first
        code, out, err = first
        event(f"{command} exit {code}")
        if code == 1:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert code in (0, 2) and err == ""
            assert json.loads(out)["command"] == command
