"""End-to-end CLI behavior: exit codes, stdout JSON, file emission."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from fastdiffusion import conditions, config, montecarlo
from fastdiffusion.cli import main
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

    def test_stdout_floats_reparse_losslessly(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", bounds_config())
        assert main(["bounds", "--config", cfg]) == 0
        text = capsys.readouterr().out
        rec = json.loads(text)
        # serialize the parsed record again: text representations of the
        # floats must be identical (shortest round-trip form)
        assert json.dumps(rec, sort_keys=True, indent=2) + "\n" == text


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


class TestConditionSample:
    def test_one_sample_per_command_none_carried_over(self, tmp_path, capsys, monkeypatch):
        # both sampled checks of one command read one sample; the next
        # command builds its own model and so draws its own sample
        draws = []
        real = conditions.from_spectral

        def counting(model, coeffs, **kw):
            draws.append(model)
            return real(model, coeffs, **kw)

        monkeypatch.setattr(conditions, "from_spectral", counting)
        cfg = write_config(tmp_path, "c.json", {
            "model": {"n": 4, "q_diag": {"power": -0.5}},
            "coeffs": {"r": 0.5, "xi": 0.01},
            "conditions": [
                {"check": "noise_domination", "n_samples": 300, "seed": 4},
                {"check": "embedding", "n_samples": 300, "seed": 4},
            ],
        })
        assert main(["conditions", "--config", cfg]) == 0
        first = capsys.readouterr().out
        assert len(draws) == 1
        assert main(["conditions", "--config", cfg]) == 0
        assert capsys.readouterr().out == first
        assert len(draws) == 2 and draws[1] is not draws[0]


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
    have_model, have_coeffs = "model" in ctx, "coeffs" in ctx
    name = draw(st.sampled_from([
        c for c in CONDITION_CHECKS
        if c not in ("noise_domination", "embedding") or (have_model and have_coeffs)
    ]))
    fixed = {"check": name}
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
    """Every key path the table accepts for command."""
    top = {k.path for k in config._SCHEMA if k.parent == "" and command in k.commands}
    return top | {k.path for k in config._SCHEMA if k.parent.removesuffix("[]") in top}


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
    @settings(max_examples=100, derandomize=True, deadline=None, database=None,
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
