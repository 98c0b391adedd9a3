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

from fastdiffusion import conditions
from fastdiffusion.cli import main


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

    def test_schema_violation(self, tmp_path, capsys):
        payload = bounds_config()
        payload["coeffs"]["r"] = 2.0
        cfg = write_config(tmp_path, "b.json", payload)
        assert main(["bounds", "--config", cfg]) == 1
        assert "coeffs.r" in capsys.readouterr().err

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

    def test_harnack_check_verdict_fields(self, tmp_path, capsys):
        payload = bounds_config()
        payload["run"]["n_paths"] = 200
        cfg = write_config(tmp_path, "h.json", payload)
        code = main(["harnack-check", "--config", cfg])
        rec = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert set(rec["outputs"]) >= {"holds", "informative", "lhs", "rhs", "rhs_factor"}


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


# --- any schema-valid small bounds or conditions config -----------------

_num = st.floats(-50.0, 50.0, allow_nan=False)
_pos = st.floats(1e-3, 100.0)


@st.composite
def _model(draw):
    n = draw(st.integers(1, 5))
    model = {"n": n, "q_diag": draw(st.one_of(
        st.builds(lambda p: {"power": p}, st.floats(-3.0, 3.0)),
        st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n),
    ))}
    if draw(st.booleans()):
        model["alpha"] = draw(st.floats(0.25, 3.0))
    return n, model


def _coeffs(draw):
    coeffs = {"r": draw(st.floats(0.05, 0.95))}
    for key, values in (("gamma", st.floats(-500.0, 5.0)), ("delta", _pos), ("eta", _pos), ("xi", _pos)):
        if draw(st.booleans()):
            coeffs[key] = draw(values)
    return coeffs


def _state(draw, n):
    coords = draw(st.lists(_num, min_size=n, max_size=n))
    return {"spectral": coords} if draw(st.booleans()) else coords


@st.composite
def bounds_docs(draw):
    n, model = draw(_model())
    dt = draw(st.sampled_from([0.1, 0.01, 0.001]))
    doc = {
        "model": model,
        "coeffs": _coeffs(draw),
        "run": {"dt": dt, "T": dt * draw(st.integers(1, 500)), "seed": draw(st.integers(0, 99))},
        "x": _state(draw, n),
        "y": _state(draw, n),
    }
    if draw(st.booleans()):
        doc["p"] = draw(st.floats(1.01, 10.0))
    return doc


_closed_form_checks = st.one_of(
    st.fixed_dictionaries({"check": st.just("hs"), "theta": st.floats(-3.0, 3.0),
                           "rho": st.floats(0.5, 4.0), "alpha": st.floats(0.25, 3.0)}),
    st.fixed_dictionaries({"check": st.just("spectral_growth"), "theta": st.floats(-3.0, 3.0),
                           "d": st.floats(-1.0, 4.0), "eps": st.floats(-1.0, 2.0)}),
    st.fixed_dictionaries({"check": st.just("noise_sandwich"), "eps": st.floats(-1.0, 2.0),
                           "alpha_decay": st.floats(-1.0, 2.0), "use_model": st.booleans()}),
    st.fixed_dictionaries({"check": st.just("power_spectrum_window"), "theta": st.floats(-3.0, 3.0),
                           "d": st.floats(-1.0, 4.0), "eps": st.floats(-1.0, 2.0)}),
    st.fixed_dictionaries({"check": st.just("fractional_power"), "theta": st.floats(-3.0, 3.0),
                           "alpha": st.floats(0.25, 3.0), "d": st.floats(-1.0, 4.0),
                           "eps": st.floats(-1.0, 2.0)}),
)


@st.composite
def conditions_docs(draw):
    _, model = draw(_model())
    sampled = st.fixed_dictionaries({
        "check": st.sampled_from(["noise_domination", "embedding"]),
        "n_samples": st.integers(1, 40),
        "seed": st.integers(0, 3),
    })
    checks = draw(st.lists(st.one_of(sampled, _closed_form_checks, st.just({"check": "hs"})),
                           min_size=1, max_size=5))
    return {"model": model, "coeffs": _coeffs(draw), "conditions": checks}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestAnyValidConfig:
    """On any schema-valid config a command emits one record or exits 1
    with one error line, and the same argv gives the same bytes again."""

    @given(st.one_of(
        st.tuples(st.just("bounds"), bounds_docs()),
        st.tuples(st.just("conditions"), conditions_docs()),
    ))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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
