"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run every workload at a tiny size through the same code path as a
real run, and check that a wrong output or an escaped exception counts as
a failed op instead of ending the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import fastdiffusion.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace, tmp_path, capsys):
    out = run.benchmark(name, seed=7, seconds=0.0, trace=trace, workdir=tmp_path, tiny=True)
    result = run.report(out, run.environment(7), SPEC, trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # only the distant-y bounds op may fail today (OverflowError in bound_report)
    assert all(f.startswith("bounds_far: exception") for f in out["run"].failures)
    printed = capsys.readouterr().out
    assert "failed_frac" in printed and "record_sha256" in printed


def _desk_with(tmp_path, monkeypatch, fake_main):
    monkeypatch.setattr(fastdiffusion.cli, "main", fake_main)
    return run.benchmark("desk", seed=1, seconds=0.0, trace=False, workdir=tmp_path, tiny=True)


def test_escaped_exception_is_a_failed_op(tmp_path, monkeypatch):
    real = fastdiffusion.cli.main

    def flaky(argv):
        if argv[0] == "conditions":
            raise RuntimeError("boom")
        return real(argv)

    out = _desk_with(tmp_path, monkeypatch, flaky)
    r = out["run"]
    assert r.attempted == 3
    assert "conditions: exception: RuntimeError: boom" in r.failures
    assert r.correct is True  # no wrong output was produced


def test_corrupted_output_is_a_failed_op(tmp_path, monkeypatch):
    real = fastdiffusion.cli.main

    def corrupting(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real(argv)
        if argv[0] == "bounds" and buf.getvalue():
            rec = json.loads(buf.getvalue())
            rec["outputs"]["harnack_rhs"] *= 1.001
            buf = io.StringIO(json.dumps(rec))
        sys.stdout.write(buf.getvalue())
        return code

    out = _desk_with(tmp_path, monkeypatch, corrupting)
    r = out["run"]
    assert r.attempted == 3
    assert any(f.startswith("bounds_near: check: bounds.harnack_rhs") for f in r.failures)
    assert r.correct is False


def test_wrong_exit_code_and_estimate_fail_the_check(tmp_path):
    w = workloads.build("harnack", 1, tmp_path, tiny=True)
    op = w.ops[0]
    res, _ = workloads.execute(op, fastdiffusion.cli.main)
    assert workloads.judge(op, res) is None
    bad = workloads.Outcome(2, res.stdout, res.stderr)
    assert workloads.judge(op, bad).startswith("check: exit code 2")
    rec = json.loads(res.stdout)
    rec["outputs"]["weighted_estimate"]["mean"] += 1.0
    bad = workloads.Outcome(0, json.dumps(rec), res.stderr)
    assert workloads.judge(op, bad).startswith("check: weighted_estimate")


def test_traced_record_must_match_untraced(tmp_path):
    w = workloads.build("desk", 1, tmp_path, tiny=True)
    op = w.ops[0]
    res, _ = workloads.execute(op, fastdiffusion.cli.main)
    r = run.Run()
    r.record(op, res, expect="0" * 64)
    assert r.failures == ["bounds_near: check: record differs from the untraced run"]


def test_tracer_restores_every_name():
    import tracing

    import fastdiffusion.coupling as coupling
    import fastdiffusion.montecarlo as montecarlo
    import fastdiffusion.records as records
    import fastdiffusion.spectral as spectral

    before = (spectral.to_spectral, coupling.to_spectral, montecarlo._pair_kernel,
              records.ResultRecord.to_json, montecarlo._dispatch)
    t = tracing.Tracer()
    t.install()
    try:
        assert coupling.to_spectral is not before[1]
        assert montecarlo._pair_kernel is not before[2]
    finally:
        t.uninstall()
    after = (spectral.to_spectral, coupling.to_spectral, montecarlo._pair_kernel,
             records.ResultRecord.to_json, montecarlo._dispatch)
    assert after == before


def test_predictions_cover_every_per_layer_metric():
    with open(HERE / "predictions.json", encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    named = [m for layer in layers for m in layer["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in SPEC["per_layer"])
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    names = {w["name"] for w in SPEC["workloads"]}
    for layer in layers:
        for table in (layer["moves"], layer["unchanged"]):
            assert set(table) <= e2e
            assert all(set(ws) <= names for ws in table.values())
