"""Benchmark of the fastdiffusion CLI: one workload per run.

    python3 perfbench/run.py --workload harnack --seed 1 --seconds 40 --trace 0

Runs ``fastdiffusion.cli.main`` in this process, from the ``src/`` tree
next to this directory, in a closed loop for about ``--seconds`` seconds,
checks every command's exit code and outputs, and prints a readable
report followed by one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json; ``--trace 1`` alternates untraced and traced runs of the
same command and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread, set before numpy loads: with --workers 1 the whole run is
# then one busy thread, and the set-up children inherit the setting
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 10  # spread over the run, so machine-speed swings average out as for the commands
REFERENCE_SHARE = 0.08  # share of the commands' time spent again on the reference loop
REFERENCE_S = 0.1  # median seconds of reference_loop() on the machine the bounds were set on

# Timed in a fresh interpreter: what a CLI user pays before the command runs.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import fastdiffusion
from fastdiffusion.config import validate_config
with open(sys.argv[2], encoding="utf-8") as fh:
    validate_config(json.load(fh), sys.argv[3])
print(repr(time.perf_counter() - t0))
"""


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
    }


def setup_once(op) -> float:
    """Seconds to import fastdiffusion and validate op's config in a fresh process."""
    command, config = op.argv[0], op.argv[op.argv.index("--config") + 1]
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), config, command],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def reference_loop() -> float:
    """Seconds of a fixed loop of small numpy calls and plain Python.

    It is the kind of work the commands do but touches nothing of
    fastdiffusion, so its time says how fast the shared host runs right now
    and no change to the program moves it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, m = np.zeros((256, 4)), 0.5 * np.eye(4)
    table, acc = dict.fromkeys(range(64), 0.0), 0.0
    t0 = time.perf_counter()
    for i in range(1600):
        a = np.tanh(a @ m + 0.1 * rng.standard_normal(a.shape))
        acc += float((a * a).sum(axis=1).max())
        for j in range(64):
            x = (i * j % 97) * 0.01
            table[j] = x * x + 1e-9 * acc
            acc += table[(j * 7) & 63]
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Keep this process and its set-up children on one CPU; return it.

    The run is one busy thread at a time, so this costs nothing, and the
    commands, the set-up children and the reference loop then all run on the
    same CPU of the shared host.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def digest(outcome) -> str:
    return hashlib.sha256(outcome.stdout.encode("utf-8")).hexdigest()


class Run:
    """Ops attempted in one benchmark run and how each ended."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0
        self.wrong = 0  # ops that printed a wrong record or exit code
        self.first: dict[str, str] = {}

    def record(self, op, outcome, expect: str | None = None) -> str | None:
        """Judge one op; return its record digest (None when it raised).

        expect is the digest the record must have; by default, that of the
        first run of the same command.
        """
        self.attempted += 1
        failure = workloads.judge(op, outcome)
        sha = None if outcome.error is not None else digest(outcome)
        if failure is None and sha is not None:
            want = self.first.setdefault(op.label, sha) if expect is None else expect
            if sha != want:
                failure = "check: record differs from the " + (
                    "untraced run" if expect else "first run of this command")
        if failure is not None:
            self.failures.append(f"{op.label}: {failure}")
            # an escaped exception printed no record: the op failed, but no
            # output was wrong
            self.wrong += not failure.startswith("exception")
        return sha

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def benchmark(name: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool = False) -> dict:
    """Run one workload; return the metrics and the op bookkeeping."""
    from fastdiffusion.cli import main as cli_main

    w = workloads.build(name, seed, workdir, tiny=tiny)
    run = Run()
    setup, reference, untraced, traced, layers = [], [], [], [], []
    by_op = {op.label: [] for op in w.ops}  # untraced seconds of each command
    tracer = tracing.Tracer() if trace else None
    started = time.perf_counter()
    deadline = started + seconds

    def sample_setup(last: bool = False):
        # setup samples spread evenly over the run, between command cycles
        share = 1.0 if last or seconds <= 0 else (time.perf_counter() - started) / seconds
        while len(setup) < min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * share)):
            setup.append(setup_once(w.ops[0]))

    owed = 0.0  # seconds of reference loop still to run
    k = 0
    while True:
        if not trace and k % len(w.ops) == 0:
            sample_setup()
            # at least one reference sample, then as many as keep its time
            # at REFERENCE_SHARE of the commands' time
            while owed > 0.0 or not reference:
                reference.append(reference_loop())
                owed -= reference[-1]
        op = w.ops[k % len(w.ops)]
        outcome, secs = workloads.execute(op, cli_main)
        sha = run.record(op, outcome)
        untraced.append(secs)
        by_op[op.label].append(secs)
        owed += REFERENCE_SHARE * secs
        if tracer is not None:
            tracer.install()
            try:
                outcome, secs = workloads.execute(
                    op, lambda argv: tracer.call("cli.main", cli_main, (argv,), {}))
            finally:
                tracer.uninstall()
            run.record(op, outcome, expect=sha)
            traced.append(secs)
            layers.append(tracing.fold(tracer.take(), w.n_steps))
        k += 1
        cycle = (time.perf_counter() - started) / k * len(w.ops)
        if k >= w.min_ops and k % len(w.ops) == 0 and time.perf_counter() + cycle / 2 > deadline:
            break
    if not trace:
        sample_setup(last=True)

    measured = None
    if trace:
        metrics = {key: statistics.fmean(d[key] for d in layers) for key in layers[0]}
        metrics["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
        samples = {"ops": len(traced)}
    else:
        # work of one pass over the ops at each op's median time, so a slow
        # spell of the shared host moves it only once it covers half the run
        work = (w.path_steps or 1) * len(w.ops)
        measured = {
            "setup_s": statistics.median(setup),
            "work_per_s": work / sum(statistics.median(t) for t in by_op.values()),
            "cmd_p50_ms": 1e3 * statistics.median(untraced),
        }
        # times at the reference speed: scaled by how much faster or slower
        # than REFERENCE_S the reference loop ran during this run
        scale = REFERENCE_S / statistics.median(reference)
        metrics = {
            "setup_s": measured["setup_s"] * scale,
            "work_per_s": measured["work_per_s"] / scale,
            "cmd_p50_ms": measured["cmd_p50_ms"] * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        measured.update(reference_s=statistics.median(reference), scale=scale)
        samples = {"setup": len(setup), "reference": len(reference), "ops": len(untraced)}
    return {"workload": w, "metrics": metrics, "samples": samples, "run": run, "by_op": by_op,
            "measured": measured}


def report(out: dict, env: dict, spec: dict, trace: bool) -> dict:
    """Print the readable report; return the final JSON object."""
    w, run, metrics = out["workload"], out["run"], out["metrics"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    failed = len(run.failures)
    print(f"workload {w.name}: {w.why}")
    print("inputs " + json.dumps(w.inputs, sort_keys=True))
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"ops attempted {run.attempted} failed {failed} failed_frac {failed / run.attempted:.4f}")
    for f in sorted(set(run.failures)):
        print(f"  failed x{run.failures.count(f)}: {f}")
    for label, sha in run.first.items():
        print(f"record_sha256 {label} {sha}")
    print("samples " + json.dumps(out["samples"], sort_keys=True))
    for label, secs in out["by_op"].items():
        print(f"latency {label} n {len(secs)} p50_ms {1e3 * statistics.median(secs):.3f} "
              f"p95_ms {1e3 * nearest_rank(secs, 95):.3f}")
    if out["measured"] is not None:
        print("unscaled " + json.dumps(out["measured"], sort_keys=True))
    for key, value in metrics.items():
        print(f"  {key:<40} {value:>16.6g} {units[key]}")
    return {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fastdiffusion" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no fastdiffusion source tree at {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    env = environment(args.seed)  # before pinning, so nproc counts every CPU the run may use
    env["pinned_cpu"] = pin_to_one_cpu()
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = report(out, env, spec, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
