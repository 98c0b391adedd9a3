"""Regenerate reference.json, the values the workload checks compare against.

    python3 perfbench/make_reference.py

Runs each workload's command on seeds the benchmark runs do not need to
avoid (estimates are compared within a statistical tolerance) and stores:

- harnack: pooled mean and standard error of the weighted and plain
  estimates over 8 seeds;
- invariant: mean and between-seed standard deviation of each ergodic
  average over 12 seeds at the workload's 64 paths;
- desk: the deterministic near-y bounds outputs and closed-form condition
  numbers, and, for the two sampled condition statistics, the range seen
  over 200 seeds widened by that range's width on each side.

Takes about two minutes on a 2-core x86-64 machine.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from fastdiffusion.cli import main as cli_main  # noqa: E402

import workloads  # noqa: E402


def _outputs(name: str, seed: int, workdir: Path, label: str | None = None) -> dict:
    w = workloads.build(name, seed, workdir, ref={})
    op = next(o for o in w.ops if label is None or o.label == label)
    res, _ = workloads.execute(op, cli_main)
    if res.error is not None or res.code != 0:
        raise SystemExit(f"{name} seed {seed}: {res.error or res.stderr}")
    return json.loads(res.stdout)["outputs"]


def _pooled(ests: list) -> list:
    k = len(ests)
    mean = sum(e["mean"] for e in ests) / k
    se = math.sqrt(sum(e["stderr"] ** 2 for e in ests)) / k
    return [mean, se]


def main() -> None:
    ref = {}
    scratch = HERE.parent / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        outs = [_outputs("harnack", s, tmp) for s in range(1000, 1008)]
        ref["harnack"] = {k: _pooled([o[k] for o in outs]) for k in ("weighted_estimate", "plain_p_estimate")}

        outs = [_outputs("invariant", s, tmp)["averages"] for s in range(1000, 1012)]
        ref["invariant"] = {}
        for key in ("moment_rp1", "exp_h_rp1", "exp_h_sq"):
            vals = [o[key] for o in outs]
            mean = sum(vals) / len(vals)
            sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
            ref["invariant"][key] = [mean, sd]

        desk = {"bounds_near": _outputs("desk", 0, tmp, "bounds_near")}
        samples = {"min_ratio": [], "embedding_constant": []}
        for s in range(200):
            reports = _outputs("desk", s, tmp, "conditions")["reports"]
            samples["min_ratio"].append(reports[0]["numbers"]["min_ratio"])
            samples["embedding_constant"].append(reports[1]["numbers"]["embedding_constant"])
        for key, vals in samples.items():
            lo, hi = min(vals), max(vals)
            desk[key] = [lo - (hi - lo), hi + (hi - lo)]
        desk["closed_form"] = [{"holds": r["holds"], "numbers": r["numbers"]} for r in reports[2:]]
        ref["desk"] = desk

    path = HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
