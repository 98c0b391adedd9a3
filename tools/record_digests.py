"""Print one sha256 per record and per CSV table of the eight commands.

Every command runs in-process through ``fastdiffusion.cli.main`` on a
small fixed config at seeds 3 and 7; ``couple`` and ``invariant`` also
run with ``--format csv``.  ``conditions`` runs its closed-form checks in
one config and its two sampled checks, at each seed, in another; after
the other lines it runs the closed-form checks again without a ``coeffs``
block, each entry with its own ``r`` and no ``sigma``, so every check
takes sigma at its floor 4/(1+r).  The
sampled checks, at each seed, one ``bounds`` config and, at seed 3,
``simulate``, ``harnack-check``, ``invariant``, ``probe-feller`` and
``couple`` (also with ``--format csv``) also run on a nine-mode model:
from n = 8 numpy's sums over an F-ordered or last axis add pairwise, in
another order than below it, so only configs with n >= 8 can show a
change of summation layout, in the checks or in the ensemble kernel's
transforms, row sums and row dots.  Between them the nine-mode
ensemble rows cover the one-copy and the k-copy plain block, the
thinned snapshots and the coupled pairs with their trace and f-envelope
sums, which only the ``couple`` tables read.  ``simulate`` and ``couple``
(with ``--format csv``) also run 10 steps of 64 paths on a 64-mode model,
where each of the kernel's two transforms is a BLAS gemm of 64 rows that
sums 64 or 128 terms, not only the small gemms of n <= 9.  ``bounds`` and the sampled
checks at seed 3 also run on a model block with a weight list, an
explicit matrix, a q_diag list and alpha, the branches of the config's
model builder that the default block leaves out.
``harnack-check`` also runs from starts at |x|_H = 30 and 60, where the
exponential-moment bounds pass float range.  ``simulate``, ``couple``
(also with ``--format csv``) and ``harnack-check`` also run 450 steps,
across three noise-block boundaries, under a delta and a gamma that
change inside a block after some pairs have met; the ``couple`` paths
table there is the one row that reads ``f_int`` of pairs that meet
inside a noise block, after other pairs of the block have met.  Each
output line reads

    <command> <config> <sha256>

with ``<command>`` the command for its JSON record and
``<command>_<table>`` for a CSV table.  Records are byte-stable, so
comparing two checkouts is one diff:

    python3 tools/record_digests.py --src /path/to/other/src > other.txt
    python3 tools/record_digests.py > this.txt
    diff other.txt this.txt

``--src`` names the source directory to import ``fastdiffusion`` from;
the default is the ``src`` next to this script.  ``--against OTHER_SRC``
runs the same configs on both sources (OTHER_SRC in a subprocess) and,
for each record or table whose digest differs, prints

    <command> <config> <max rel diff> <key path> [+N non-numeric: <key path>]

the largest relative difference |a - b| / max(|a|, |b|) over the numbers
the two files share and the key path where it occurs (``[i]`` a list
index or CSV row, ``.name`` a key or CSV column).  Values that are not
both numbers and differ (null against a number, a key on one side only)
are counted after it, with the first one's path.  It exits 1 when any
record or table differs or exists on one side only, and 0, printing
nothing, when every one is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (3, 7)
CSV_COMMANDS = ("couple", "invariant")

MODEL = {"n": 4, "q_diag": {"power": -0.5}}
MODEL9 = {"n": 9, "q_diag": {"power": -0.5}}
MODEL64 = {"n": 64, "q_diag": {"power": -0.5}}
COEFFS = {"r": 0.5, "gamma": -0.2, "xi": 0.01}
X = {"spectral": [0.35, -0.20, 0.10, -0.05]}
Y = {"spectral": [0.29, -0.16, 0.13, -0.02]}
X9 = {"spectral": [0.35, -0.20, 0.10, -0.05, 0.04, -0.03, 0.02, -0.015, 0.01]}
Y9 = {"spectral": [0.29, -0.16, 0.13, -0.02, 0.05, -0.01, 0.03, -0.02, 0.005]}
X64 = {"spectral": [0.35 * (-1) ** i / (i + 1) for i in range(64)]}
Y64 = {"spectral": [0.29 * (-1) ** i / (i + 1) ** 2 for i in range(64)]}
CLOSED_FORM_CHECKS = [
    {"check": "hs"},
    {"check": "hs", "theta": 1.0, "rho": 2.0, "alpha": 2.0},
    {"check": "noise_sandwich", "eps": 0.25, "alpha_decay": 0.9, "use_model": True},
    {"check": "power_spectrum_window", "theta": 1.0, "alpha": 2.0, "d": 1.0, "eps": 0.25},
    {"check": "fractional_power", "theta": 1.4, "rho": 2.0, "alpha": 2.0, "d": 2.0, "eps": 0.5},
    {"check": "spectral_growth", "theta": 0.48, "rho": 2.0, "d": 0.5, "eps": 0.2, "r": 1.0 / 3.0, "sigma": 3.0},
]
# no coeffs block: each entry sets r, and sigma is the check's own default
BARE_CHECKS = [
    {"check": "hs"},
    {"check": "hs", "theta": 0.5, "alpha": 1.5},
    {"check": "noise_sandwich", "r": 0.5, "eps": 0.25, "alpha_decay": 0.9, "theta": 0.44, "use_model": False},
    {"check": "power_spectrum_window", "theta": 1.2, "d": 1.0, "eps": 4.0 / 7.0, "r": 0.5},
    {"check": "power_spectrum_window", "theta": 1.2, "d": 1.0, "eps": 4.0 / 7.0, "r": 0.3, "alpha": 2},
    {"check": "fractional_power", "theta": 1.0, "alpha": 2.0, "d": 0.5, "eps": 0.25, "r": 0.7},
    {"check": "spectral_growth", "theta": 0.4, "d": 0.5, "eps": 0.2, "r": 0.5},
]
# delta changes at step 300 and gamma at step 350 of a 450-step run; the
# pairs that meet (at steps 158-239 at seed 3) have left the two-copy
# block at step 256
CUT_COEFFS = {"r": 0.5, "xi": 0.01, "delta": {"breaks": [0.0, 0.3], "values": [1.0, 1.5]},
              "gamma": {"breaks": [0.0, 0.35], "values": [-0.2, -0.1]}}
FAR_H = (30.0, 60.0)  # |x|_H of the distant harnack-check starts
LAMBDA_1 = 100.0 * math.sin(math.pi / 10.0) ** 2  # first eigenvalue of the four-mode model
# a model block that takes every non-default branch of the builder: a
# weight list, an explicit matrix (w_0 L / w_i for the grid Laplacian L,
# self-adjoint for these weights), a q_diag list and alpha
WEIGHTS = [0.1, 0.2, 0.3, 0.4]
GRID4 = [[25.0 * (-2.0 if i == j else 1.0 if abs(i - j) == 1 else 0.0) for j in range(4)] for i in range(4)]
MODEL_W = {"n": 4, "measure": WEIGHTS,
           "operator": {"matrix": [[WEIGHTS[0] * v / w for v in row] for row, w in zip(GRID4, WEIGHTS)]},
           "q_diag": [1.0, 0.8, 0.6, 0.5], "alpha": 1.5}


def ensemble_docs(model, x, y, seed):
    """The config document of bounds and of each ensemble command, by command."""
    pair = {"model": model, "coeffs": COEFFS, "x": x, "y": y}
    plain = {"model": model, "coeffs": COEFFS, "x": x}
    tf = {"test_function": {"kind": "exp_neg_h_sq"}}
    run = {"n_paths": 64, "dt": 0.01, "T": 0.2, "seed": seed}
    return {
        "bounds": {**pair, "p": 2.0, "run": run},
        "simulate": {**plain, **tf, "run": run},
        "couple": {**pair, "sample_paths": 2, "run": run},
        "harnack-check": {**pair, **tf, "p": 2.0, "run": run},
        "moments": {**pair, "exponent": 2.0, "run": run},
        "invariant": {"model": model, "coeffs": COEFFS, "thin": 2,
                      "run": {**run, "T": 1.0, "burn_in": 0.2}},
        "probe-feller": {**plain, **tf, "run": run},
    }


def configs():
    """(command, config label, config document, extra argv), in print order."""
    pair = {"model": MODEL, "coeffs": COEFFS, "x": X, "y": Y}
    plain = {"model": MODEL, "coeffs": COEFFS, "x": X}
    tf = {"test_function": {"kind": "exp_neg_h_sq"}}
    yield "conditions", "closed", {"model": MODEL, "coeffs": COEFFS, "conditions": CLOSED_FORM_CHECKS}, ()
    def sampled(model, seed):
        checks = [{"check": c, "n_samples": 2000, "seed": seed} for c in ("noise_domination", "embedding")]
        return {"model": model, "coeffs": COEFFS, "conditions": checks}

    for seed in SEEDS:
        yield "conditions", f"sampled{seed}", sampled(MODEL, seed), ()
    for seed in SEEDS:
        docs = ensemble_docs(MODEL, X, Y, seed)
        for command, doc in docs.items():
            yield command, f"seed{seed}", doc, ()
        for command in CSV_COMMANDS:
            yield command, f"seed{seed}-csv", docs[command], ("--format", "csv")
    for a in FAR_H:
        # x = a e_1 / |e_1|_H and y 0.05 further along e_1, with |e_1|_H = lambda_1^(-1/2)
        x, y = ({"spectral": [h * math.sqrt(LAMBDA_1), 0.0, 0.0, 0.0]} for h in (a, a + 0.05))
        yield "harnack-check", f"far{a:g}", {
            "model": MODEL, "coeffs": {"r": 0.5, "gamma": -0.2}, "x": x, "y": y, "p": 2.0,
            "run": {"n_paths": 64, "dt": 1e-3, "T": 0.25, "seed": SEEDS[0]},
        }, ()
    cut = {"coeffs": CUT_COEFFS, "run": {"n_paths": 64, "dt": 1e-3, "T": 0.45, "seed": SEEDS[0]}}
    yield "simulate", "cuts", {**plain, **tf, **cut}, ()
    yield "couple", "cuts", {**pair, "sample_paths": 2, **cut}, ()
    yield "couple", "cuts-csv", {**pair, "sample_paths": 2, **cut}, ("--format", "csv")
    yield "harnack-check", "cuts", {**pair, **tf, "p": 2.0, **cut}, ()
    for seed in SEEDS:
        yield "conditions", f"sampled{seed}-n9", sampled(MODEL9, seed), ()
    yield "bounds", "n9", {"model": MODEL9, "coeffs": COEFFS, "x": X9, "y": Y9, "p": 2.0,
                           "run": {"dt": 0.01, "T": 0.2, "seed": SEEDS[0]}}, ()
    docs9 = ensemble_docs(MODEL9, X9, Y9, SEEDS[0])
    for command in ("simulate", "harnack-check", "invariant", "probe-feller", "couple"):
        yield command, "n9", docs9[command], ()
    yield "couple", "n9-csv", docs9["couple"], ("--format", "csv")
    docs64 = ensemble_docs(MODEL64, X64, Y64, SEEDS[0])
    short = {"n_paths": 64, "dt": 1e-3, "T": 0.01, "seed": SEEDS[0]}
    yield "simulate", "n64", {**docs64["simulate"], "run": short}, ()
    yield "couple", "n64-csv", {**docs64["couple"], "run": short}, ("--format", "csv")
    yield "conditions", "bare", {"model": MODEL, "conditions": BARE_CHECKS}, ()
    yield "bounds", "weighted", {"model": MODEL_W, "coeffs": COEFFS, "x": X, "y": Y, "p": 2.0,
                                 "run": {"dt": 0.01, "T": 0.2, "seed": SEEDS[0]}}, ()
    yield "conditions", "sampled3-weighted", sampled(MODEL_W, SEEDS[0]), ()


def run_all(main, root: Path):
    """Run every config through main with outputs under root; yield
    (name, label, path) per file, in print order."""
    for i, (command, label, doc, extra) in enumerate(configs()):
        cfg = root / f"{i}.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = root / f"out{i}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(cfg), "--out", str(out), *extra])
        if code not in (0, 2):
            raise SystemExit(f"{command} {label} exited {code}: {stderr.getvalue().strip()}")
        for path in sorted(out.iterdir()):
            yield path.stem, label, path


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load(path: Path):
    """A record as parsed JSON; a CSV table as a list of {column: value}
    rows, each value a float where it parses as one."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".csv":
        return json.loads(text)

    def num(v):
        try:
            return float(v)
        except ValueError:
            return v
    return [{k: num(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _leaf_diffs(a, b, path=""):
    """Yield (relative difference or None, key path) for each place where
    a and b differ; None where the two values are not both numbers."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b), key=str):
            sub = f"{path}.{k}" if path else str(k)
            if k in a and k in b:
                yield from _leaf_diffs(a[k], b[k], sub)
            else:
                yield None, sub
    elif isinstance(a, list) and isinstance(b, list):
        for i, (u, v) in enumerate(zip(a, b)):
            yield from _leaf_diffs(u, v, f"{path}[{i}]")
        if len(a) != len(b):
            yield None, f"{path}[{min(len(a), len(b))}]"
    elif _is_num(a) and _is_num(b):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            a, b = float(a), float(b)
            d = abs(a - b) / max(abs(a), abs(b))
            yield (d if d == d else math.inf), path  # nan: inf against a number
    elif a != b:
        yield None, path


def compare(this: Path, other: Path) -> str:
    """One line: the largest relative difference between two output files
    and where it occurs, then the non-numeric differences."""
    diffs = list(_leaf_diffs(_load(other), _load(this)))
    nums = [(d, p) for d, p in diffs if d is not None]
    rest = [p for d, p in diffs if d is None]
    d, p = max(nums, key=lambda t: t[0]) if nums else (0.0, "-")
    line = f"{d:.3g} {p}"
    if rest:
        line += f" +{len(rest)} non-numeric: {rest[0]}"
    return line


# argv: OTHER_SRC, this script's directory, the output directory
_RUN_OTHER = (
    "import sys; from pathlib import Path; sys.path[:0] = sys.argv[1:3]; "
    "from record_digests import run_all; from fastdiffusion.cli import main; "
    "list(run_all(main, Path(sys.argv[3])))"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that holds the fastdiffusion package")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="print the differences from the records of another source directory")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from fastdiffusion.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        if args.against is None:
            for name, label, path in run_all(cli_main, Path(tmp)):
                print(name, label, _sha(path))
            return 0
        # the other source runs the same configs, in the same order, in its
        # own process; output i of both runs sits at the same relative path
        other, this = Path(tmp) / "other", Path(tmp) / "this"
        other.mkdir()
        this.mkdir()
        subprocess.run([sys.executable, "-c", _RUN_OTHER, args.against,
                        str(Path(__file__).resolve().parent), str(other)], check=True)
        seen, lines = set(), []
        for name, label, path in run_all(cli_main, this):
            twin = other / path.relative_to(this)
            seen.add(twin)
            if not twin.exists():
                lines.append(f"{name} {label} only in this source")
            elif _sha(twin) != _sha(path):
                lines.append(f"{name} {label} {compare(path, twin)}")
        labels = [label for _, label, _, _ in configs()]
        for twin in sorted(set(other.glob("out*/*")) - seen):
            lines.append(f"{twin.stem} {labels[int(twin.parent.name[3:])]} only in {args.against}")
    for line in lines:
        print(line)
    return 1 if lines else 0

if __name__ == "__main__":
    sys.exit(main())
