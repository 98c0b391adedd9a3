"""Print one sha256 per record and per CSV table of the eight commands.

Every command runs in-process through ``fastdiffusion.cli.main`` on a
small fixed config at seeds 3 and 7; ``couple`` and ``invariant`` also
run with ``--format csv``.  ``conditions`` runs its closed-form checks in
one config and its two sampled checks, at each seed, in another.
``harnack-check`` also runs from starts at |x|_H = 30 and 60, where the
exponential-moment bounds pass float range.  Each output line reads

    <command> <config> <sha256>

with ``<command>`` the command for its JSON record and
``<command>_<table>`` for a CSV table.  Records are byte-stable, so
comparing two checkouts is one diff:

    python3 tools/record_digests.py --src /path/to/other/src > other.txt
    python3 tools/record_digests.py > this.txt
    diff other.txt this.txt

``--src`` names the source directory to import ``fastdiffusion`` from;
the default is the ``src`` next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

SEEDS = (3, 7)
CSV_COMMANDS = ("couple", "invariant")

MODEL = {"n": 4, "q_diag": {"power": -0.5}}
COEFFS = {"r": 0.5, "gamma": -0.2, "xi": 0.01}
X = {"spectral": [0.35, -0.20, 0.10, -0.05]}
Y = {"spectral": [0.29, -0.16, 0.13, -0.02]}
CLOSED_FORM_CHECKS = [
    {"check": "hs"},
    {"check": "hs", "theta": 1.0, "rho": 2.0, "alpha": 2.0},
    {"check": "noise_sandwich", "eps": 0.25, "alpha_decay": 0.9, "use_model": True},
    {"check": "power_spectrum_window", "theta": 1.0, "alpha": 2.0, "d": 1.0, "eps": 0.25},
    {"check": "fractional_power", "theta": 1.4, "rho": 2.0, "alpha": 2.0, "d": 2.0, "eps": 0.5},
    {"check": "spectral_growth", "theta": 0.48, "rho": 2.0, "d": 0.5, "eps": 0.2, "r": 1.0 / 3.0, "sigma": 3.0},
]
FAR_H = (30.0, 60.0)  # |x|_H of the distant harnack-check starts
LAMBDA_1 = 100.0 * math.sin(math.pi / 10.0) ** 2  # first eigenvalue of the four-mode model


def configs():
    """(command, config label, config document, extra argv), in print order."""
    pair = {"model": MODEL, "coeffs": COEFFS, "x": X, "y": Y}
    plain = {"model": MODEL, "coeffs": COEFFS, "x": X}
    tf = {"test_function": {"kind": "exp_neg_h_sq"}}
    yield "conditions", "closed", {"model": MODEL, "coeffs": COEFFS, "conditions": CLOSED_FORM_CHECKS}, ()
    for seed in SEEDS:
        sampled = [{"check": c, "n_samples": 2000, "seed": seed} for c in ("noise_domination", "embedding")]
        yield "conditions", f"sampled{seed}", {"model": MODEL, "coeffs": COEFFS, "conditions": sampled}, ()
    for seed in SEEDS:
        run = {"n_paths": 64, "dt": 0.01, "T": 0.2, "seed": seed}
        docs = {
            "bounds": {**pair, "p": 2.0, "run": run},
            "simulate": {**plain, **tf, "run": run},
            "couple": {**pair, "sample_paths": 2, "run": run},
            "harnack-check": {**pair, **tf, "p": 2.0, "run": run},
            "moments": {**pair, "exponent": 2.0, "run": run},
            "invariant": {"model": MODEL, "coeffs": COEFFS, "thin": 2,
                          "run": {**run, "T": 1.0, "burn_in": 0.2}},
            "probe-feller": {**plain, **tf, "run": run},
        }
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


def digests(main):
    """Run every config through main; yield (name, label, sha256) per file."""
    with tempfile.TemporaryDirectory() as tmp:
        for i, (command, label, doc, extra) in enumerate(configs()):
            cfg = Path(tmp) / f"{i}.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            out = Path(tmp) / f"out{i}"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([command, "--config", str(cfg), "--out", str(out), *extra])
            if code not in (0, 2):
                raise SystemExit(f"{command} {label} exited {code}: {stderr.getvalue().strip()}")
            for path in sorted(out.iterdir()):
                yield path.stem, label, hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory that holds the fastdiffusion package")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from fastdiffusion.cli import main as cli_main

    for name, label, digest in digests(cli_main):
        print(name, label, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
