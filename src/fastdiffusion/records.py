"""Result records: canonical JSON verdicts and CSV tables.

A record is a pure function of (config document, seed): serialization
sorts keys, uses shortest round-trip float text, carries no wall-clock
or host data, and excludes execution plumbing (worker count) from the
input echo, so reruns produce byte-identical files under any worker
count.  The inputs hash is a sha1 over the canonical input JSON.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

__all__ = [
    "ResultRecord",
    "make_record",
    "load_record",
    "emit_report",
    "canonical_json",
    "COUPLE_CSV_COLUMNS",
    "PLOT_CSV_COLUMNS",
]

# fixed column orders for the bulk tables (documented contract)
COUPLE_CSV_COLUMNS = (
    "path_index",
    "coupled",
    "tau",
    "log_weight",
    "zeta_sq_int",
    "f_int",
    "final_dist_h",
)
PLOT_CSV_COLUMNS = ("path_index", "t", "dist_h", "beta", "zeta_sq")


def _package_version() -> str:
    try:
        return metadata.version("fastdiffusion")
    except metadata.PackageNotFoundError:
        return "0.0.0+local"


def _plain(obj):
    """Recursively convert to JSON-safe plain Python (NaN/Inf -> None)."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    return obj


def _dumps(plain) -> str:
    """Canonical text of a value that is already plain."""
    return json.dumps(plain, sort_keys=True, indent=2, allow_nan=False) + "\n"


def canonical_json(payload) -> str:
    """Sorted-key, indent-2 JSON with lossless float text."""
    return _dumps(_plain(payload))


@dataclass(frozen=True)
class ResultRecord:
    """One command's verdict: inputs echo, outputs, and audit fields.

    inputs and outputs hold plain JSON values (dicts, lists, str, int,
    finite float, bool, None), as make_record and load_record build them;
    to_json writes them as they are.
    """

    command: str
    inputs: dict
    outputs: dict
    seed: int | None
    version: str
    inputs_hash: str
    timestamp: float | None = None

    def to_json(self) -> str:
        return _dumps(vars(self))


def make_record(command: str, inputs: dict, outputs: dict, seed: int | None) -> ResultRecord:
    """Build a record; the timestamp stays None so output is reproducible."""
    inputs = _plain(inputs)
    digest = hashlib.sha1(_dumps(inputs).encode("utf-8")).hexdigest()
    return ResultRecord(
        command=command,
        inputs=inputs,
        outputs=_plain(outputs),
        seed=None if seed is None else int(seed),
        version=_package_version(),
        inputs_hash=digest,
    )


def load_record(path) -> ResultRecord:
    """Reload an emitted record; load(emit(r)) == r."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return ResultRecord(
        command=data["command"],
        inputs=data["inputs"],
        outputs=data["outputs"],
        seed=data["seed"],
        version=data["version"],
        inputs_hash=data["inputs_hash"],
        timestamp=data["timestamp"],
    )


def _write_csv(path: Path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _csv_cell(v):
    if isinstance(v, (np.bool_, bool)):
        return int(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    return v


def emit_report(record: ResultRecord, out_dir, tables: dict | None = None) -> list[str]:
    """Write <command>.json plus any named CSV tables; return the paths.

    tables maps a short name to (columns, rows); the file is named
    <command>_<name>.csv.  rows is any iterable, consumed once, and its
    rows are written in the order it yields them.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    json_path = out / f"{record.command}.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(record.to_json())
    paths.append(str(json_path))
    for name, (columns, rows) in (tables or {}).items():
        csv_path = out / f"{record.command}_{name}.csv"
        _write_csv(csv_path, columns, rows)
        paths.append(str(csv_path))
    return paths
