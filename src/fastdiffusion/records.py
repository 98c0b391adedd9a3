"""Result records: canonical JSON verdicts and CSV tables.

A record is a pure function of (config document, seed): serialization
sorts keys, uses shortest round-trip float text, carries no wall-clock
or host data, and excludes execution plumbing (worker count) from the
input echo, so reruns produce byte-identical files under any worker
count.  The inputs hash is a sha1 over the canonical input JSON.  A
table is whatever (columns, rows) a command hands to emit_report.

A record holds what its command returned, and _write converts it in the
one walk that writes it: numpy arrays through tolist(), numpy scalars as
their Python values, tuples as lists, dict keys through str, and nan and
+-inf as null.  The text is then what json.dumps(value, sort_keys=True,
indent=2, allow_nan=False) writes of the converted value, plus a newline,
byte for byte; _write writes it directly because, with indent set,
CPython's json drops its C encoder for the pure-Python one.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

import numpy as np

__all__ = ["ResultRecord", "make_record", "emit_report"]


@functools.cache
def _package_version() -> str:
    """The installed version, looked up once per process.  importlib.metadata
    takes about 20 ms to import, so it is asked only when a sys.path entry
    may hold the package's metadata: a directory with a fastdiffusion
    dist-info, egg-info or egg, or an entry it cannot list, such as a zip."""
    for entry in sys.path:
        try:
            if any(n.startswith("fastdiffusion") and n.endswith((".dist-info", ".egg-info", ".egg"))
                   for n in map(str.lower, os.listdir(entry or "."))):
                break
        except FileNotFoundError:
            continue
        except (OSError, TypeError, ValueError):  # a file, say a zip: importlib.metadata reads it
            break
    else:  # what importlib.metadata would report
        return "0.0.0+local"
    from importlib import metadata

    try:
        return metadata.version("fastdiffusion")
    except metadata.PackageNotFoundError:  # running from a source tree without install
        return "0.0.0+local"


def _write(v, out: list, pad: str):
    """Append v's canonical text, at indent pad, to out, converting v as it
    goes: exact plain types first, then numpy values and subclasses."""
    t = type(v)
    if t is str:
        out.append(_escape(v))
    elif t is float:
        out.append(float.__repr__(v) if math.isfinite(v) else "null")
    elif t is dict or t is list or t is tuple:
        is_dict = t is dict
        if not v:
            out.append("{}" if is_dict else "[]")
            return
        inner = pad + "  "
        out.append("{" if is_dict else "[")
        for item in sorted({str(k): x for k, x in v.items()}.items()) if is_dict else v:
            if is_dict:
                out.append(f"\n{inner}{_escape(item[0])}: ")
                item = item[1]
            else:
                out.append("\n" + inner)
            _write(item, out, inner)
            out.append(",")
        out[-1] = f"\n{pad}{'}' if is_dict else ']'}"
    elif t is int:
        out.append(int.__repr__(v))
    elif v is None or t is bool:
        out.append("null" if v is None else "true" if v else "false")
    elif isinstance(v, str):
        out.append(_escape(v))
    elif isinstance(v, float):
        out.append(float.__repr__(v) if math.isfinite(v) else "null")
    elif isinstance(v, (dict, list, tuple)):
        _write(dict(v.items()) if isinstance(v, dict) else list(v), out, pad)
    elif isinstance(v, (int, np.integer)):
        out.append(int.__repr__(int(v)))
    elif isinstance(v, np.ndarray):
        _write(v.tolist(), out, pad)
    elif isinstance(v, np.bool_):
        out.append("true" if v else "false")
    elif isinstance(v, np.floating):
        _write(float(v), out, pad)
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _dumps(value) -> str:
    """Canonical text of value."""
    out = []
    _write(value, out, "")
    return "".join(out) + "\n"


@dataclass(frozen=True)
class ResultRecord:
    """One command's verdict: inputs echo, outputs, and audit fields.

    inputs and outputs hold what the command gave, numpy values included;
    to_json converts them as it writes them, the inputs from the text
    make_record hashed, kept in a slot outside the fields.
    """

    __slots__ = ("__dict__", "__weakref__", "_inputs_text")

    command: str
    inputs: dict
    outputs: dict
    seed: int | None
    version: str
    inputs_hash: str
    timestamp: float | None = None

    def to_json(self) -> str:
        # only a top-level key starts a line with two spaces and a quote, and every
        # newline in _write's text is indentation: the inputs go in two spaces deeper
        inputs = getattr(self, "_inputs_text", None) or _dumps(self.inputs)
        head, tail = _dumps({**vars(self), "inputs": None}).split('\n  "inputs": null', 1)
        return head + '\n  "inputs": ' + inputs[:-1].replace("\n", "\n  ") + tail

    def __reduce__(self):  # a copy or an unpickled record renders its inputs anew
        return ResultRecord, tuple(vars(self).values())


def make_record(command: str, inputs: dict, outputs: dict, seed: int | None) -> ResultRecord:
    """Build a record; the timestamp stays None so output is reproducible.
    The inputs are rendered once, for inputs_hash and for to_json."""
    text = _dumps(inputs)
    record = ResultRecord(
        command=command,
        inputs=inputs,
        outputs=outputs,
        seed=None if seed is None else int(seed),
        version=_package_version(),
        inputs_hash=hashlib.sha1(text.encode("utf-8")).hexdigest(),
    )
    object.__setattr__(record, "_inputs_text", text)
    return record


def _write_csv(path: Path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _csv_cell(v):
    if isinstance(v, (np.bool_, np.integer, int)):
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
