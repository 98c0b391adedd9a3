"""Canonical records: byte-stable JSON, lossless floats, fixed CSV columns."""

import csv
import importlib.metadata
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdiffusion import (
    COUPLE_CSV_COLUMNS,
    PLOT_CSV_COLUMNS,
    canonical_json,
    emit_report,
    load_record,
    make_record,
)
from fastdiffusion import records
from fastdiffusion.cli import main


class TestCanonicalJson:
    def test_keys_sorted_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_floats_round_trip_exactly(self):
        vals = [1.0 / 3.0, 0.1, math.pi, 1e-300, 7.25]
        back = json.loads(canonical_json({"vals": vals}))
        assert back["vals"] == vals  # shortest repr reparses to the same bits

    def test_non_finite_becomes_null(self):
        back = json.loads(canonical_json({"a": math.nan, "b": math.inf, "c": -math.inf}))
        assert back == {"a": None, "b": None, "c": None}

    def test_numpy_scalars_and_arrays(self):
        payload = {
            "arr": np.array([1.5, 2.5]),
            "i": np.int64(7),
            "f": np.float64(0.25),
            "flag": np.bool_(True),
        }
        back = json.loads(canonical_json(payload))
        assert back == {"arr": [1.5, 2.5], "i": 7, "f": 0.25, "flag": True}

    def test_deterministic_bytes(self):
        payload = {"z": [0.1, 0.2], "a": {"nested": 3}}
        assert canonical_json(payload) == canonical_json(payload)


class Big(int):
    """An int subclass with its own repr: json writes int.__repr__."""

    def __repr__(self):
        return "Big"


class Tilted(float):
    """A float subclass with its own repr: json writes float.__repr__."""

    def __repr__(self):
        return "Tilted"


def json_text(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


PLAIN_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1.0 / 3.0, 1e22, -1e-7])
PLAIN_LEAVES = (
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | PLAIN_FLOATS | st.text()
    | PLAIN_FLOATS.map(np.float64) | PLAIN_FLOATS.map(Tilted) | st.integers().map(Big)
    | st.sampled_from(["\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\n\t\"\\/", ""])
)
PLAIN_VALUES = st.recursive(
    PLAIN_LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=25,
)


class TestWriter:
    """records._dumps writes what json.dumps writes with sort_keys=True,
    indent=2 and allow_nan=False, byte for byte."""

    @given(PLAIN_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_same_text_as_json(self, value):
        assert records._dumps(value) == json_text(value)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": [{}]}, [[[]]], {"\u00e9": {"\x01": "\u2028"}},
        -0.0, 5e-324, 1e16, 1.0 / 3.0, 2**100, -(2**70), True, None, "",
        Big(3), Tilted(0.5), np.float64(0.1), [np.float64(-0.0), Big(-1)],
    ])
    def test_edge_values(self, value):
        assert records._dumps(value) == json_text(value)

    @pytest.mark.parametrize("value, error", [
        (math.nan, ValueError), ([math.inf], ValueError), ({"a": -math.inf}, ValueError),
        (np.float64(math.nan), ValueError), ({1, 2}, TypeError), ({"a": [set()]}, TypeError),
    ])
    def test_refuses_what_json_refuses(self, value, error):
        with pytest.raises(error):
            json_text(value)
        with pytest.raises(error):
            records._dumps(value)


class TestPlain:
    """The exact-type fast path and the isinstance chain behind it."""

    @pytest.mark.parametrize("value, want", [
        (np.float32(0.1), 0.10000000149011612),
        (np.float64(math.nan), None),
        (np.float64(math.inf), None),
        (np.float64(-math.inf), None),
        (math.nan, None),
        (-math.inf, None),
        (np.int64(-7), -7),
        (np.bool_(True), True),
        (np.array(2.5), 2.5),
        (np.array([[1.0, math.nan], [np.inf, -0.0]]), [[1.0, None], [None, -0.0]]),
        (np.array([[1, 2]]), [[1, 2]]),
        ((1, 2.5, (np.float64(3.0),)), [1, 2.5, [3.0]]),
        ([True, False, np.bool_(False), 1], [True, False, False, 1]),
        (Big(4), 4),
        (Tilted(0.25), 0.25),
        (Tilted(math.nan), None),
        ({1: np.int64(2), "k": {"n": None, "s": "x"}}, {"1": 2, "k": {"n": None, "s": "x"}}),
    ])
    def test_values(self, value, want):
        got = records._plain(value)
        assert got == want

        def types(v):
            if isinstance(v, dict):
                return {k: types(x) for k, x in v.items()}
            return [types(x) for x in v] if isinstance(v, list) else type(v)
        assert types(got) == types(want)

    def test_negative_zero_keeps_its_sign(self):
        got = records._plain({"a": -0.0, "b": np.array([-0.0]), "c": np.float64(-0.0)})
        assert [math.copysign(1.0, v) for v in (got["a"], got["b"][0], got["c"])] == [-1.0] * 3


class TestResultRecord:
    def test_round_trip(self, tmp_path):
        rec = make_record("bounds", {"p": 2.0}, {"value": 1.0 / 3.0}, seed=5)
        path = tmp_path / "bounds.json"
        path.write_text(rec.to_json(), encoding="utf-8")
        back = load_record(path)
        assert back == rec

    def test_no_wall_clock(self):
        rec = make_record("bounds", {"p": 2.0}, {"value": 1.0}, seed=5)
        assert rec.timestamp is None
        again = make_record("bounds", {"p": 2.0}, {"value": 1.0}, seed=5)
        assert rec.to_json() == again.to_json()

    def test_inputs_hash_tracks_inputs_only(self):
        a = make_record("bounds", {"p": 2.0}, {"value": 1.0}, seed=5)
        b = make_record("bounds", {"p": 2.0}, {"value": 99.0}, seed=5)
        c = make_record("bounds", {"p": 4.0}, {"value": 1.0}, seed=5)
        assert a.inputs_hash == b.inputs_hash
        assert a.inputs_hash != c.inputs_hash
        assert len(a.inputs_hash) == 40  # sha1 hex

    def test_seed_recorded(self):
        rec = make_record("simulate", {}, {}, seed=12)
        assert rec.seed == 12
        assert make_record("simulate", {}, {}, seed=None).seed is None


class TestEmitReport:
    def test_files_written(self, tmp_path):
        rec = make_record("couple", {"a": 1}, {"b": 2}, seed=0)
        rows = [(0, True, 0.5, -0.1, 0.2, 0.3, 0.0)]
        paths = emit_report(rec, tmp_path, {"paths": (COUPLE_CSV_COLUMNS, rows)})
        assert [p.split("/")[-1] for p in paths] == ["couple.json", "couple_paths.csv"]
        back = load_record(tmp_path / "couple.json")
        assert back.outputs == {"b": 2}

    def test_csv_header_matches_contract(self, tmp_path):
        rec = make_record("couple", {}, {}, seed=0)
        rows = [(0, True, 0.5, -0.1, 0.2, 0.3, 0.0), (1, False, math.nan, 0.0, 0.1, 0.2, 0.4)]
        emit_report(rec, tmp_path, {"paths": (COUPLE_CSV_COLUMNS, rows)})
        with open(tmp_path / "couple_paths.csv", newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))
        assert got[0] == list(COUPLE_CSV_COLUMNS)
        assert len(got) == 3
        # booleans become 0/1 and floats are written as repr text
        assert got[1][1] == "1"
        assert got[2][1] == "0"
        assert float(got[1][3]) == -0.1

    def test_column_contracts_frozen(self):
        assert COUPLE_CSV_COLUMNS == (
            "path_index",
            "coupled",
            "tau",
            "log_weight",
            "zeta_sq_int",
            "f_int",
            "final_dist_h",
        )
        assert PLOT_CSV_COLUMNS == ("path_index", "t", "dist_h", "beta", "zeta_sq")

    def test_float_cells_reparse_to_same_bits(self, tmp_path):
        rec = make_record("couple", {}, {}, seed=0)
        tricky = [1.0 / 3.0, math.pi, 1e-300, 0.1 + 0.2]
        rows = [(i, True, v, v, v, v, v) for i, v in enumerate(tricky)]
        emit_report(rec, tmp_path, {"paths": (COUPLE_CSV_COLUMNS, rows)})
        with open(tmp_path / "couple_paths.csv", newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))[1:]
        for row, v in zip(got, tricky):
            assert float(row[2]) == v

    def test_no_tables_writes_json_only(self, tmp_path):
        rec = make_record("bounds", {}, {"x": 1}, seed=None)
        paths = emit_report(rec, tmp_path)
        assert len(paths) == 1
        assert paths[0].endswith("bounds.json")


class TestPackageVersion:
    def test_looked_up_once_per_process(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = importlib.metadata.version

        def spy(name):
            calls.append(name)
            return real(name)

        records._package_version.cache_clear()
        monkeypatch.setattr(importlib.metadata, "version", spy)
        cfg = tmp_path / "b.json"
        cfg.write_text(json.dumps({
            "model": {"n": 2, "q_diag": [1.0, 0.5]},
            "coeffs": {"r": 0.5},
            "run": {"T": 0.1},
            "x": [0.1, 0.0],
            "y": [0.0, 0.1],
        }), encoding="utf-8")
        codes = [main(["bounds", "--config", str(cfg)]) for _ in range(2)]
        out = capsys.readouterr().out
        assert codes == [0, 0]
        assert calls == ["fastdiffusion"]
        assert out.count('"version"') == 2

    def test_import_leaves_version_lookup_and_pool_unloaded(self):
        # importing the package looks nothing up and loads no thread pool
        # and no numpy.random; __version__ is looked up on first use and
        # equals a record's
        code = (
            "import sys, fastdiffusion\n"
            "print(sorted({'importlib.metadata', 'concurrent.futures', 'numpy.random'}"
            " & set(sys.modules)))\n"
            "print(fastdiffusion.__version__)\n"
            "print(fastdiffusion.make_record('bounds', {}, {}, seed=None).version)\n"
        )
        src = str(Path(records.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env).stdout
        loaded, version, record_version = out.splitlines()
        assert loaded == "[]"
        assert version == record_version
