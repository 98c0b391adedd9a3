"""Canonical records: byte-stable JSON, lossless floats, fixed CSV columns."""

import copy
import csv
import dataclasses
import hashlib
import importlib.metadata
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fastdiffusion import emit_report, make_record
from fastdiffusion import records
from fastdiffusion.cli import COUPLE_CSV_COLUMNS, PLOT_CSV_COLUMNS, main


def _plain(obj):
    """The reference conversion: a command's outputs as plain JSON values
    (NaN/Inf -> None).  The writer converts as it writes, to the same text."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


class TestCanonicalJson:
    def test_keys_sorted_and_trailing_newline(self):
        text = records._dumps({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_floats_round_trip_exactly(self):
        vals = [1.0 / 3.0, 0.1, math.pi, 1e-300, 7.25]
        back = json.loads(records._dumps({"vals": vals}))
        assert back["vals"] == vals  # shortest repr reparses to the same bits

    def test_non_finite_becomes_null(self):
        back = json.loads(records._dumps({"a": math.nan, "b": math.inf, "c": -math.inf}))
        assert back == {"a": None, "b": None, "c": None}

    def test_numpy_scalars_and_arrays(self):
        payload = {
            "arr": np.array([1.5, 2.5]),
            "i": np.int64(7),
            "f": np.float64(0.25),
            "flag": np.bool_(True),
        }
        back = json.loads(records._dumps(payload))
        assert back == {"arr": [1.5, 2.5], "i": 7, "f": 0.25, "flag": True}

    def test_deterministic_bytes(self):
        payload = {"z": [0.1, 0.2], "a": {"nested": 3}}
        assert records._dumps(payload) == records._dumps(payload)


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


FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1.0 / 3.0, 1e22, -1e-7])
FLOATS = FINITE_FLOATS | st.sampled_from([math.nan, math.inf, -math.inf])
LEAVES = (
    st.none() | st.booleans() | st.integers(-(2**200), 2**200) | FLOATS | st.text()
    | FLOATS.map(np.float64) | FLOATS.map(Tilted) | st.integers().map(Big)
    | st.sampled_from(["\u00e9\u4e2d\U0001f600", "\x00\x1f\x7f\n\t\"\\/", ""])
    | st.floats(width=32).map(np.float32) | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3), elements=FLOATS)
    | hnp.arrays(np.int32, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids)
    | st.dictionaries(st.text() | st.integers(), kids, max_size=4),
    max_leaves=25,
)


class TestWriter:
    """records._dumps writes what json.dumps writes with sort_keys=True,
    indent=2 and allow_nan=False of the value's plain form, byte for byte."""

    @given(VALUES)
    @settings(max_examples=300, deadline=None)
    def test_same_text_as_json(self, value):
        assert records._dumps(value) == json_text(_plain(value))

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
        """json.dumps refuses all of these.  The writer refuses the same
        types, and writes a non-finite float as null, as records always have."""
        with pytest.raises(error):
            json_text(value)
        if error is ValueError:
            text = records._dumps(value)
            assert "null" in text and text == json_text(_plain(value))
        else:
            with pytest.raises(error):
                records._dumps(value)


class TestPlain:
    """The writer's conversions of numpy values, tuples, subclasses, int
    keys and non-finite floats: it writes each value as the reference's
    plain form, which is want."""

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
        # the text tells 1 from 1.0 from true and 0.0 from -0.0, so equal
        # text is equal plain values of equal types
        text = json_text(_plain(value))
        assert text == json_text(want)
        assert records._dumps(value) == text

    def test_negative_zero_keeps_its_sign(self):
        value = {"a": -0.0, "b": np.array([-0.0]), "c": np.float64(-0.0)}
        text = records._dumps(value)
        assert text == json_text(_plain(value))
        got = json.loads(text)
        assert [math.copysign(1.0, v) for v in (got["a"], got["b"][0], got["c"])] == [-1.0] * 3


class TestResultRecord:
    def test_round_trip(self, tmp_path):
        outputs = {"value": 1.0 / 3.0, "arr": np.array([0.5, math.nan]), "n": np.int64(3)}
        rec = make_record("bounds", {"p": 2.0}, outputs, seed=5)
        assert rec.outputs is outputs  # the record holds what the command gave
        path = tmp_path / "bounds.json"
        path.write_text(rec.to_json(), encoding="utf-8")
        back = json.loads(path.read_text(encoding="utf-8"))
        assert back == {**vars(rec), "outputs": {"value": 1.0 / 3.0, "arr": [0.5, None], "n": 3}}

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

    def test_inputs_hash_is_sha1_of_plain_inputs(self):
        inputs = {"x": np.array([0.1, -0.0]), "run": {"dt": np.float64(1e-3), "seed": np.int64(3)}, 2: (1, math.inf)}
        want = hashlib.sha1(json_text(_plain(inputs)).encode("utf-8")).hexdigest()
        assert make_record("bounds", inputs, {}, seed=None).inputs_hash == want

    RICH_INPUTS = {
        "s": "line\nbreak \"quoted\" \u00e9\u4e2d\U0001f600 \\ / \t",
        "empty": {"d": {}, "l": [], "t": ()},
        "nested": {"a": [{"b": [1, [2.5, None]]}, (True, False)]},
        3: {1: "int keys", "x": -0.0},
        "np": {"arr": np.array([[0.1, math.nan], [math.inf, -0.0]]), "f": np.float64(1e-300),
               "i": np.int64(-7), "b": np.bool_(True), "f32": np.float32(0.1)},
    }

    @pytest.mark.parametrize("inputs", [{}, {"p": 2.0}, RICH_INPUTS], ids=["empty", "one", "rich"])
    def test_to_json_is_json_dumps(self, inputs):
        rec = make_record("bounds", inputs, {"value": np.float64(0.5), "s": "a\nb"}, seed=np.int64(4))
        assert rec.to_json() == json_text(_plain(vars(rec)))
        assert rec.inputs_hash == hashlib.sha1(records._dumps(inputs).encode("utf-8")).hexdigest()

    @given(st.dictionaries(st.text() | st.integers(), VALUES, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_to_json_is_json_dumps_of_any_inputs(self, inputs):
        rec = make_record("conditions", inputs, {"inputs": None}, seed=None)
        assert rec.to_json() == json_text(_plain(vars(rec)))

    def test_copies_write_the_same_text(self):
        rec = make_record("bounds", self.RICH_INPUTS, {"value": 1.0}, seed=3)
        for other in (dataclasses.replace(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert vars(other).keys() == vars(rec).keys()
            assert other.to_json() == rec.to_json()

    def test_inputs_walked_once(self, monkeypatch):
        inputs = {"p": 2.0, "x": [0.1, 0.2], "run": {"dt": 1e-3}}
        walked = []
        write = records._write

        def counting(v, out, pad):
            walked.append(id(v))
            write(v, out, pad)

        monkeypatch.setattr(records, "_write", counting)
        make_record("bounds", inputs, {"value": 1.0}, seed=None).to_json()
        for part in (inputs, inputs["x"], inputs["run"]):
            assert walked.count(id(part)) == 1

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
        back = json.loads((tmp_path / "couple.json").read_text(encoding="utf-8"))
        assert back["outputs"] == {"b": 2}

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
    def test_looked_up_once_per_process(self, tmp_path, capsys, monkeypatch, request):
        calls = []
        real = importlib.metadata.version

        def spy(name):
            calls.append(name)
            return real(name)

        # metadata on sys.path, so that the lookup asks importlib.metadata
        info = tmp_path / "site" / "fastdiffusion-9.9.dist-info"
        info.mkdir(parents=True)
        (info / "METADATA").write_text("Metadata-Version: 2.1\nName: fastdiffusion\nVersion: 9.9\n")
        monkeypatch.syspath_prepend(str(info.parent))
        records._package_version.cache_clear()
        request.addfinalizer(records._package_version.cache_clear)
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
        assert out.count('"version": "9.9"') == 2

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
