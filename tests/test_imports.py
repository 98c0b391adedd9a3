"""Which modules a process loads: the package imports none of its modules,
and a command loads only those it runs.  Each test starts a new interpreter,
as a command-line user does."""

import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MODEL = {"n": 4, "q_diag": {"power": -0.5}}
BOUNDS = {
    "model": MODEL,
    "coeffs": {"r": 0.5, "gamma": -0.2},
    "run": {"dt": 1e-3, "T": 0.25, "seed": 7},
    "x": {"spectral": [0.35, -0.2, 0.1, -0.05]},
    "y": [0.0, 0.0, 0.0, 0.0],
    "p": 2.0,
}
CONDITIONS = {
    "model": MODEL,
    "coeffs": {"r": 0.5, "gamma": -0.2, "xi": 0.01},
    "conditions": [
        {"check": "noise_domination", "n_samples": 30, "seed": 3},
        {"check": "embedding", "n_samples": 30, "seed": 3},
        {"check": "hs"},
        {"check": "spectral_growth", "theta": 0.4, "d": 0.5, "eps": 0.2},
        {"check": "noise_sandwich", "theta": 0.5, "eps": 0.2, "alpha_decay": 1.5},
        {"check": "power_spectrum_window", "theta": 1.0, "d": 1.0, "eps": 0.25},
        {"check": "fractional_power", "theta": 0.4, "d": 0.5, "eps": 0.2, "alpha": 1.0},
    ],
}
HARNACK = dict(BOUNDS, run={"n_paths": 4, "dt": 0.01, "T": 0.05, "seed": 7})

LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fastdiffusion.'))))\n"


def run_fresh(code: str, *args: str) -> list:
    """The lines code prints in a new interpreter that imports this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def loaded_by_command(tmp_path, command: str, doc: dict) -> set:
    """The package's modules loaded once cli.main has run command on doc."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = (
        "import contextlib, io\n"
        "from fastdiffusion import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main([sys.argv[1], '--config', sys.argv[2]])\n"
        "print(code)\n" + LOADED
    )
    code, loaded = run_fresh(code, command, str(path))
    assert code in ("0", "2")
    return {m.removeprefix("fastdiffusion.") for m in json.loads(loaded)}


class TestImportGraph:
    def test_package_import_loads_no_module(self):
        assert run_fresh("import fastdiffusion\n" + LOADED) == ["[]"]

    def test_bounds_validation_loads_five_modules(self, tmp_path):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(BOUNDS), encoding="utf-8")
        code = (
            "import fastdiffusion\n"
            "from fastdiffusion.config import validate_config\n"
            "validate_config(json.load(open(sys.argv[1], encoding='utf-8')), 'bounds')\n" + LOADED
        )
        (loaded,) = run_fresh(code, str(path))
        assert json.loads(loaded) == [f"fastdiffusion.{m}" for m in
                                      ("config", "dynamics", "errors", "schedules", "spectral")]

    def test_bounds_command_leaves_kernel_and_checks_out(self, tmp_path):
        loaded = loaded_by_command(tmp_path, "bounds", BOUNDS)
        assert "bounds" in loaded
        assert not loaded & {"montecarlo", "coupling", "conditions"}

    def test_conditions_command_leaves_kernel_and_bounds_out(self, tmp_path):
        loaded = loaded_by_command(tmp_path, "conditions", CONDITIONS)
        assert "conditions" in loaded
        assert not loaded & {"montecarlo", "coupling", "bounds"}

    def test_harnack_check_loads_kernel(self, tmp_path):
        assert {"montecarlo", "coupling", "bounds"} <= loaded_by_command(tmp_path, "harnack-check", HARNACK)

    def test_bounds_rows_read_no_kernel_or_checks(self):
        # every default a bounds config can take, the declared ones included
        code = (
            "from fastdiffusion import config\n"
            "blocks = [config._rows(b, 'bounds') for b in ('', 'model', 'coeffs', 'run')]\n"
            "print(sum(k.default is not None for rows in blocks for k in rows))\n" + LOADED
        )
        filled, loaded = run_fresh(code)
        assert int(filled) >= 6
        assert not {"fastdiffusion.montecarlo", "fastdiffusion.conditions"} & set(json.loads(loaded))


class TestLazySurface:
    def test_star_import_binds_every_name(self):
        code = (
            "import fastdiffusion\n"
            "ns = {}\n"
            "exec('from fastdiffusion import *', ns)\n"
            "names = fastdiffusion.__all__\n"
            "print(len(names), sorted(set(names) - set(ns)))\n"
            "mods = [getattr(fastdiffusion, m) for m in fastdiffusion._MODULES]\n"
            "print(all(any(n in m.__all__ and ns[n] is getattr(m, n) for m in mods) for n in names[1:]))\n"
        )
        assert run_fresh(code) == ["57 []", "True"]

    def test_dir_lists_every_name(self):
        code = (
            "import fastdiffusion\n"
            "listed = dir(fastdiffusion)\n"
            "print(sorted(set(fastdiffusion.__all__) - set(listed)), listed == sorted(listed))\n"
        )
        assert run_fresh(code) == ["[] True"]

    @pytest.mark.parametrize("name, module", [
        ("verify_harnack", "montecarlo"),
        ("check_noise_domination", "conditions"),
        ("EnsembleConfig", "dynamics"),
        ("validate_config", "config"),
    ])
    def test_name_is_the_defining_modules_object(self, name, module):
        code = (
            "import fastdiffusion\n"
            "before = f'fastdiffusion.{sys.argv[2]}' in sys.modules\n"
            "obj = getattr(fastdiffusion, sys.argv[1])\n"
            "print(before, obj is getattr(sys.modules[f'fastdiffusion.{sys.argv[2]}'], sys.argv[1]))\n"
            "print(getattr(fastdiffusion, sys.argv[1]) is obj)\n"
        )
        assert run_fresh(code, name, module) == ["False True", "True"]

    def test_submodule_attribute_is_the_module(self):
        code = (
            "import fastdiffusion\n"
            "print('fastdiffusion.montecarlo' in sys.modules)\n"
            "print(fastdiffusion.montecarlo is sys.modules['fastdiffusion.montecarlo'])\n"
        )
        assert run_fresh(code) == ["False", "True"]

    def test_unknown_and_private_names_raise(self):
        code = (
            "import fastdiffusion\n"
            "for name in ('_private', '__wrapped__', 'no_such_name'):\n"
            "    try:\n"
            "        getattr(fastdiffusion, name)\n"
            "    except AttributeError:\n"
            "        print(name, len([m for m in sys.modules if m.startswith('fastdiffusion.')]))\n"
        )
        # a private name loads nothing; an unknown public one is looked for in every module
        assert run_fresh(code) == ["_private 0", "__wrapped__ 0", "no_such_name 10"]

    def test_version_resolves(self):
        code = (
            "import fastdiffusion\n"
            "print(fastdiffusion.__version__)\n"
            "print(fastdiffusion.records._package_version())\n"
        )
        version, from_records = run_fresh(code)
        assert version == from_records and version


class TestVersionLookup:
    """The version a record prints: importlib.metadata is loaded only when a
    sys.path entry may hold the package's metadata, and the string is the
    one it would report."""

    def test_source_tree_bounds_run_skips_metadata(self, tmp_path):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(BOUNDS), encoding="utf-8")
        code = (
            "import contextlib, io\n"
            "from fastdiffusion import cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = cli.main(['bounds', '--config', sys.argv[1]])\n"
            "print(code, json.loads(out.getvalue())['version'], 'importlib.metadata' in sys.modules)\n"
            "from importlib import metadata\n"
            "try:\n"
            "    print(metadata.version('fastdiffusion'))\n"
            "except metadata.PackageNotFoundError:\n"
            "    print('0.0.0+local')\n"
        )
        printed, reported = run_fresh(code, str(path))
        # after an install (pip install -e .) the record prints the installed version
        installed = reported != "0.0.0+local"
        assert printed == f"0 {reported} {installed}"

    def test_dist_info_on_path_gives_its_version(self, tmp_path):
        info = tmp_path / "fastdiffusion-9.9.dist-info"
        info.mkdir()
        (info / "METADATA").write_text("Metadata-Version: 2.1\nName: fastdiffusion\nVersion: 9.9\n")
        code = (
            "sys.path.insert(0, sys.argv[1])\n"
            "from fastdiffusion import records\n"
            "print(records._package_version(), 'importlib.metadata' in sys.modules)\n"
        )
        assert run_fresh(code, str(tmp_path)) == ["9.9 True"]

    def test_zip_on_path_is_read_through_metadata(self, tmp_path):
        # a zip is not listed: importlib.metadata looks inside it
        path = tmp_path / "dists.zip"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("fastdiffusion-8.8.dist-info/METADATA",
                        "Metadata-Version: 2.1\nName: fastdiffusion\nVersion: 8.8\n")
        code = (
            "sys.path.append(sys.argv[1])\n"
            "from fastdiffusion import records\n"
            "print(records._package_version())\n"
        )
        assert run_fresh(code, str(path)) == ["8.8"]
