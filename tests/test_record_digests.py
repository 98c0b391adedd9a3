"""tools/record_digests.py --against: silent and exit 0 on equal records,
one line per differing record and exit 1 otherwise."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "record_digests.py"


def against(other_src: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), "--against", str(other_src)],
                          capture_output=True, text=True, timeout=300)


def test_own_source_is_identical():
    out = against(ROOT / "src")
    assert (out.returncode, out.stdout) == (0, ""), out.stderr


def test_changed_source_exits_1(tmp_path):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src", other, ignore=shutil.ignore_patterns("__pycache__"))
    coupling = other / "fastdiffusion" / "coupling.py"
    text = coupling.read_text(encoding="utf-8")
    assert "DEFAULT_TOL_FACTOR = 1e-6\n" in text
    coupling.write_text(text.replace("DEFAULT_TOL_FACTOR = 1e-6\n", "DEFAULT_TOL_FACTOR = 1e-3\n"),
                        encoding="utf-8")
    out = against(other)
    assert out.returncode == 1, out.stderr
    assert len(out.stdout.splitlines()) >= 1
