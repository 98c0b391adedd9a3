"""The README's library quick start runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs():
    out = io.StringIO()
    namespace = {}
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), namespace)
    # one line per (F, p) pair, all read from one coupled run
    assert [line.split()[:2] for line in out.getvalue().splitlines()] == [
        [kind, str(p)] for kind in ("exp_neg_h_sq", "rational_h") for p in (2.0, 4.0)
    ]
    assert namespace["res"].n_blowups == 0
