"""The README's library quick start runs as written, its command table is
the CLI's and its config key table is the schema table."""

import contextlib
import io
import json
import re
from pathlib import Path

from fastdiffusion import cli, config

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
    res = namespace["res"]
    assert res.n_blowups == 0
    assert 0.0 < res.weight_health()["weight_ess"] <= res.XT.shape[0]


# --- the config key table is the schema table -----------------------------

_KIND_TEXT = {
    "num": "number",
    "int": "integer",
    "bool": "boolean",
    "nums": "nonempty list of numbers, each",
    "state": "state",
    "schedule": "number or step schedule,",
    "measure": '`"uniform"` or n weights, each',
    "operator": '`"dirichlet1d"` or `{"matrix": [[...]]}`, n x n',
    "q_diag": '`{"power": p}` or n nonzero numbers',
    "test_function": "object with a `kind`",
    "checks": "nonempty list of checks",
    "block": "object",
}


def _names(names) -> str:
    for everything, text in (
        (set(config.COMMANDS), "all"),
        (set(config.COMMANDS) - {"conditions"}, "all but `conditions`"),
        (set(config.CONDITION_CHECKS), "all checks"),
        (set(config.TEST_FUNCTION_KINDS), "all kinds"),
    ):
        if set(names) == everything:
            return text
    return ", ".join(f"`{c}`" for c in names)


def schema_rows():
    """The README row of each schema row: key, commands, range, default."""
    for k in config._SCHEMA:
        if k.kind == "choice":
            rng = "one of " + ", ".join(f"`{c}`" for c in k.choices)
        else:
            rng = f"{_KIND_TEXT[k.kind]} {k.bounds()}".strip(" ,")
        default = k.note or ("none" if k.default is None else f"`{json.dumps(k.default)}`")
        if set(k.required) == set(k.commands):
            default = "required"
        elif k.required:
            default = f"required for {_names(k.required)}, else {default}"
        yield [f"`{k.path}`", _names(k.commands), rng, default]


def readme_rows():
    section = README.read_text(encoding="utf-8").split("### Config keys", 1)[1]
    lines = section.split("| --- |", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    return [[cell.strip() for cell in line.strip().strip("|").split(" | ")] for line in lines]


def test_readme_key_table_is_the_schema():
    assert readme_rows() == list(schema_rows())


# --- the command table is the CLI's ---------------------------------------

def readme_commands():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    table = section.split("| command", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")] for line in table]


def test_readme_command_table_is_the_cli_table():
    assert list(cli._COMMANDS) == list(config.COMMANDS)
    assert readme_commands() == [[f"`{name}`", help_line] for name, (_, help_line) in cli._COMMANDS.items()]
