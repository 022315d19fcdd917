"""The command line pins of ``cli_pins.ROWS``, run in-process.

Each row runs here through ``cli.main``, and in CI through the installed
``rsplfr`` console script by ``python tests/cli_pins.py``.  The workflow
calls ``rsplfr`` only through that runner, so each pin is stated once.
"""

import ast
import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

import cli_pins
from rsplfr import cli

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
# a command line that runs rsplfr: the console script or its module
RUNS_RSPLFR = re.compile(r"(?<![\w./-])rsplfr(\.cli)?(\s|$)")


def _in_process(argv, cwd):
    out = io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue()


@pytest.mark.parametrize("row", cli_pins.ROWS, ids=lambda row: row.name)
def test_pinned_row(row, monkeypatch):
    monkeypatch.delenv("RSPLFR_SEED", raising=False)
    problems = cli_pins.check(row, _in_process)
    assert not problems, "\n".join(problems)


def test_the_workflow_runs_rsplfr_only_through_the_rows():
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    sites = [f"tests.yml:{n} {line.strip()}" for n, line in enumerate(lines, 1)
             if RUNS_RSPLFR.search(line)]
    assert not sites, "rsplfr run outside tests/cli_pins.py: " + ", ".join(sites)
    assert any("tests/cli_pins.py" in line for line in lines)


def test_the_runner_is_python_3_10_and_standard_library_only():
    # CI runs the script on every Python of its matrix, from 3.10 on
    tree = ast.parse(Path(cli_pins.__file__).read_text(encoding="utf-8"),
                     feature_version=(3, 10))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported <= sys.stdlib_module_names - {"tomllib"}, imported
