"""Exit code, stdout and stderr of the CLI on help, version and usage errors.

``cli_parity.json`` holds one row per argv, recorded when ``main`` parsed every
request through the top-level parser (Python 3.11's argparse, 80 columns).
``main`` runs a named command's parser alone; these rows pin that it prints
and returns what the two-layer parse did.  ``{instance}`` in an argv is the
worked instance file and ``{version}`` in stdout the package version.  To
print the table of the current tree: ``PYTHONPATH=src python tests/test_cli_parity.py``.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from test_cli import WORKED_INSTANCE

import epibound
from epibound.cli import main

TABLE = json.loads(Path(__file__).with_name("cli_parity.json").read_text())


def run(argv: list, instance: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.replace("{instance}", str(instance)) for a in argv])
    return {"argv": argv, "code": code,
            "out": out.getvalue().replace(epibound.__version__, "{version}"),
            "err": err.getvalue()}


@pytest.fixture
def instance(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(WORKED_INSTANCE))
    return path


@pytest.mark.parametrize("row", TABLE, ids=[" ".join(r["argv"]) or "(none)" for r in TABLE])
def test_same_exit_code_and_output(row, instance):
    assert run(row["argv"], instance) == row
    assert list(instance.parent.iterdir()) == [instance]


def test_ambiguous_prefix_is_judged_by_the_command(instance):
    """The one row that differs: the command's parser, not the top level's, finds it ambiguous."""
    row = run(["bound", "--=x"], instance)
    assert row["code"] == 2 and row["out"] == ""
    assert row["err"].endswith("epibound bound: error: ambiguous option: --=x could match "
                               "--help, --statement, --instance, --alpha, --epsilon, --bS, --bT, "
                               "--out\n")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(WORKED_INSTANCE))
        rows = [run(r["argv"], path) for r in TABLE]
    print(json.dumps(rows, indent=1))
