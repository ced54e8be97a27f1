"""Byte-identity of every checked-in golden, run in-process through the CLI.

Each golden is the stdout of one CLI invocation captured before a change
that must not alter output; a diff here means behaviour changed.
"""

from pathlib import Path

import pytest

from repro.cli import main

HERE = Path(__file__).parent
GOLDENS = HERE / "goldens"
BASELINE = HERE.parent / "scenarios" / "boutique-baseline.json"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("tables.txt", ["tables"]),
        ("fig11-600s.txt", ["motion", "--duration", "600"]),
        ("fig11-7200s.txt", ["motion", "--duration", "7200"]),
        ("fig910-smoke.txt", ["boutique", "--scale", "0.05", "--duration", "8"]),
        ("fig910-smoke.txt", ["run", str(BASELINE)]),
    ],
    ids=["tables", "fig11-600s", "fig11-7200s", "fig910-smoke", "scenario-baseline"],
)
def test_cli_output_matches_golden(golden, argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDENS / golden).read_text()
