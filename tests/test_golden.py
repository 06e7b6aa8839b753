"""CLI output pinned byte for byte to recorded golden files.

Each file under tests/data/*.golden.json is the stdout of one command, run
from the repository root:

  hiergames sweep --kind KIND --levels 3 --nmax 3 --json
      -> sweep_KIND_l3_n3.golden.json
  hiergames classify --json tests/data/explicit_CLASS.json
      -> classify_explicit_CLASS.golden.json

A change that is meant to alter this output re-records the files with the
same commands and says so; any other difference is a regression.
"""

from pathlib import Path

import pytest

from hiergames.cli import main

DATA = Path(__file__).resolve().parent / "data"

CASES = [
    (
        ["sweep", "--kind", kind, "--levels", "3", "--nmax", "3", "--json"],
        f"sweep_{kind}_l3_n3.golden.json",
    )
    for kind in ("disjunctive", "conjunctive")
] + [
    (
        ["classify", "--json", str(DATA / f"explicit_{name}.json")],
        f"classify_explicit_{name}.golden.json",
    )
    for name in ("weighted", "rough", "not_rough")
]


@pytest.mark.parametrize("argv,golden", CASES, ids=[golden for _, golden in CASES])
def test_cli_output_matches_golden(argv, golden, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")
