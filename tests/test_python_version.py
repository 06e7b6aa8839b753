"""pyproject.toml promises Python >= 3.10: the package must parse as 3.10."""

import ast
from pathlib import Path

import pytest

import hiergames

SOURCES = sorted(Path(hiergames.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "core.py", "cli.py"}
