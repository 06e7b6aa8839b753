"""Fixtures shared by several test modules, and the --run-slow option:
tests marked slow are skipped unless it is given."""

import importlib
import pkgutil

import pytest

import hiergames
import hiergames.core


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def off_lattice(monkeypatch):
    """Make any access to the coalition lattice fail the test.

    Every lattice access (iter_coalitions, core._lattice, the one gate to
    a game's whole-lattice pass, and core._prefix_game, which
    hierarchy.realize calls) checks the cap first through core._check_cap,
    which only core binds; it is replaced there."""

    def check(*args, **kwargs):
        raise AssertionError("the coalition lattice was reached")

    checker = hiergames.core._check_cap
    patched = []
    for info in pkgutil.iter_modules(hiergames.__path__):
        module = importlib.import_module(f"hiergames.{info.name}")
        for name, value in list(vars(module).items()):
            if value is checker:
                monkeypatch.setattr(module, name, check)
                patched.append(info.name)
    assert patched == ["core"]
