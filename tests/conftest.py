"""Fixtures shared by several test modules."""

import importlib
import pkgutil

import pytest

import hiergames
import hiergames.core


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
