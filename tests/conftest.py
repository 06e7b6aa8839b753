"""Fixtures shared by several test modules."""

import importlib
import pkgutil

import pytest

import hiergames
import hiergames.core
import hiergames.hierarchy


@pytest.fixture
def off_lattice(monkeypatch):
    """Make any walk of the coalition lattice fail the test.

    Every lattice scan goes through the one walker core._lattice, so it is
    replaced wherever a hiergames module binds it; hierarchy.realize is
    replaced too."""

    def lattice(*args, **kwargs):
        raise AssertionError("the coalition lattice was walked")

    walker = hiergames.core._lattice
    patched = []
    for info in pkgutil.iter_modules(hiergames.__path__):
        module = importlib.import_module(f"hiergames.{info.name}")
        for name, value in list(vars(module).items()):
            if value is walker:
                monkeypatch.setattr(module, name, lattice)
                patched.append(info.name)
    assert {"core", "hierarchy"} <= set(patched)
    monkeypatch.setattr(hiergames.hierarchy, "realize", lattice)
