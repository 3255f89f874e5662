"""Every exported name of the package and its submodules resolves."""

import importlib
import pkgutil

import pytest

import hsconvex

MODULES = ["hsconvex"] + [f"hsconvex.{m.name}"
                          for m in pkgutil.iter_modules(hsconvex.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), name
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
