"""Every exported name of the package and its submodules resolves, and so
does every package name a demo reads."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import hsconvex

MODULES = ["hsconvex"] + [f"hsconvex.{m.name}"
                          for m in pkgutil.iter_modules(hsconvex.__path__)]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), name
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _package_uses(tree):
    """(module, name) of every ``from hsconvex... import name`` and every
    ``alias.name`` read through an imported ``hsconvex`` module."""
    uses, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "hsconvex":
            uses += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "hsconvex":
                    bound = a.asname or a.name.split(".")[0]
                    aliases[bound] = a.name if a.asname else bound
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            uses.append((aliases[node.value.id], node.attr))
    return uses


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_names_resolve(path):
    # the demos are too slow for the suite, so this checks statically that
    # every package name they read still exists
    uses = _package_uses(ast.parse(path.read_text()))
    assert uses
    missing = [f"{mod}.{name}" for mod, name in uses
               if not hasattr(importlib.import_module(mod), name)
               and importlib.util.find_spec(f"{mod}.{name}") is None]
    assert not missing, f"{path.name} reads missing names: {missing}"
