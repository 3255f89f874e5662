"""Every exported name of the package and its submodules resolves, and so
does every package name a demo or README's oracle list reads."""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import hsconvex

MODULES = ["hsconvex"] + [f"hsconvex.{m.name}"
                          for m in pkgutil.iter_modules(hsconvex.__path__)]
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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


def _oracle_spans():
    """The backticked spans of README's "Test oracles" section."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Test oracles\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"`([^`]+)`", section)


def _resolves(dotted):
    """Whether ``a.b[.c]`` names a module attribute, class attribute or
    dataclass field, its head being an ``hsconvex`` module or a name the
    package exports."""
    head, *rest = dotted.split(".")
    if importlib.util.find_spec(f"hsconvex.{head}") is not None:
        obj = importlib.import_module(f"hsconvex.{head}")
    else:
        obj = getattr(hsconvex, head, None)
    for i, name in enumerate(rest):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif i == len(rest) - 1 and dataclasses.is_dataclass(obj):
            return name in {f.name for f in dataclasses.fields(obj)}
        else:
            return False
    return obj is not None


def test_readme_oracles_resolve():
    # the oracle list is prose, so nothing else notices a renamed or
    # deleted oracle: every ``module.name`` and ``tests/file.py::name`` in
    # it must still exist (a call's arguments are dropped)
    spans = _oracle_spans()
    dotted = [m[1] for s in spans
              if (m := re.fullmatch(r"(\w+(?:\.\w+)+)(\(.*\))?", s))]
    in_tests = [s.split("::") for s in spans if "::" in s]
    assert len(dotted) >= 11 and len(in_tests) >= 3
    missing = [d for d in dotted if not _resolves(d)]
    for path, name in in_tests:
        tree = ast.parse((ROOT / path).read_text())
        if name not in {n.name for n in tree.body if isinstance(
                n, (ast.FunctionDef, ast.ClassDef))}:
            missing.append(f"{path}::{name}")
    assert not missing, f"README's test oracles name missing: {missing}"
