"""The benchmark's layer list names functions that exist in the package.

Traced benchmark runs wrap every ``LAYERS`` entry of ``perfbench/spans.py``
by name and read the sizes in ``COUNTS`` from the wrapped call's arguments
by parameter name; untraced runs and the rest of this suite never do, so a
renamed or deleted layer function or parameter would otherwise go unnoticed.
The file is loaded by path and only read.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, names in spans.LAYERS.items():
        mod = importlib.import_module(f"hsconvex.{module}")
        for name in names:
            if not inspect.isfunction(getattr(mod, name, None)):
                missing.append(f"{module}.{name}")
    assert not missing, missing


def _counted_arguments():
    """(layer, argument name) for every ``a["name"]`` a COUNTS entry reads."""
    tree = ast.parse(SPANS.read_text())
    counts = next(node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "COUNTS"
                          for t in node.targets))
    out = []
    for key, fn in zip(counts.keys, counts.values):
        args = fn.args.args[0].arg          # the bound-arguments mapping
        for node in ast.walk(fn.body):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == args
                    and isinstance(node.slice, ast.Constant)):
                out.append((key.value, node.slice.value))
    return out


def test_every_counted_argument_is_a_parameter():
    read = _counted_arguments()
    assert {name for _, name in read} >= {"z", "dirs", "nodes", "grid",
                                          "n_levels", "shell"}
    missing = []
    for layer, name in read:
        module, func = layer.split(".")
        fn = getattr(importlib.import_module(f"hsconvex.{module}"), func)
        if name not in inspect.signature(fn).parameters:
            missing.append(f"{layer}({name})")
    assert not missing, missing
