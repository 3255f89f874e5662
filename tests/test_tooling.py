"""The benchmark's layer list names functions that exist in the package.

Traced benchmark runs wrap every ``LAYERS`` entry of ``perfbench/spans.py``
by name; untraced runs and the rest of this suite never do, so a renamed or
deleted layer function would otherwise go unnoticed.  The file is loaded by
path and only read.
"""

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
