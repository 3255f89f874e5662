"""The benchmark's files name functions and parameters the package has.

Traced benchmark runs wrap every ``LAYERS`` entry of ``perfbench/spans.py``
by name and read the sizes in ``COUNTS`` from the wrapped call's arguments
by parameter name; the bk-shape job in ``perfbench/job.py`` calls package
functions with keywords and reads ``RunConfig`` attributes.  The rest of
this suite never runs them, so a renamed or deleted function, parameter or
config attribute would otherwise go unnoticed until a benchmark run.  The
files are loaded by path and only read.  The last two tests check golden
bytes with ``tools/golden_hashes.py``, which reads the benchmark's job
list: all of them in a subprocess, and the ``kernel`` jobs in this process.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
JOB = PERFBENCH / "job.py"


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


def _job_package_use():
    """Calls ``alias.func(...)`` into hsconvex modules and ``cfg.<name>``
    reads in ``perfbench/job.py``: ((module, func, n_positional, keywords),
    names)."""
    tree = ast.parse(JOB.read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "hsconvex":
            for a in node.names:
                aliases[a.asname or a.name] = a.name
    calls, names = [], set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in aliases):
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            calls.append((aliases[node.func.value.id], node.func.attr,
                          len(node.args),
                          tuple(k.arg for k in node.keywords)))
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cfg"):
            names.add(node.attr)
    return calls, names


def test_benchmark_job_calls_match_signatures():
    calls, _ = _job_package_use()
    keywords = {(f"{m}.{f}", k) for m, f, _, kws in calls for k in kws}
    assert keywords >= {
        ("pipeline.ab_fields", "eta"), ("pipeline.ab_fields", "eps"),
        ("pipeline.ab_fields", "resolution"),
        ("continuation.extend_by_global", "eps"),
        ("homtype.build_boundary_grid", "kind"),
        ("homtype.build_boundary_grid", "seed"),
        ("pipeline.check_bk_lemma", "exclude_k")}
    bad = []
    for module, func, n_pos, kws in calls:
        fn = getattr(importlib.import_module(f"hsconvex.{module}"), func,
                     None)
        if not callable(fn):
            bad.append(f"{module}.{func} missing")
            continue
        try:
            inspect.signature(fn).bind(*[None] * n_pos,
                                       **dict.fromkeys(kws))
        except TypeError as exc:
            bad.append(f"{module}.{func}: {exc}")
    assert not bad, bad


def test_benchmark_job_config_attributes_exist(tmp_path):
    from hsconvex.cli import RunConfig
    _, names = _job_package_use()
    assert names >= {"make_domain", "boundary_nodes", "seed", "eps", "eta"}
    path = tmp_path / "run.ini"
    path.write_text("[domain]\nname = ball\n")
    cfg = RunConfig(str(path))
    assert not [n for n in sorted(names) if not hasattr(cfg, n)]


def test_golden_bytes_at_seed_0():
    # every report and CSV of the 34-file golden set hashes as stored in
    # tools/golden/seed0.sha256; the tool exits 3 when the interpreter,
    # numpy or BLAS differ from the stored header, where bytes say nothing
    tool = PERFBENCH.parent / "tools" / "golden_hashes.py"
    out = subprocess.run([sys.executable, str(tool), "--check", "0"],
                         capture_output=True, text=True, timeout=600)
    if out.returncode == 3:
        pytest.skip(out.stdout.strip())
    assert out.returncode == 0, out.stdout + out.stderr


THREAD_VARS = ("HSCONVEX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def test_in_process_kernel_bytes_match_golden(monkeypatch):
    # conftest imports hsconvex before numpy, so the suite's BLAS runs the
    # CLI's one thread and an in-process kernel run writes the golden bytes
    if any(os.environ.get(v, "1") != "1" for v in THREAD_VARS):
        pytest.skip("the suite does not run at one BLAS thread")
    # loading the tool sets the thread variables and prepends perfbench/ to
    # sys.path; both are restored after the test
    for v in THREAD_VARS:
        monkeypatch.setenv(v, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "golden_hashes", PERFBENCH.parent / "tools" / "golden_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    stored = (tool.GOLDEN / "seed0.sha256").read_text().splitlines()
    if stored[0] != tool.header():
        pytest.skip(f"environment differs from the stored hashes: "
                    f"{stored[0][2:]}")
    kernel = [j for j in tool.golden_jobs(0) if j[2] == "kernel"]
    monkeypatch.setattr(tool, "golden_jobs", lambda seed: kernel)
    have = tool.hash_lines(0)
    want = [line for line in stored[1:] if " kernel/" in line]
    assert len(want) == 6
    assert have == want
