#!/usr/bin/env python3
"""Function-body statements of the package that no real run executes.

Usage (from any directory):

    python3 tools/live_lines.py SEED

Runs, in this process and under one ``sys.settrace`` hook limited to the
checkout's ``src/hsconvex/``, the golden job set of
``tools/golden_hashes.py`` at SEED (at one BLAS thread, as that tool runs
it) and then ``tests/test_acceptance.py`` through pytest.  These are the
live paths: what the CLI commands and the acceptance criteria run.

Counted are the statements inside function bodies, docstrings excluded;
module and class bodies run on import and are not counted.  A statement
ran when a line event fell on one of its header lines: the whole of a
simple statement, or the lines of a compound one (``if``, ``for``, ...)
before its body.  Prints pytest's own output, then one
``<path>: <lines>`` line per module with statements that never ran (their
first lines, consecutive ones as ranges like ``212-213``), then
``<count>  total``.  The exit status is pytest's.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hsconvex"


def _is_docstring(stmt):
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
        and isinstance(stmt.value.value, str)


def _nested(stmt):
    """The statement lists nested in a compound statement, if any."""
    blocks = [getattr(stmt, f, []) for f in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(stmt, "handlers", [])]
    blocks += [c.body for c in getattr(stmt, "cases", [])]
    return [b for b in blocks if b]


def statements(source):
    """{first line: header lines} of every function-body statement.

    A nested function's or class's own body is not descended into here:
    ``ast.walk`` reaches every function, and class bodies are not counted.
    """
    out = {}

    def add(body):
        for stmt in body:
            first = min([stmt.lineno] + [d.lineno for d in
                                         getattr(stmt, "decorator_list", [])])
            inner = _nested(stmt)
            end = inner[0][0].lineno if inner else stmt.end_lineno + 1
            out[first] = range(first, max(end, stmt.lineno + 1))
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                for block in inner:
                    add(block)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add(node.body[1:] if _is_docstring(node.body[0]) else node.body)
    return out


def unexecuted(root, run):
    """``(run(), missed)``: ``run()`` traced, and what it left unexecuted.

    Line events are recorded for code in files under ``root`` only;
    ``missed`` maps every ``.py`` file under ``root`` with a function-body
    statement that never ran to the sorted first lines of those statements.
    The tracer in place before the call is restored after it.
    """
    prefix = str(root).rstrip("/") + "/"
    hits = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = hits.setdefault(name, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(before)
    missed = {}
    for path in sorted(Path(root).rglob("*.py")):
        ran = hits.get(str(path), set())
        lines = [first for first, header in
                 statements(path.read_text()).items()
                 if ran.isdisjoint(header)]
        if lines:
            missed[path] = sorted(lines)
    return result, missed


def ranges(lines):
    """Sorted line numbers as ``a-b`` runs of consecutive numbers."""
    runs = []
    for n in lines:
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return " ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def _live_run(seed):
    """Run the golden jobs and the acceptance criteria; pytest's status.

    ``golden_hashes`` (this script's neighbour) is imported here, under the
    hook, since importing it imports the package.
    """
    import golden_hashes
    if PACKAGE not in Path(golden_hashes.cli.__file__).resolve().parents:
        raise SystemExit(f"hsconvex imported from {golden_hashes.cli.__file__}"
                         f", not from {PACKAGE.parent}")
    golden_hashes.hash_lines(seed)
    return pytest.main(["-q", "-p", "no:cacheprovider",
                        str(ROOT / "tests" / "test_acceptance.py")])


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: live_lines.py SEED")
    seed = int(argv[0])
    status, missed = unexecuted(PACKAGE, lambda: _live_run(seed))
    for path, lines in missed.items():
        print(f"{path.relative_to(ROOT)}: {ranges(lines)}")
    print(f"{sum(map(len, missed.values()))}  total")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
