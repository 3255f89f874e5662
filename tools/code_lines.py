#!/usr/bin/env python3
"""Code lines of Python modules: no blank, comment or docstring lines.

Usage (from any directory):

    python3 tools/code_lines.py [PATH ...]

PATH is a ``.py`` file or a directory searched recursively; the default is
the checkout's ``src/``.  A line counts when it holds a token other than a
comment or a line break; every line a multi-line token spans (a string, say)
counts.  Docstrings, the string statements that open a module, class or
function (found with :mod:`ast`), are dropped whole.  Prints one
``<count>  <path>`` line per module, sorted by path, then ``<total>  total``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(path):
    """Code lines of one module."""
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def modules(paths):
    """Every ``.py`` file named by or found under the given paths, sorted."""
    found = []
    for p in map(Path, paths):
        found += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return sorted(found)


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    paths = args or [Path(__file__).resolve().parents[1] / "src"]
    total = 0
    for path in modules(paths):
        n = count_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
