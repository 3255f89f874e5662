"""tools/code_lines.py, the counter behind the code-line figures quoted in
CHANGES.md and ROADMAP.md: blank, comment and docstring lines are dropped,
and every line of a multi-line statement counts."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

FIXTURE = '''\
"""Module docstring,
over two lines."""

# a comment
import math


def area(r):
    """Function docstring."""

    # another comment
    total = (math.pi
             * r ** 2)   # trailing comment
    return total


class Box:
    """Class docstring."""
    text = """a multi-line string
that is not a docstring"""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_counts_code_lines_only(tmp_path):
    # import, def, the two-line expression, return, class, the two-line
    # string assignment
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert _tool().count_lines(path) == 8


def test_prints_modules_and_total(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(FIXTURE)
    (pkg / "b.py").write_text(textwrap.dedent("""\
        x = 1

        y = [x,
             2]
        """))
    assert _tool().main([str(pkg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["8", str(pkg / "a.py")], ["3", str(pkg / "b.py")], ["11", "total"]]
