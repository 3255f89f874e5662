"""tools/live_lines.py, the statement-level audit of the live paths: its
collector names exactly the function-body statements a traced run left
unexecuted."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "live_lines.py"

FIXTURE = '''\
def sign(x):
    """Docstring."""
    if x >= 0:
        label = "plus"
        return label
    else:
        label = ("min"
                 + "us")
        return label
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_names_exactly_the_arm_that_did_not_run(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    tool = _load("live_lines", TOOL)
    before = sys.gettrace()
    fixture = _load("live_lines_fixture", path)
    result, missed = tool.unexecuted(tmp_path, lambda: fixture.sign(1.0))
    assert result == "plus"
    assert missed == {path: [7, 9]}
    assert tool.ranges(missed[path]) == "7 9"
    assert sys.gettrace() is before
    _, missed = tool.unexecuted(tmp_path, lambda: fixture.sign(-1.0))
    assert missed == {path: [4, 5]}
    assert tool.ranges(missed[path]) == "4-5"
