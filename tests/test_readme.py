"""README.md's Python examples run, and print what their comments say.

Each fenced ``python`` block is executed on its own and its stdout captured.
Every ``print(...)  # value`` line must print ``value``, in order, so the
library examples keep up with the API they show.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
PRINT_COMMENT = re.compile(r"^\s*print\(.*\)\s+#\s?(.*?)\s*$")


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(1, len(BLOCKS) + 1)])
def test_readme_block_prints_its_comments(source):
    expected = [m.group(1) for m in map(PRINT_COMMENT.match, source.splitlines()) if m]
    assert len(expected) == source.count("print("), "every print needs a `# value` comment"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected
