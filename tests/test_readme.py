"""Every ```python block of README runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the block's first code line, the code)
BLOCKS = [
    (TEXT.count("\n", 0, block.start(1)) + 1, block[1])
    for block in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
]


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(line, code):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})
