"""Every ```python block of README runs as written, and the CLI block's
examples print what their comments say."""

import json
import re
import shlex
from pathlib import Path

import pytest

from l0convex.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line of the block's first code line, the code)
BLOCKS = [
    (TEXT.count("\n", 0, block.start(1)) + 1, block[1])
    for block in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)
]
CLI_BLOCK = re.search(r"^## CLI\n\n```sh\n(.*?)^```$", TEXT, re.S | re.M)[1].splitlines()
# each `l0convex eval` line whose comment gives the value it prints
EVALS = [
    (shlex.split(command)[1:], value.strip())
    for command, value in (line.split("#") for line in CLI_BLOCK if line.startswith("l0convex eval"))
]


def verify_examples():
    """Each `verify-counterexample` line with the verdict its comment names
    and the `echo ... > file` lines that set it up."""
    setup, comment = [], ""
    for line in CLI_BLOCK:
        if line.startswith("#"):
            comment = line
        elif line.startswith("echo "):
            setup.append(shlex.split(line)[1:])
        elif line.startswith("l0convex verify-counterexample"):
            yield shlex.split(line)[1:], setup, re.search(r"verdict (\w+)", comment)[1]
            setup = []


VERIFY = list(verify_examples())


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("line, code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(line, code):
    # padded so that a traceback names the README's own line numbers
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {"__name__": "readme"})


def test_readme_cli_block_has_its_examples():
    assert len(EVALS) == 4
    assert [verdict for *_, verdict in VERIFY] == ["NotInduced", "Induced"]


@pytest.mark.parametrize("argv, value", EVALS, ids=[argv[1].split()[0] for argv, _ in EVALS])
def test_readme_eval_prints_its_value(capsys, argv, value):
    assert main(argv) == 0
    assert capsys.readouterr().out == value + "\n"


@pytest.mark.parametrize("argv, setup, verdict", VERIFY, ids=[v for *_, v in VERIFY])
def test_readme_verify_gives_its_verdict(capsys, monkeypatch, tmp_path, argv, setup, verdict):
    monkeypatch.chdir(tmp_path)
    for text, redirect, path in setup:
        assert redirect == ">"
        Path(path).write_text(text + "\n")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == verdict
