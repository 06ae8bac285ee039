"""Golden reports: the CLI's stdout, byte for byte, at fixed seeds.

Repeating a run within one version only shows that a report is
deterministic.  These files pin the reports themselves, so a change that
shifts a sampled value, the order of an element's overrides or any other
report byte fails here.  The configs sit next to the reports in
`tests/golden/`.  `eval` prints a value line, not a JSON report, so its
cases are stored as `.txt`.  To regenerate every report from the version on the
path (only after a deliberate, reviewed change of the report bytes):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from l0convex.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> CLI arguments, split on spaces unless given as a tuple (an
# argument that holds a space); "{cfg}" stands for the golden directory
CASES = {
    "verify_default_seed1": "verify-counterexample --seed 1 --samples 30",
    "verify_default_seed42": "verify-counterexample --seed 42 --samples 30",
    "verify_induced_seed1": "verify-counterexample --config {cfg}/induced.cfg --seed 1 --samples 30",
    "verify_induced_seed42": "verify-counterexample --config {cfg}/induced.cfg --seed 42 --samples 30",
    "check_axioms_seed5": "check axioms --config {cfg}/axioms.cfg --seed 5 --samples 40",
    "check_roundtrip_seed5": "check roundtrip --config {cfg}/roundtrip.cfg --seed 5 --samples 40",
    "check_base_seed5": "check base --config {cfg}/induced.cfg --seed 5 --samples 40",
    "check_cc_diagonal": "check cc --config {cfg}/cc_diagonal.cfg",
    "check_cc_ball": "check cc --config {cfg}/cc_ball.cfg",
    "check_cc_diagonal_finite": "check cc --config {cfg}/cc_diagonal_finite.cfg",
    "eval_glue": ("eval", "glue ec[{|3} | {|5}] finite[{1}, ~{1}]"),
    "partition_from3": "partition --from 3 --cells [{1},{2}]",
}


def arguments(name: str) -> list[str]:
    words = CASES[name]
    if isinstance(words, str):
        words = words.split()
    return [word.replace("{cfg}", str(GOLDEN)) for word in words]


def golden_file(name: str) -> Path:
    suffix = ".txt" if arguments(name)[0] == "eval" else ".json"
    return GOLDEN / f"{name}{suffix}"


def report(name: str) -> tuple[int, str]:
    """Exit code and stdout of the CLI on case `name`."""
    argv = arguments(name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, text = report(name)
    assert code == 0
    assert text == golden_file(name).read_text()


if __name__ == "__main__":
    for name in CASES:
        code, text = report(name)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        golden_file(name).write_text(text)
