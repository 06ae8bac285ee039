"""Golden reports: the CLI's stdout, byte for byte, at fixed seeds.

Repeating a run within one version only shows that a report is
deterministic.  These files pin the reports themselves, so a change that
shifts a sampled value, the order of an element's overrides or any other
report byte fails here.  The configs sit next to the reports in
`tests/golden/`.  To regenerate every report from the version on the
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

# name -> CLI arguments; "{cfg}" stands for the golden directory
CASES = {
    "verify_default_seed1": "verify-counterexample --seed 1 --samples 30",
    "verify_default_seed42": "verify-counterexample --seed 42 --samples 30",
    "verify_induced_seed1": "verify-counterexample --config {cfg}/induced.cfg --seed 1 --samples 30",
    "verify_induced_seed42": "verify-counterexample --config {cfg}/induced.cfg --seed 42 --samples 30",
    "check_axioms_seed5": "check axioms --config {cfg}/axioms.cfg --seed 5 --samples 40",
    "check_roundtrip_seed5": "check roundtrip --config {cfg}/roundtrip.cfg --seed 5 --samples 40",
    "check_base_seed5": "check base --config {cfg}/induced.cfg --seed 5 --samples 40",
}


def report(name: str) -> tuple[int, str]:
    """Exit code and stdout of the CLI on case `name`."""
    argv = [word.format(cfg=GOLDEN) for word in CASES[name].split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    code, text = report(name)
    assert code == 0
    assert text == (GOLDEN / f"{name}.json").read_text()


if __name__ == "__main__":
    for name in CASES:
        code, text = report(name)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / f"{name}.json").write_text(text)
