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
    # the README's default sample count: the Ball member's boundary branch
    # and the longer streams are pinned too
    "verify_default_seed1_200": "verify-counterexample --seed 1 --samples 200",
    "verify_induced_seed1_200": "verify-counterexample --config {cfg}/induced.cfg --seed 1 --samples 200",
    "verify_blind_seed1": "verify-counterexample --config {cfg}/blind.cfg --seed 1 --samples 30",
    "check_axioms_seed5": "check axioms --config {cfg}/axioms.cfg --seed 5 --samples 40",
    "check_roundtrip_seed5": "check roundtrip --config {cfg}/roundtrip.cfg --seed 5 --samples 40",
    # a composite set: the Scale and Intersect formats, draws and closed forms
    "check_roundtrip_set_seed5": "check roundtrip --config {cfg}/roundtrip_set.cfg --seed 5 --samples 40",
    "check_base_seed5": "check base --config {cfg}/induced.cfg --seed 5 --samples 40",
    # the default base at pointwise radii: eps * y has overrides where the tail decides
    "check_base_counterexample_seed5": "check base --config {cfg}/pointwise.cfg --seed 5 --samples 40",
    "check_cc_diagonal": "check cc --config {cfg}/cc_diagonal.cfg",
    "check_cc_ball": "check cc --config {cfg}/cc_ball.cfg",
    "check_cc_diagonal_finite": "check cc --config {cfg}/cc_diagonal_finite.cfg",
    "check_cc_translate_ball": "check cc --config {cfg}/cc_translate_ball.cfg",
    "check_cc_translate_ball_late": "check cc --config {cfg}/cc_translate_ball_late.cfg",
    # the third element lies outside the ball, but no cell of the partition glues it
    "check_cc_finite_unglued": "check cc --config {cfg}/cc_finite_unglued.cfg",
    "eval_glue": ("eval", "glue ec[{|3} | {|5}] finite[{1}, ~{1}]"),
    "eval_seminorm_sup": (
        "eval",
        "seminorm sup[weighted({1:2, 3:1/3 | 1}), localized(~{2}), zero] {1:-3, 2:7 | 1/2}",
    ),
    "eval_seminorm_nested_sup": (
        "eval",
        "seminorm sup[localized({1}), sup[weighted({|1/3}), localized(~{1,2})]] {1:-2, 2:3 | 6}",
    ),
    "eval_gauge_ball": (
        "eval",
        "gauge ball(sup[weighted({|1/2}), localized({1,4})]; {1:2 | 1/3}) {1:-3, 4:5 | 1/2}",
    ),
    "eval_gauge_ball_pair": (
        "eval",
        "gauge ball(weighted({1:0, 2:3 | 1}), localized(~{1}); {|2}) {1:9, 2:1/2 | -1}",
    ),
    "eval_contains_ball_outside": (
        "eval",
        "contains ball(sup[weighted({|1/2}), localized({1,4})]; {1:2 | 1/3}) {1:-3, 4:5 | 1/7}",
    ),
    "eval_contains_ball_pair_inside": (
        "eval",
        "contains ball(weighted({1:0, 2:3 | 1}), localized(~{1}); {|2}) {1:9, 2:1/2 | -1}",
    ),
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
