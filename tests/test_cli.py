import contextlib
import errno
import importlib
import io
import json
import os
import pstats
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from l0convex import _cli_eval, cli, seminorms, sets
from l0convex.cli import main
from l0convex.config import _KEYS, parse_config
from l0convex.l0 import NotInvertible
from l0convex.topology import seminorm_induction_verdict
import test_imports
from test_imports import child


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_degenerate_gauge(self, capsys):
        code, out, _ = run(capsys, "eval", "gauge m_plus_ball({|1}) {|5}")
        assert code == 0
        assert out.strip() == "{|0}"

    def test_probability(self, capsys):
        code, out, _ = run(capsys, "eval", "prob {1,3}")
        assert code == 0
        assert out.strip() == "5/8"

    def test_contains_boundary(self, capsys):
        code, out, _ = run(capsys, "eval", "contains ball(weighted({|1}); {|1}) {|1}")
        assert code == 0
        assert out.strip() == "true"

    def test_seminorm_evaluation(self, capsys):
        code, out, _ = run(capsys, "eval", "seminorm localized({2}) {2:-3 | 1}")
        assert code == 0
        assert out.strip() == "{2:3 | 0}"

    def test_glue(self, capsys):
        code, out, _ = run(capsys, "eval", "glue ec[{|3} | {|5}] finite[{1}, ~{1}]")
        assert code == 0
        assert out.strip() == "{1:3 | 5}"

    def test_glue_diagonal_on_a_finite_partition(self, capsys):
        code, out, _ = run(capsys, "eval", "glue diag({|2}) finite[{1}, ~{1}]")
        assert code == 0
        assert out.strip() == "{|2}"

    def test_glue_ec_prefix_then_singleton_tail(self, capsys):
        """By hand: the first element on {1,2}, the second on {3}, the tail
        element from atom 4 on."""
        expr = "glue ec[{1:5 | 1}, {|2} | {4:7, 9:8 | 9}] singletons_from(3; {1,2})"
        code, out, _ = run(capsys, "eval", expr)
        assert code == 0
        assert out.strip() == "{1:5, 2:1, 3:2, 4:7, 9:8 | 9}"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "gauge m_plus_ball({|1}) {1:x | 0}")
        assert code == 2
        assert "column" in err

    def test_unsupported_gauge_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "gauge translate({|1}; ball(zero; {|1})) {|0}")
        assert code == 2


class TestCheck:
    def test_roundtrip_localized(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seminorm = localized({1})\nsamples = 100\n")
        code, out, _ = run(capsys, "check", "roundtrip", "--config", str(config))
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["schema"] == 3

    def test_roundtrip_ball_of_two_seminorms(self, capsys, tmp_path):
        """On a ball the roundtrip also compares the gauge with the max of
        the family's own evaluations over the radius."""
        config = tmp_path / "run.cfg"
        config.write_text("set = ball(weighted({|1}), localized({2}); {|1})\n")
        code, out, _ = run(capsys, "check", "roundtrip", "--samples", "30", "--config", str(config))
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_cc_expected_failure_exits_zero(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "set = m_plus_ball({|1})\n"
            "seq.diag = {|2}\n"
            "part.singletons_from = 1\n"
            "expect = fail\n"
        )
        code, out, _ = run(capsys, "check", "cc", "--config", str(config))
        assert code == 0
        doc = json.loads(out)
        entry = doc["steps"][0]["inputs"]["entries"][0]
        assert entry["glue"] == "{|2}"
        assert entry["glue_in_set"] is False

    def test_cc_unexpected_failure_exits_one(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "set = m_plus_ball({|1})\nseq.diag = {|2}\npart.singletons_from = 1\n"
        )
        code, _, _ = run(capsys, "check", "cc", "--config", str(config))
        assert code == 1

    def test_cc_diagonal_on_a_finite_partition_glues(self, capsys, tmp_path):
        """A diagonal glues to its value on a finite partition too, so the
        entry carries the glue and both of its checks."""
        config = tmp_path / "run.cfg"
        config.write_text(
            "set = ball(weighted({|1}); {|1})\n"
            "seq.diag = {1:1, 3:-2/3 | 1/2}\n"
            "part.finite = [{1}, ~{1}]\n"
            "expect = pass\n"
        )
        code, out, _ = run(capsys, "check", "cc", "--config", str(config))
        assert code == 0
        (entry,) = json.loads(out)["steps"][0]["inputs"]["entries"]
        assert entry["precondition_ok"] is True
        assert entry["glue"] == "{1:1, 3:-2/3 | 1/2}"
        assert entry["glue_in_set"] is True
        assert entry["seminorm_identity_ok"] is True

    def test_cc_translate_of_m_plus_ball_is_decided(self, capsys, tmp_path):
        """Late diagonal pieces have zero tails, so they lie in
        offset + (M + B) exactly when |tail(offset)| <= tail(B)."""
        config = tmp_path / "run.cfg"
        config.write_text(
            "set = translate({|1}; m_plus_ball({|1}))\n"
            "seq.diag = {|1}\n"
            "part.singletons_from = 1\n"
            "expect = fail\n"
        )
        code, out, _ = run(capsys, "check", "cc", "--config", str(config))
        assert code == 1  # the glue {|1} stays in the set: closure holds, not the declared fail
        step = json.loads(out)["steps"][0]
        entry = step["inputs"]["entries"][0]
        assert entry["precondition_ok"] is True
        assert entry["glue"] == "{|1}" and entry["glue_in_set"] is True
        assert step["observed"] == "outcome: pass"

    def test_cc_translate_pieces_outside_the_set(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "set = translate({|3}; m_plus_ball({|1}))\n"
            "seq.diag = {|1}\n"
            "part.singletons_from = 1\n"
            "expect = fail\n"
        )
        code, out, _ = run(capsys, "check", "cc", "--config", str(config))
        assert code == 1
        entry = json.loads(out)["steps"][0]["inputs"]["entries"][0]
        assert entry["precondition_ok"] is False

    def test_base_axioms_default_radii(self, capsys):
        code, out, _ = run(capsys, "check", "base", "--samples", "50")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        # the radii verify-counterexample samples too
        assert doc["steps"][0]["inputs"]["epsilon"] == "{|1}"
        assert doc["steps"][0]["inputs"]["delta"] == "{|1/2}"

    def test_axioms(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("seminorm = sup[weighted({|1}), localized({2})]\nsamples = 200\n")
        code, out, _ = run(capsys, "check", "axioms", "--config", str(config))
        assert code == 0

    def test_axioms_failing_under_a_broken_evaluator_exits_one(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(seminorms, "evaluate", lambda s, x: x * x)
        config = tmp_path / "run.cfg"
        config.write_text("seminorm = weighted({|1})\nsamples = 20\nseed = 1\n")
        code, out, err = run(capsys, "check", "axioms", "--config", str(config))
        assert code == 1
        assert "FAIL  seminorm_axioms" in err
        assert json.loads(out)["pass"] is False

    def test_missing_target_config_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "axioms")
        assert code == 2
        assert "seminorm" in err


class TestVerify:
    def test_counterexample_verdict(self, capsys):
        code, out, _ = run(capsys, "verify-counterexample", "--samples", "25")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NotInduced"
        assert doc["pass"] is True
        names = {step["name"] for step in doc["steps"]}
        assert {
            "base_axioms",
            "gauge_degeneracy",
            "proper_closed_submodule",
            "concatenation_failure",
            "hausdorff_diagnosis",
        } <= names

    def test_seminorm_base_verdict(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text('base = from_seminorms[weighted({|1})]\nsamples = 25\n')
        code, out, _ = run(capsys, "verify-counterexample", "--config", str(config))
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "Induced"
        assert doc["family"] == ["weighted({|1})"]

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("epsilon = {1:3, | 0}\n")
        code, _, err = run(capsys, "verify-counterexample", "--config", str(config))
        assert code == 2
        assert "line 1" in err

    def test_reports_identical_across_runs(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, _, _ = run(
                capsys,
                "verify-counterexample",
                "--samples",
                "10",
                "--seed",
                "9",
                "--json",
                str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestWrongBallCoefficient:
    """A `Ball.coefficient` off by a factor fails the roundtrip: its gauge
    no longer equals the family's own evaluation over the radius."""

    FACTORS = [Fraction(2), Fraction(1, 3)]

    @pytest.fixture
    def reads(self, monkeypatch, request):
        counted = []
        right = sets.Ball.coefficient.func

        def wrong(ball):
            counted.append(ball)
            return right(ball) * request.param

        monkeypatch.setattr(sets.Ball, "coefficient", property(wrong))
        return counted

    @pytest.mark.parametrize("reads", FACTORS, indirect=True, ids=["2x", "1/3x"])
    def test_verify_on_a_seminorm_base_fails(self, capsys, tmp_path, reads):
        config = tmp_path / "run.cfg"
        config.write_text("base = from_seminorms[weighted({|1}), localized({2})]\n")
        code, out, _ = run(
            capsys, "verify-counterexample", "--seed", "1", "--samples", "30",
            "--config", str(config),
        )
        assert reads  # the wrong coefficient was the one read
        doc = json.loads(out)
        steps = {step["name"]: step["pass"] for step in doc["steps"]}
        assert steps["gauge_membership_roundtrip"] is False
        assert (code, doc["pass"]) == (1, False)

    @pytest.mark.parametrize("reads", FACTORS, indirect=True, ids=["2x", "1/3x"])
    def test_check_roundtrip_on_a_ball_exits_1(self, capsys, tmp_path, reads):
        config = tmp_path / "run.cfg"
        config.write_text("set = ball(weighted({|1}), localized({2}); {|1})\n")
        code, out, _ = run(
            capsys, "check", "roundtrip", "--samples", "30", "--config", str(config)
        )
        assert reads
        assert (code, json.loads(out)["pass"]) == (1, False)


NOT_INDUCED_STEPS = [
    "base_axioms",
    "gauge_degeneracy",
    "gauge_monotonicity",
    "proper_closed_submodule",
    "concatenation_failure",
    "hausdorff_diagnosis",
    "zero_family_contradiction",
]


class TestSinglePipeline:
    """The verify report is the library verdict's step list, one step per
    checked fact."""

    @pytest.mark.parametrize(
        "text, names",
        [
            ("", NOT_INDUCED_STEPS),
            (
                "base = from_seminorms[weighted({|1}), localized({2})]\n",
                [
                    "base_axioms",
                    "gauge_membership_roundtrip",
                    "hausdorff_diagnosis",
                ],
            ),
            # the default base, named
            ("base = counterexample\n", NOT_INDUCED_STEPS),
        ],
    )
    def test_steps_are_the_library_verdict(self, capsys, tmp_path, text, names):
        config = tmp_path / "run.cfg"
        config.write_text(text + "seed = 3\nsamples = 8\n")
        code, out, _ = run(capsys, "verify-counterexample", "--config", str(config))
        assert code == 0
        steps = json.loads(out)["steps"]
        cli_names = [step["name"] for step in steps]
        assert len(cli_names) == len(set(cli_names))
        assert cli_names == names

        parsed, _ = parse_config(config.read_text())
        verdict = seminorm_induction_verdict(
            parsed.base,
            seed=parsed.seed,
            samples=parsed.samples,
            epsilon=parsed.epsilon,
            delta=parsed.delta,
        )
        assert cli_names == [step.name for step in verdict.steps]
        assert steps == [step.to_json() for step in verdict.steps]


def sup_nested(levels):
    return "sup[" * levels + "weighted({|1})" + "]" * levels


def scale_nested(levels):
    return "scale({|2}; " * (levels - 1) + "ball(weighted({|1}); {|1})" + ")" * (levels - 1)


def intersect_nested(levels):
    return "intersect[" * (levels - 1) + "ball(weighted({|1}); {|1})" + "]" * (levels - 1)


# Each command that reads a seminorm or a set: its argv and config text
# for a literal nested `levels` deep.
NESTED_INPUTS = {
    "eval seminorm": lambda n: (("eval", f"seminorm {sup_nested(n)} {{1:2 | 3}}"), None),
    "eval gauge": lambda n: (("eval", f"gauge {scale_nested(n)} {{1:2 | 3}}"), None),
    "eval contains": lambda n: (("eval", f"contains {scale_nested(n)} {{1:2 | 3}}"), None),
    "check axioms": lambda n: (
        ("check", "axioms", "--samples", "5"), f"seminorm = {sup_nested(n)}"
    ),
    "check roundtrip": lambda n: (
        ("check", "roundtrip", "--samples", "5"), f"set = {scale_nested(n)}"
    ),
    "check cc": lambda n: (
        ("check", "cc"),
        f"set = {intersect_nested(n)}\nseq.diag = {{|1/2}}\npart.singletons_from = 1",
    ),
    "verify": lambda n: (
        ("verify-counterexample", "--samples", "5"),
        f"base = from_seminorms[{sup_nested(n)}]",
    ),
}


class TestNestingLimit:
    """Every command reads a literal nested 64 deep, and refuses one nested
    a level deeper with exit code 2, never an internal error."""

    @pytest.mark.parametrize("levels, expected", [(64, 0), (65, 2)], ids=["64", "65"])
    @pytest.mark.parametrize("inputs", NESTED_INPUTS.values(), ids=NESTED_INPUTS)
    def test_depth(self, capsys, tmp_path, inputs, levels, expected):
        argv, text = inputs(levels)
        if text is not None:
            (tmp_path / "run.cfg").write_text(text + "\n")
            argv = (*argv, "--config", str(tmp_path / "run.cfg"))
        code, out, err = run(capsys, *argv)
        assert code == expected, err
        if expected:
            assert out == ""
            assert err.startswith("error: a literal nested more than 64 levels deep (line 1, ")


class TestVacuousRuns:
    """Zero samples would let every sampled step pass without checking
    anything, so they are a usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-counterexample", "--samples", "0"),
            ("verify-counterexample", "--samples", "-1"),
            ("check", "axioms", "--samples", "0"),
            ("check", "roundtrip", "--samples", "-3"),
            ("check", "base", "--samples", "-1"),
            ("check", "base", "--samples", "0"),
        ],
    )
    def test_flag_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, text",
        [
            (("verify-counterexample",), "samples = 0\n"),
            (("verify-counterexample",), "samples = -1\n"),
            # no longer a vacuous run but an unknown key: still exit 2
            (("verify-counterexample",), "horizon = -3\nsamples = 5\n"),
            (("check", "base"), "samples = -1\n"),
        ],
    )
    def test_config_key_exits_2(self, capsys, tmp_path, command, text):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        code, out, err = run(capsys, *command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestNegativeSeed:
    """`random.Random(-5)` seeds like 5, so a negative seed would print the
    evidence of its absolute value under its own header."""

    COMMANDS = [("verify-counterexample",), ("check", "base"), ("check", "axioms")]
    CONFIG = "seminorm = localized({1})\n"

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_flag_exits_2(self, capsys, tmp_path, command):
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG if command[-1] == "axioms" else "")
        code, out, err = run(capsys, *command, "--seed", "-5", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err == "error: seed must be at least 0, got -5\n"

    @pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
    def test_config_key_exits_2(self, capsys, tmp_path, command):
        config = tmp_path / "run.cfg"
        config.write_text((self.CONFIG if command[-1] == "axioms" else "") + "seed = -5\n")
        code, out, err = run(capsys, *command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert err == "error: seed must be at least 0, got -5\n"


class TestSamplingFlags:
    """Only verify-counterexample and check sample; the other commands
    reject --seed and --samples instead of ignoring them, and no command
    takes --horizon."""

    @pytest.mark.parametrize("flag", ["--seed", "--horizon", "--samples"])
    @pytest.mark.parametrize(
        "command",
        [("eval", "prob {1}"), ("partition", "--from", "3", "--cells", "[{1},{2}]")],
        ids=["eval", "partition"],
    )
    def test_flag_rejected(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, flag, "7"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err


class TestSamplingKeys:
    """Nor do eval and partition read the seed and samples config keys,
    so a config file that sets one (or the unknown key horizon) is
    rejected."""

    @pytest.mark.parametrize("key", ["seed", "horizon", "samples"])
    @pytest.mark.parametrize(
        "command",
        [("eval", "prob {1}"), ("partition", "--from", "3", "--cells", "[{1},{2}]")],
        ids=["eval", "partition"],
    )
    def test_config_key_rejected(self, capsys, tmp_path, command, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"# the key alone\n{key} = 7\n")
        code, out, err = run(capsys, *command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and repr(key) in err


class TestSpaceKeys:
    """Only `eval prob` and `partition` read the space; the other commands
    reject a non-default one instead of ignoring it."""

    SPACE = 'space.explicit = [[1, "1/3"]]\nspace.tail_coefficient = 4/3\n'

    @pytest.mark.parametrize(
        "command", [("verify-counterexample", "--samples", "5"), ("check", "base", "--samples", "5")]
    )
    def test_ignored_space_exits_2(self, capsys, tmp_path, command):
        config = tmp_path / "run.cfg"
        config.write_text(self.SPACE)
        code, out, err = run(capsys, *command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "space" in err

    @pytest.mark.parametrize(
        "command",
        [("verify-counterexample", "--samples", "5"), ("check", "base", "--samples", "5")],
    )
    def test_default_valued_space_key_exits_2(self, capsys, tmp_path, command):
        """The check goes by key: a space key that restates the default is
        still an input the command never reads."""
        config = tmp_path / "run.cfg"
        config.write_text("space.tail_coefficient = 1\n")
        code, out, err = run(capsys, *command, "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("error: 'space.tail_coefficient' would be ignored: ")

    def test_eval_prob_reads_space(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(self.SPACE)
        code, out, _ = run(capsys, "eval", "prob {1,3}", "--config", str(config))
        assert code == 0
        assert out.strip() == "1/2"  # 1/3 + (4/3) * 1/8

    @pytest.mark.parametrize(
        "expression",
        [
            "gauge m_plus_ball({|1}) {|5}",
            "contains ball(weighted({|1}); {|1}) {|1}",
            "seminorm localized({2}) {2:-3 | 1}",
            "glue ec[{|3} | {|5}] finite[{1}, ~{1}]",
        ],
        ids=lambda expression: expression.split()[0],
    )
    def test_other_eval_operations_read_no_space(self, capsys, tmp_path, expression):
        """The other eval operations give the same value on every space,
        so even a default-valued space key is an input they never read."""
        config = tmp_path / "run.cfg"
        config.write_text("space.tail_coefficient = 1\n")
        code, out, err = run(capsys, "eval", expression, "--config", str(config))
        assert code == 2
        assert out == ""
        op = expression.split()[0]
        assert err == (
            f"error: 'space.tail_coefficient' would be ignored: eval {op} reads no flag "
            "or config key\n"
        )


INDUCED = "base = from_seminorms[weighted({|1})]\n"
SEMINORM = "seminorm = localized({1})\n"
CC = "set = m_plus_ball({|1})\nseq.diag = {|2}\npart.singletons_from = 1\nexpect = fail\n"
# the partition `--from 3 --cells [{1},{2}]` builds, as its report writes it
SPEC = "singletons_from(3; {1}, {2})"

# (command line, config text, the input the error line names)
IGNORED = [
    (("verify-counterexample", "--samples", "5"), SEMINORM, "'seminorm'"),
    (("check", "cc", "--samples", "3", "--seed", "9"), CC, "--seed"),
    (("check", "cc", "--samples", "3"), CC, "--samples"),
    (("check", "axioms"), SEMINORM + "base = counterexample\n", "'base'"),
    (("check", "axioms"), SEMINORM + "epsilon = {|1}\n", "'epsilon'"),
    (("eval", "prob {1}"), "set = m_plus_ball({|1})\n", "'set'"),
    (("check", "roundtrip"), SEMINORM + "set = m_plus_ball({|1})\n", "'set'"),
    (("check", "roundtrip", "--samples", "5"), SEMINORM + "set = m_plus_ball({|1})\n", "'set'"),
]

# The probe horizon and the certificate tolerance are no input of any
# command: the command-line parser refuses the flag, the config parser the keys.
# (command line, config text, the input the error line names, the line)
DROPPED = [
    (("verify-counterexample", "--horizon", "1"), INDUCED, "--horizon",
     "l0convex: error: unrecognized arguments: --horizon 1"),
    (("verify-counterexample",), INDUCED + "tolerance = 1/3\n", "'tolerance'",
     "error: line 2: unknown key 'tolerance'"),
    (("verify-counterexample",), INDUCED + "horizon = 500\n", "'horizon'",
     "error: line 2: unknown key 'horizon'"),
    (("check", "base", "--horizon", "999"), "", "--horizon",
     "l0convex: error: unrecognized arguments: --horizon 999"),
    (("check", "axioms", "--horizon", "999"), SEMINORM, "--horizon",
     "l0convex: error: unrecognized arguments: --horizon 999"),
    (("check", "roundtrip", "--horizon", "999"), SEMINORM, "--horizon",
     "l0convex: error: unrecognized arguments: --horizon 999"),
    (("check", "base"), "tolerance = 1/3\n", "'tolerance'",
     "error: line 1: unknown key 'tolerance'"),
]
REFUSED = [(*row, f"error: {row[2]} would be ignored: ") for row in IGNORED] + DROPPED

# A positional argument that each command parses with, and the attribute
# that holds each flag's value.
POSITIONALS = {
    "verify-counterexample": (),
    "eval": ("prob {1}",),
    "check": ("base",),
    "partition": (),
}
FLAG_ATTRIBUTES = {
    "--seed": "seed",
    "--samples": "samples",
    "--from": "tail_start",
    "--cells": "cells",
    "--config": "config",
    "--json": "json",
}


def parse_exit(argv):
    """The exit code and the last stderr line of a command line that the
    parser refuses."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), pytest.raises(SystemExit) as stop:
        cli.parse_args(list(argv))
    return stop.value.code, stderr.getvalue().splitlines()[-1]


class TestIgnoredInputs:
    """Each command row of `cli._READS` reads only its listed flags and
    config keys; any other input exits 2 with an error line naming it,
    instead of being dropped while the report passes."""

    @pytest.mark.parametrize(
        "argv, text, named, line",
        REFUSED,
        ids=[f"{' '.join(argv)} -> {named}" for argv, _, named, _ in REFUSED],
    )
    def test_ignored_input_exits_2(self, capsys, tmp_path, argv, text, named, line):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        try:
            code = main([*argv, "--config", str(config)])
        except SystemExit as exit_info:  # argparse refuses an unregistered flag
            code = exit_info.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(line)

    def test_registered_flags_are_the_rows_union(self):
        """Each command takes exactly the flags its `_READS` rows name, plus
        --config and --json, plus --from and --cells on partition: each of
        those parses, and any other flag exits 2."""
        union = {
            name: {
                flag
                for row, reads in cli._READS.items()
                if row.split()[0] == name
                for flag in reads.split()
                if flag.startswith("--")
            }
            for name in POSITIONALS
        }
        assert union == {
            "verify-counterexample": {"--seed", "--samples"},
            "check": {"--seed", "--samples"},
            "eval": set(),
            "partition": set(),
        }
        candidates = {*FLAG_ATTRIBUTES, "--horizon", "--tolerance", "--expression", "--target"}
        for name, positional in POSITIONALS.items():
            takes = union[name] | {"--config", "--json"}
            if name == "partition":
                takes |= {"--from", "--cells"}
            assert set(cli._options(name)) == takes
            for flag in sorted(candidates):
                if flag in takes:
                    args = cli.parse_args([name, *positional, flag, "7"])
                    value = 7 if flag in {"--seed", "--samples", "--from"} else "7"
                    assert getattr(args, FLAG_ATTRIBUTES[flag]) == value, (name, flag)
                else:
                    assert parse_exit([name, *positional, flag, "7"]) == (
                        2, f"l0convex: error: unrecognized arguments: {flag} 7"
                    ), (name, flag)

    def test_one_verify_row(self):
        assert [row for row in cli._READS if row.split()[0] == "verify-counterexample"] == [
            "verify-counterexample"
        ]

    def test_flag_overrides_its_config_key(self, capsys, tmp_path):
        """A flag that overrides the config key of the same input is read,
        so it is not an ignored input."""
        config = tmp_path / "run.cfg"
        config.write_text("part.singletons_from = 5\npart.finite = [{1},{2},{3},{4}]\n")
        argv = ("partition", "--from", "3", "--cells", "[{1},{2}]", "--config", str(config))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["partition"] == SPEC


class TestCommandLine:
    """The parser reads a command, its positional argument and its flags,
    as `--name value` or `--name=value`; each flag once, by its full name."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("check", "base", "--samples", "3", "--samples", "4"), "--samples"),
            (("verify-counterexample", "--samples", "3", "--samples=3"), "--samples"),
            (("verify-counterexample", "--seed", "1", "--seed", "2"), "--seed"),
            (("check", "axioms", "--seed=1", "--seed", "1"), "--seed"),
            (("partition", "--from", "3", "--from", "4"), "--from"),
            (("eval", "prob {1}", "--config", "a.cfg", "--config", "b.cfg"), "--config"),
            (("check", "base", "--config", "a.cfg", "--config=a.cfg"), "--config"),
            (("check", "base", "--json", "a.json", "--json", "b.json"), "--json"),
            (("partition", "--cells", "[{1}]", "--cells", "[{2}]"), "--cells"),
        ],
    )
    def test_flag_given_twice_exits_2(self, capsys, argv, flag):
        """The second value would silently win; the flag is refused instead."""
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        captured = capsys.readouterr()
        assert (stop.value.code, captured.out) == (2, "")
        assert captured.err == f"l0convex: error: argument {flag}: given twice\n"

    @pytest.mark.parametrize(
        "argv, unknown",
        [
            (("check", "base", "--samp", "3", "--se", "2"), "--samp 3 --se 2"),
            (("check", "base", "--conf", "run.cfg"), "--conf run.cfg"),
            (("eval", "prob {1}", "--conf=run.cfg"), "--conf=run.cfg"),
            (("partition", "--fr", "3"), "--fr 3"),
            (("verify-counterexample", "--sample", "3"), "--sample 3"),
        ],
    )
    def test_abbreviated_flag_exits_2(self, capsys, argv, unknown):
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        captured = capsys.readouterr()
        assert (stop.value.code, captured.out) == (2, "")
        assert captured.err == f"l0convex: error: unrecognized arguments: {unknown}\n"

    def test_name_equals_value(self):
        args = cli.parse_args(["check", "base", "--seed=5", "--samples", "-3", "--config=a=b.cfg"])
        assert (args.command, args.target, args.seed, args.samples) == ("check", "base", 5, -3)
        assert args.config == "a=b.cfg"  # split at the first '='

    def test_attributes(self):
        args = cli.parse_args(["partition", "--json", "out.json", "--from", "3", "--cells", "[{1}]"])
        assert vars(args) == {
            "command": "partition", "expression": None, "target": None,
            "tail_start": 3, "cells": "[{1}]", "config": None, "json": "out.json",
            "seed": None, "samples": None,
        }
        assert cli.parse_args(["eval", "--json", "-", "prob {1}"]).expression == "prob {1}"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (("check", "base", "--samples"), "argument --samples: expected one argument"),
            (("check", "base", "--json", "--seed", "3"), "argument --json: expected one argument"),
            (("partition", "--cells"), "argument --cells: expected one argument"),
            (("verify",), "expected a command (verify-counterexample, eval, check, partition), got 'verify'"),
            ((), "expected a command (verify-counterexample, eval, check, partition), got ''"),
            (("--seed", "3", "check", "base"), "expected a command (verify-counterexample, eval, check, partition), got '--seed'"),
            (("check", "bases"), "argument target: invalid choice: 'bases' (choose from axioms, roundtrip, cc, base)"),
            (("check",), "the following arguments are required: target"),
            (("eval", "--json", "out.json"), "the following arguments are required: expression"),
            (("eval", "prob {1}", "prob {2}"), "unrecognized arguments: prob {2}"),
            (("check", "base", "cc"), "unrecognized arguments: cc"),
            (("verify-counterexample", "base"), "unrecognized arguments: base"),
            (("verify-counterexample", "-x"), "unrecognized arguments: -x"),
        ],
    )
    def test_usage_error_exits_2(self, argv, line):
        assert parse_exit(argv) == (2, f"l0convex: error: {line}")

    @pytest.mark.parametrize("argv", [("--help",), ("-h",), ("check", "base", "--help"), ("eval", "-h")])
    def test_help_lists_every_command_and_its_flags(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        captured = capsys.readouterr()
        assert (stop.value.code, captured.err) == (0, "")
        assert captured.out == (
            "l0convex verify-counterexample [--config CONFIG] [--json JSON] [--seed SEED]"
            " [--samples SAMPLES]\n"
            "l0convex eval EXPRESSION [--config CONFIG] [--json JSON]\n"
            "l0convex check TARGET [--config CONFIG] [--json JSON] [--seed SEED]"
            " [--samples SAMPLES]\n"
            "l0convex partition [--config CONFIG] [--json JSON] [--from FROM]"
            " [--cells CELLS]\n"
            "TARGET: axioms roundtrip cc base\n"
        )


class TestErrorMapping:
    def test_unsupported_shape_is_a_usage_error(self, capsys):
        expr = "gauge intersect[m_plus_ball({|1}), m_plus_ball({|2})] {|5}"
        code, out, err = run(capsys, "eval", expr)
        assert code == 2
        assert out == ""
        assert err == "error: gauge of an intersection needs ball members\n"

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(args, config, header):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(_cli_eval, "cmd_eval", broken)
        code, out, err = run(capsys, "eval", "prob {1}")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")

    @pytest.mark.parametrize(
        "module, name, argv",
        [
            ("topology", "seminorm_induction_verdict", ("verify-counterexample", "--samples", "3")),
            ("sets", "gauge_closed_form", ("eval", "gauge m_plus_ball({|1}) {|5}")),
            ("seminorms", "combine", ("eval", "seminorm weighted({|2}) {|3}")),
        ],
        ids=["verdict", "gauge", "kernel"],
    )
    def test_plain_value_error_from_the_library_exits_3(self, capsys, monkeypatch, module, name, argv):
        """Only the package's input errors mean bad input; a plain
        ValueError from library code is a defect, not a usage error."""

        def broken(*args, **kwargs):
            raise ValueError("arithmetic defect")

        monkeypatch.setattr(importlib.import_module(f"l0convex.{module}"), name, broken)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == "internal error: ValueError: arithmetic defect\n"

    def test_not_invertible_from_the_kernel_exits_3(self, capsys, monkeypatch):
        """Every divisor a command reaches is checked before the kernel sees
        it (a scale factor, a ball radius, the base-axiom radii), so a
        NotInvertible on a command path is a defect, not bad input."""

        def broken(x):
            raise NotInvertible(f"{x!r} takes the value 0")

        monkeypatch.setattr(sets, "reciprocal", broken)
        code, out, err = run(capsys, "eval", "gauge scale({|2}; ball(weighted({|1}); {|1})) {|1}")
        assert (code, out) == (3, "")
        assert err == "internal error: NotInvertible: {|2} takes the value 0\n"

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("partition", "--from", "0"), None),
            (("partition", "--from", "3", "--cells", "[{1}]"), None),
            (("verify-counterexample", "--samples", "3"), "epsilon = {|0}\n"),
            (("check", "cc"), "seq.diag = {|2}\npart.singletons_from = 1\n"),
            (("check", "cc"), "set = m_plus_ball({|1})\npart.singletons_from = 1\n"),
            (("check", "cc"), "set = m_plus_ball({|1})\nseq.diag = {|2}\n"),
            (("check", "roundtrip", "--samples", "3"), ""),
            (("eval", "frobnicate {|1}"), None),
            (("verify-counterexample", "--samples", "3"), "base = foo\n"),
            (("verify-counterexample", "--samples", "3"), "seed 3\n"),
            (("eval", "prob {1}"), 'space.explicit = [[2, "1/2"]]\n'),
            (("eval", "prob {1}"), 'space.explicit = [[1, "3/2"]]\n'),
            (("eval", "prob {1}"), "space.tail_coefficient = 0\n"),
        ],
        ids=[
            "atom-index", "malformed-prefix", "radius", "cc-no-set", "cc-no-sequence",
            "cc-no-partition", "roundtrip-no-target", "eval-operation", "base-name",
            "line-without-equals", "space-gap", "space-weight", "space-tail",
        ],
    )
    def test_library_usage_errors_exit_2(self, capsys, tmp_path, argv, text):
        if text is not None:
            config = tmp_path / "run.cfg"
            config.write_text(text)
            argv = (*argv, "--config", str(config))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "target",
        [
            "ball(weighted({|1}); {|1})",
            "scale({3:2 | 1}; ball(weighted({|1}); {|1}))",
            "intersect[ball(weighted({|1}); {|1}), m_plus_ball({|2})]",
        ],
        ids=["ball", "scale", "intersect"],
    )
    def test_translate_late_pieces_are_decided(self, capsys, tmp_path, target):
        """A diagonal sequence on a singleton-tail partition is a valid
        `check cc` input for every translated set: a report, never exit 2."""
        config = tmp_path / "run.cfg"
        config.write_text(
            f"set = translate({{|1}}; {target})\nseq.diag = {{|1}}\npart.singletons_from = 1\n"
        )
        code, out, err = run(capsys, "check", "cc", "--config", str(config))
        assert code in (0, 1)
        assert "error:" not in err
        assert json.loads(out)["command"] == "check cc"

    def test_unquoted_explicit_weight_is_read(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("space.explicit = [[1, 1/2]]\n")
        code, out, _ = run(capsys, "eval", "prob {1}", "--config", str(config))
        assert code == 0
        assert out.strip() == "1/2"


class TestLiteralErrors:
    """Each malformed config value (an integer, a rational, an element,
    `base`, `space.explicit`) and `--cells` value gives exactly this error
    line and exit code 2, located on the config line (the second here,
    after a comment) and the value's column."""

    @pytest.mark.parametrize(
        "argv, key, value, line",
        [
            (("verify-counterexample",), "base", "from_seminorm[zero]",
             "unknown base 'from_seminorm' (line 2, column 1)"),
            (("verify-counterexample",), "base", "from_seminorms[]",
             "expected a name (line 2, column 16)"),
            (("verify-counterexample",), "base", "counterexample 1",
             "unexpected trailing input (line 2, column 16)"),
            (("eval", "prob {1}"), "space.explicit", '[[1 "1/2"]]',
             "expected ',' (line 2, column 5)"),
            (("eval", "prob {1}"), "space.explicit", "[[1, '1/2\"]]",
             "expected \"'\" (line 2, column 10)"),
            (("eval", "prob {1}"), "space.explicit", "[[0, 1/2]]",
             "space: explicit weights must cover atoms 1..N contiguously"),
            (("eval", "prob {1}"), "space.explicit", "[[1, 1/2]",
             "expected ']' (line 2, column 10)"),
            (("eval", "prob {1}"), "space.explicit", '[[1, "1/4"], [1, "1/2"]]',
             "atom 1 is given twice (line 2, column 16)"),
            (("verify-counterexample",), "epsilon", "{1:2, 1:3 | 0}",
             "atom 1 is given twice (line 2, column 8)"),
            (("verify-counterexample",), "seed", "1_0",
             "unexpected trailing input (line 2, column 2)"),
            (("verify-counterexample",), "samples", "+5", "expected an integer (line 2, column 1)"),
            (("check", "cc"), "part.singletons_from", "1.0",
             "unexpected trailing input (line 2, column 2)"),
            (("eval", "prob {1}"), "space.tail_coefficient", "1e-3",
             "unexpected trailing input (line 2, column 2)"),
            (("eval", "prob {1}"), "space.tail_coefficient", "'1/2\"",
             "expected \"'\" (line 2, column 5)"),
            (("eval", "prob {1}"), "space.tail_coefficient", "1/0",
             "zero denominator (line 2, column 4)"),
            (("verify-counterexample",), "seed", "1\0",
             "unexpected trailing input (line 2, column 2)"),
            (("eval", "prob {1}"), "space.tail_coefficient", "1.0",
             "unexpected trailing input (line 2, column 2)"),
        ],
        ids=[
            "base-name", "base-empty-family", "base-trailing-input", "space-comma",
            "space-quotes", "space-gap", "space-unclosed", "space-atom-twice",
            "element-atom-twice", "integer-underscore", "integer-plus", "integer-decimal",
            "tail-exponent", "tail-quotes", "tail-zero-denominator", "integer-nul",
            "tail-decimal",
        ],
    )
    def test_config_value(self, capsys, tmp_path, argv, key, value, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"# malformed\n{key} = {value}\n")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, out, err) == (2, "", f"error: {line}\n")

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (("verify-counterexample",), "--seed", "1_0"),
            (("verify-counterexample",), "--samples", "+5"),
            (("check", "base"), "--samples", "5.0"),
            (("check", "base"), "--seed", " 5"),
            (("check", "axioms"), "--seed", "0x10"),
            (("partition",), "--from", "1_0"),
            (("partition",), "--from", "-"),
        ],
        ids=[
            "seed-underscore", "samples-plus", "samples-decimal", "seed-space",
            "seed-hex", "from-underscore", "from-bare-minus",
        ],
    )
    def test_flag_value(self, capsys, argv, flag, value):
        """A flag takes the config's integer grammar, an optional '-' and
        then digits; anything else exits 2 with a line naming the flag."""
        with pytest.raises(SystemExit) as stop:
            main([*argv, flag, value])
        captured = capsys.readouterr()
        assert (stop.value.code, captured.out) == (2, "")
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument {flag}: expected an integer, got {value!r}"
        )

    @pytest.mark.parametrize(
        "value", ["7", "007", "-0", "1_0", "+5", "1.0", "1e3", "", "-", "²", "1²", "٣"]
    )
    def test_flag_and_config_take_the_same_integers(self, capsys, tmp_path, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"seed = {value}\n")
        codes = []
        for argv in (["--seed", value], ["--config", str(config)]):
            try:
                codes.append(main(["check", "base", "--samples", "1", *argv]))
            except SystemExit as stop:  # argparse refuses the flag's value
                codes.append(stop.code)
        capsys.readouterr()
        assert codes[0] == codes[1] in (0, 2)

    @pytest.mark.parametrize("value, column", [("[[1,", 5), ('[[1, "', 7)])
    def test_weight_cut_short_is_a_usage_error(self, capsys, tmp_path, value, column):
        """A value that ends where a weight or its opening quote should be
        is bad input, never an internal error."""
        config = tmp_path / "run.cfg"
        config.write_text(f"space.explicit = {value}\n")
        code, out, err = run(capsys, "eval", "prob {1}", "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: expected an integer (line 1, column {column})\n"

    @pytest.mark.parametrize(
        "expression, line",
        [
            ("prob {²}", "expected an integer (line 1, column 7)"),
            ("prob {1²}", "expected '}' (line 1, column 8)"),
        ],
        ids=["superscript-digit", "superscript-after-a-digit"],
    )
    def test_an_integer_has_decimal_digits_only(self, capsys, expression, line):
        """An integer literal takes the digits a flag's integer takes: a
        superscript two is a digit to `str.isdigit` but no decimal digit."""
        code, out, err = run(capsys, "eval", expression)
        assert (code, out, err) == (2, "", f"error: {line}\n")

    def test_cells_flag(self, capsys):
        code, out, err = run(capsys, "partition", "--from", "3", "--cells", "[{1},]")
        assert (code, out, err) == (2, "", "error: expected '{' (line 1, column 6)\n")

    def test_element_atom_twice_in_an_expression(self, capsys):
        """The weight 5 at atom 1 would otherwise be dropped, and the
        point {1:1 | 1} found inside the ball."""
        code, out, err = run(
            capsys, "eval", "contains ball(weighted({1:5, 1:1 | 1}); {|1}) {1:1 | 1}"
        )
        assert (code, out) == (2, "")
        assert err == "error: atom 1 is given twice (line 1, column 31)\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="int() caps digits from 3.11 on"
    )
    def test_integer_past_the_digit_cap_is_a_usage_error(self, capsys):
        digits = sys.get_int_max_str_digits() + 1
        code, out, err = run(capsys, "eval", "prob {" + "1" * digits + "}")
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit")
        assert err.endswith(f"(line 1, column {digits + 7})\n")
        # the knob a shell user can reach, not the call a program would make
        assert "use the PYTHONINTMAXSTRDIGITS environment variable" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="int() caps digits from 3.11 on"
    )
    @pytest.mark.parametrize(
        "expression",
        [
            # P({j}) = 2**-j, whose denominator has more digits than the cap
            lambda cap: f"prob {{{4 * cap}}}",
            # each factor is legal input; their product is not printable
            lambda cap: f"seminorm weighted({{|{'9' * (cap - 1)}}}) {{|{'9' * (cap - 1)}}}",
        ],
        ids=["prob", "seminorm"],
    )
    def test_result_past_the_digit_cap_is_a_usage_error(self, capsys, expression):
        code, out, err = run(capsys, "eval", expression(sys.get_int_max_str_digits()))
        assert (code, out) == (2, "")
        assert err.startswith("error: Exceeds the limit")
        assert "use the PYTHONINTMAXSTRDIGITS environment variable" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("value", ["4/3", "'4/3'", '"4/3"'])
    def test_tail_coefficient_quoted_or_not(self, capsys, tmp_path, value):
        config = tmp_path / "run.cfg"
        config.write_text(f'space.explicit = [[1, "1/3"]]\nspace.tail_coefficient = {value}\n')
        code, out, _ = run(capsys, "eval", "prob {1}", "--config", str(config))
        assert (code, out) == (0, "1/3\n")


# one well-formed value per config key
KEY_VALUES = {
    "seed": "1",
    "samples": "5",
    "space.explicit": '[[1, "1/2"]]',
    "space.tail_coefficient": "1",
    "base": "counterexample",
    "seminorm": "zero",
    "set": "m_plus_ball({|1})",
    "seq.ec": "[| {|1}]",
    "seq.diag": "{|2}",
    "part.finite": "[{1}, ~{1}]",
    "part.singletons_from": "1",
    "epsilon": "{|1}",
    "delta": "{|1/2}",
    "expect": "fail",
}
APPENDED = [key for key, (attr, _) in _KEYS.items() if attr == "sequences"]


class TestRepeatedKeys:
    """A config key set twice exits 2 naming both lines, whatever the
    command reads; each line of a sequence key adds one sequence."""

    def test_sequence_keys_are_the_appended_ones(self):
        assert APPENDED == ["seq.ec", "seq.diag"]

    @pytest.mark.parametrize("key", [k for k in _KEYS if k not in APPENDED])
    def test_key_set_twice_exits_2(self, capsys, tmp_path, key):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {KEY_VALUES[key]}\n# again\n{key} = {KEY_VALUES[key]}\n")
        code, out, err = run(capsys, "verify-counterexample", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: line 3: {key!r} is already set on line 1\n"

    @pytest.mark.parametrize("key", APPENDED)
    def test_sequence_key_appends(self, key):
        parsed, keys = parse_config(f"{key} = {KEY_VALUES[key]}\n{key} = {KEY_VALUES[key]}\n")
        assert len(parsed.sequences) == 2
        assert keys == {key: 1}

    def test_check_cc_reads_two_diagonals(self, capsys, tmp_path):
        path = tmp_path / "cc.cfg"
        path.write_text(
            "set = m_plus_ball({|1})\nseq.diag = {|2}\nseq.diag = {|3}\n"
            "part.singletons_from = 1\nexpect = fail\n"
        )
        code, out, _ = run(capsys, "check", "cc", "--config", str(path))
        assert code == 0
        (step,) = json.loads(out)["steps"]
        assert [e["sequence"] for e in step["inputs"]["entries"]] == ["diag({|2})", "diag({|3})"]


class TestReportHeader:
    """A report carries `seed` and `samples` exactly when its command row
    reads them, and never a probe horizon."""

    @pytest.mark.parametrize(
        "argv, text, keys",
        [
            (("verify-counterexample", "--samples", "5"), "", {"seed", "samples"}),
            (("verify-counterexample", "--samples", "5"), INDUCED, {"seed", "samples"}),
            (("check", "base", "--samples", "5"), "", {"seed", "samples"}),
            (("check", "axioms", "--samples", "5"), SEMINORM, {"seed", "samples"}),
            (("check", "roundtrip", "--samples", "5"), SEMINORM, {"seed", "samples"}),
            (("check", "cc"), CC, set()),
            (("partition", "--from", "3", "--cells", "[{1},{2}]"), "", set()),
        ],
        ids=["verify", "verify-induced", "base", "axioms", "roundtrip", "cc", "partition"],
    )
    def test_header_keys_follow_the_row(self, capsys, tmp_path, argv, text, keys):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        code, out, _ = run(capsys, *argv, "--config", str(config))
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 3
        assert {"seed", "samples", "horizon"} & set(doc) == keys

    def test_gauge_degeneracy_states_the_fixed_certificate(self, capsys):
        code, out, _ = run(capsys, "verify-counterexample", "--samples", "5")
        assert code == 0
        (step,) = [s for s in json.loads(out)["steps"] if s["name"] == "gauge_degeneracy"]
        assert step["inputs"]["tolerance"] == "1/1048576"
        assert step["inputs"]["probe_atoms"] == "1..32"


class TestPartition:
    def test_builder(self, capsys):
        code, out, _ = run(capsys, "partition", "--from", "3", "--cells", "[{1},{2}]")
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["tail_mass"] == "1/4"
        assert doc["tail_cell_masses"][0] == "1/8"

    def test_builder_with_spec_literal(self, capsys):
        """The builder takes no partition literal: its partition comes from
        --from and --cells or the `part.*` keys."""
        with pytest.raises(SystemExit) as stop:
            main(["partition", SPEC])
        captured = capsys.readouterr()
        assert (stop.value.code, captured.out) == (2, "")
        assert captured.err == f"l0convex: error: unrecognized arguments: {SPEC}\n"

    def test_spec_literal_reads_the_space(self, capsys, tmp_path):
        """The partition the flags give is built in the config's space."""
        config = tmp_path / "p.cfg"
        config.write_text("space.tail_coefficient = 1\n")
        argv = ("partition", "--from", "3", "--cells", "[{1},{2}]", "--config", str(config))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["partition"] == SPEC

    def test_missing_tail_start(self, capsys):
        code, _, err = run(capsys, "partition")
        assert code == 2
        assert err == "error: partition needs part.singletons_from or --from\n"


# -- the process entry: `run()` is `main()`, then a frozen heap and the exit ---

SRC = str(Path(cli.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]
VERIFY_SEED1 = ("verify-counterexample", "--seed", "1", "--samples", "30")


# Runs `cli.run()` after `setup`, with an atexit hook registered first.  On
# stderr: `exit N` when `run()` raised SystemExit(N), which ends the process
# the normal way, `thread` when a thread the setup started ran to its end,
# and `atexit` each time the hook ran.
ENTRY = """
import atexit, sys, threading
from l0convex import cli
released = threading.Event()
atexit.register(lambda: print("atexit", file=sys.stderr))
{setup}
try:
    cli.run()
except SystemExit as stop:
    print("exit", stop.code, file=sys.stderr)
    released.set()
    raise
"""
# A thread that outlives `main()` and writes only once `run()` has raised.
THREAD = """
def wait():
    released.wait()
    print("thread", file=sys.stderr)
threading.Thread(target=wait).start()
"""


class TestProcessEntry:
    """`run()` ends the process with `main()`'s code once the atexit hooks
    ran and stdout and stderr are flushed, skipping the interpreter's
    teardown, unless a tracer, a profiler or another thread watches the
    process; then it exits the normal way."""

    @pytest.mark.parametrize("code", [0, 1, 2, 3, 4])
    def test_run_ends_the_process_with_mains_code(self, code):
        result = child(ENTRY.format(setup=f"cli.main = lambda: {code}"))
        assert (result.returncode, result.stderr) == (code, "atexit\n")

    def test_an_atexit_hook_runs_once_after_the_report(self):
        result = child(ENTRY.format(setup=""), "eval", "prob {1}")
        assert (result.returncode, result.stdout, result.stderr) == (0, "1/2\n", "atexit\n")

    def test_a_profiler_gets_its_stats_file(self, tmp_path):
        stats = tmp_path / "run.prof"
        argv = ("-m", "l0convex.cli", "eval", "prob {1}")
        result = child(None, *argv, flags=("-m", "cProfile", "-o", str(stats)))
        assert (result.returncode, result.stdout) == (0, "1/2\n"), result.stderr
        functions = pstats.Stats(str(stats)).stats
        assert any(path.endswith("cli.py") and name == "main" for path, _, name in functions)

    @pytest.mark.parametrize(
        "setup, stderr",
        [
            ("sys.settrace(lambda *args: None)", "exit 0\natexit\n"),
            ("sys.setprofile(lambda *args: None)", "exit 0\natexit\n"),
            (THREAD, "exit 0\nthread\natexit\n"),
        ],
        ids=["tracer", "profiler", "thread"],
    )
    def test_a_watched_process_exits_the_normal_way(self, setup, stderr):
        result = child(ENTRY.format(setup=setup), "eval", "prob {1}")
        assert (result.returncode, result.stdout, result.stderr) == (0, "1/2\n", stderr)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_a_hook_whose_output_cannot_go_out_gets_the_interpreters_exit(self):
        """A hook's stdout that cannot be flushed is left to the normal
        exit, which reports it and exits 120, as without `run()`'s own."""
        full = "setattr(sys, 'stdout', open('/dev/full', 'w'))"  # buffered, and every write fails
        hook = f"atexit.register(lambda: ({full}, print('late')))"
        result = child(ENTRY.format(setup=hook), "eval", "prob {1}")
        assert (result.returncode, result.stdout) == (120, "1/2\n")
        assert result.stderr.startswith("atexit\nexit 0\n")
        assert os.strerror(errno.ENOSPC) in result.stderr

    def test_main_in_process_returns_its_code_and_never_ends_the_process(self):
        probe = (
            "from l0convex.cli import main\n"
            "codes = [main(['eval', 'prob {1}']), main(['check', 'cc'])]\n"
            "print('returned', *codes)"
        )
        result = child(probe)
        assert (result.returncode, result.stdout) == (0, "1/2\nreturned 0 2\n"), result.stderr

    def test_running_as_a_module_prints_what_main_prints(self, capsys):
        # `run()` ends the process inside the redirect: the hook reports
        probe = (
            "import atexit, contextlib, io, json, runpy, sys\n"
            "out = io.StringIO()\n"
            "atexit.register(lambda: print(json.dumps(out.getvalue()), file=sys.__stdout__, flush=True))\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
            "    runpy.run_module('l0convex.cli', run_name='__main__', alter_sys=True)"
        )
        result = child(probe, *VERIFY_SEED1)
        assert result.returncode == 0, result.stderr
        out = json.loads(result.stdout)
        _, in_process, _ = run(capsys, *VERIFY_SEED1)
        assert out == in_process
        assert out == (ROOT / "tests" / "golden" / "verify_default_seed1.json").read_text()

    def test_console_script_wrapper_exits_zero_with_the_verdict(self):
        wrapper = "import sys; from l0convex.cli import run; sys.exit(run())"
        result = child(wrapper, "verify-counterexample", "--samples", "5")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["verdict"] == "NotInduced"
        assert result.stderr.endswith("verdict: NotInduced\n")

    def test_console_script_targets_run(self):
        # read as text: tomllib is not in the standard library before 3.11
        text = (ROOT / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        assert scripts.strip() == 'l0convex = "l0convex.cli:run"'


# -- every input and output surface, each in a child process ------------------

BOM = b"\xef\xbb\xbf"
BUFFERED = {"PYTHONUNBUFFERED": None}  # stdout buffered, as on a plain interpreter


def cannot_open(code: int, name: str) -> str:
    """The error line for a file named on the command line that cannot be opened."""
    return f"error: [Errno {code}] {os.strerror(code)}: {name!r}\n"


def spawn(tmp_path, argv, stdout, env):
    """Exit code, stdout and stderr of `python -m l0convex.cli *argv` run in
    `tmp_path`, its stdout left open (`pipe`), closed before the start
    (`closed`), a pipe whose reader left before the start (`reader-left`),
    a pipe whose reader takes one byte and leaves (`one-byte`), or the full
    device, on which every write fails with ENOSPC (`full`).  With stdout
    left open, stderr may be closed before the start (`stderr-closed`) or
    open for reading only, so that every write fails (`stderr-read-only`)."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, **env}
    env = {key: value for key, value in env.items() if value is not None}
    command = [sys.executable, "-m", "l0convex.cli", *argv]
    kwargs = {"cwd": tmp_path, "env": env, "stderr": subprocess.PIPE, "text": True}
    if stdout == "one-byte":
        with subprocess.Popen(command, stdout=subprocess.PIPE, **kwargs) as proc:
            proc.stdout.read(1)
            proc.stdout.close()
            err = proc.stderr.read()
        return proc.returncode, "", err
    if stdout == "pipe":
        result = subprocess.run(command, stdout=subprocess.PIPE, **kwargs)
    elif stdout == "full":
        with open("/dev/full", "wb") as full:
            result = subprocess.run(command, stdout=full, **kwargs)
    elif stdout == "closed":
        result = subprocess.run(command, preexec_fn=lambda: os.close(1), **kwargs)
    elif stdout == "stderr-closed":
        result = subprocess.run(command, stdout=subprocess.PIPE, preexec_fn=lambda: os.close(2), **kwargs)
    elif stdout == "stderr-read-only":
        with open(os.devnull, "rb") as read_only:
            result = subprocess.run(command, stdout=subprocess.PIPE, **{**kwargs, "stderr": read_only})
    else:  # reader-left
        reader, writer = os.pipe()
        os.close(reader)
        try:
            result = subprocess.run(command, stdout=writer, **kwargs)
        finally:
            os.close(writer)
    return result.returncode, result.stdout or "", result.stderr or ""


CHECK_BASE = ("check", "base", "--samples", "1", "--config")
UNBUFFERED = {"PYTHONUNBUFFERED": "1"}  # stdout's binary layer is the raw file
NO_SPACE = f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
needs_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


@pytest.mark.skipif(os.name != "posix", reason="closes and pipes file descriptors")
class TestInputOutputSurfaces:
    """A config file's bytes, a path given for a file, and the state of
    stdout each give one exit code and one message; a closed stderr
    changes no exit code.  Output failures exit 4 and nothing else does;
    a reader that left gets no message, and the interpreter's flush at
    exit finds nothing left to fail on."""

    @pytest.mark.parametrize(
        "files, argv, stdout, env, code, err, header",
        [
            ({"run.cfg": b"seed = \xff\n"}, (*CHECK_BASE, "run.cfg"), "pipe", {}, 2,
             "error: config is not UTF-8: invalid start byte at byte 7\n", None),
            ({"run.cfg": BOM + b"seed = \xff\n"}, (*CHECK_BASE, "run.cfg"), "pipe", {}, 2,
             "error: config is not UTF-8: invalid start byte at byte 10\n", None),
            ({"run.cfg": BOM + b"seed = 3\n"}, (*CHECK_BASE, "run.cfg"), "pipe", {}, 0,
             "PASS  base_axioms\n", {"seed": 3}),
            ({"run.cfg": b"seed = 3\r\n\r\nsamples = 2\r\n"}, ("check", "base", "--config",
             "run.cfg"), "pipe", {}, 0, "PASS  base_axioms\n", {"seed": 3, "samples": 2}),
            ({"dir": None}, (*CHECK_BASE, "dir"), "pipe", {}, 2,
             cannot_open(errno.EISDIR, "dir"), None),
            ({}, (*CHECK_BASE, "missing.cfg"), "pipe", {}, 2,
             cannot_open(errno.ENOENT, "missing.cfg"), None),
            ({"dir": None}, ("eval", "prob {1}", "--json", "dir"), "pipe", {}, 2,
             cannot_open(errno.EISDIR, "dir"), None),
            ({}, ("eval", "prob {1}"), "closed", {}, 4,
             "error: stdout is closed, so no output can be written\n", None),
            ({}, ("--help",), "reader-left", {"PYTHONUNBUFFERED": "1"}, 4, "", None),
            ({}, ("--help",), "reader-left", BUFFERED, 4, "", None),
            ({}, ("eval", "prob {1}"), "reader-left", BUFFERED, 4, "", None),
            # 75,261 bytes: more than a pipe holds, so the write outlasts the reader
            ({}, ("eval", "prob {250000}"), "one-byte",
             {**BUFFERED, "PYTHONINTMAXSTRDIGITS": "0"}, 4, "", None),
            # unbuffered, the raw file takes what the pipe holds; the rest must
            # still be written, and fail, rather than be dropped with exit 0
            ({}, ("eval", "prob {250000}"), "one-byte",
             {**UNBUFFERED, "PYTHONINTMAXSTRDIGITS": "0"}, 4, "", None),
            pytest.param({}, ("eval", "prob {1}"), "full", UNBUFFERED, 4, NO_SPACE, None,
                         marks=needs_full),
            pytest.param({}, ("eval", "prob {1}"), "full", BUFFERED, 4, NO_SPACE, None,
                         marks=needs_full),
            pytest.param({}, ("--help",), "full", BUFFERED, 4, NO_SPACE, None, marks=needs_full),
            pytest.param({}, (*CHECK_BASE, "missing.cfg"), "full", BUFFERED, 2,
                         cannot_open(errno.ENOENT, "missing.cfg"), None, marks=needs_full),
            # the step, verdict and error lines are lost, and nothing else
            ({}, CHECK_BASE[:-1], "stderr-closed", {}, 0, "", {"samples": 1, "pass": True}),
            ({}, CHECK_BASE[:-1], "stderr-read-only", {}, 0, "", {"samples": 1, "pass": True}),
            ({}, ("eval", "prob {9"), "stderr-closed", {}, 2, "", None),
            ({}, ("eval", "prob {9"), "stderr-read-only", {}, 2, "", None),
            ({}, ("check", "nothing"), "stderr-closed", {}, 2, "", None),
        ],
        ids=[
            "config-not-utf8", "config-bom-not-utf8", "config-bom", "config-crlf",
            "config-directory", "config-missing", "json-directory", "stdout-closed",
            "help-reader-left-unbuffered", "help-reader-left-buffered",
            "eval-reader-left", "eval-reader-leaves-after-one-byte",
            "eval-reader-leaves-after-one-byte-unbuffered", "eval-full-device-unbuffered",
            "eval-full-device-buffered", "help-full-device", "bad-input-full-device",
            "stderr-closed", "stderr-read-only", "parse-error-stderr-closed",
            "parse-error-stderr-read-only", "usage-error-stderr-closed",
        ],
    )
    def test_surface(self, tmp_path, files, argv, stdout, env, code, err, header):
        for name, data in files.items():
            if data is None:
                (tmp_path / name).mkdir()
            else:
                (tmp_path / name).write_bytes(data)
        got_code, out, got_err = spawn(tmp_path, argv, stdout, env)
        assert (got_code, got_err) == (code, err)
        if header is None:
            assert out == ""
        else:
            assert json.loads(out).items() >= header.items()

    @pytest.mark.parametrize(
        "path, code, out, err",
        [
            ("missing/report.json", 2, "", cannot_open(errno.ENOENT, "missing/report.json")),
            ("dir", 2, "", cannot_open(errno.EISDIR, "dir")),
            pytest.param("/dev/full", 4, "1/2\n", NO_SPACE, marks=needs_full),
        ],
        ids=["json-missing-directory", "json-directory-stdout-empty", "json-full-device"],
    )
    def test_the_report_file(self, tmp_path, path, code, out, err):
        """The --json file is opened before stdout gets a byte, so a path
        that cannot be opened is bad input with stdout empty; a failure to
        write or close the file is an output failure, after stdout."""
        (tmp_path / "dir").mkdir()
        argv = ("eval", "prob {1}", "--json", path)
        assert spawn(tmp_path, argv, "pipe", {}) == (code, out, err)

    @needs_full
    def test_a_verify_report_file_on_the_full_device(self, tmp_path):
        """A report longer than one write: stdout holds all of it, and the
        step lines that follow the file never come."""
        argv = ("verify-counterexample", "--samples", "1", "--json", "/dev/full")
        code, out, err = spawn(tmp_path, argv, "pipe", {})
        assert (code, err) == (4, NO_SPACE)
        assert json.loads(out)["verdict"] == "NotInduced"

    def test_a_reader_that_stays_gets_every_byte(self, tmp_path):
        """75,261 bytes, more than a pipe holds, unbuffered: the raw file may
        take them in several writes, and every one arrives."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = f"1/{2**250000}\n"
        finally:
            sys.set_int_max_str_digits(limit)
        env = {**UNBUFFERED, "PYTHONINTMAXSTRDIGITS": "0"}
        code, out, err = spawn(tmp_path, ("eval", "prob {250000}"), "pipe", env)
        assert (code, err) == (0, "")
        assert len(out) == 75261 and out == expected


# -- the report emitter --------------------------------------------------------


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


class TestReportEmitter:
    """`cli._json` writes a report as `json.dumps(report, sort_keys=True,
    indent=2)` does, byte for byte, and refuses what a report never holds."""

    @pytest.mark.parametrize(
        "path", sorted((ROOT / "tests" / "golden").glob("*.json")), ids=lambda path: path.stem
    )
    def test_every_golden_report(self, path):
        text = path.read_text()
        report = json.loads(text)
        assert cli._json(report) + "\n" == dumps(report) + "\n" == text

    @pytest.mark.parametrize(
        "argv, config",
        [row[:2] for row in [*test_imports.COMMANDS.values(), test_imports.INDUCED]],
        ids=[*test_imports.COMMANDS, "verify-counterexample on a seminorm base"],
    )
    def test_a_fresh_report_of_every_reads_row(self, monkeypatch, tmp_path, argv, config):
        reports = []
        emit = cli._emit

        def record(report, json_path):
            reports.append(report)
            return emit(report, json_path)

        monkeypatch.setattr(cli, "_emit", record)
        monkeypatch.chdir(tmp_path)
        argv = [*test_imports.argv_with_config(tmp_path, argv, config), "--json", "report.json"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        (report,) = reports
        assert cli._json(report) == dumps(report)
        assert (tmp_path / "report.json").read_text() == dumps(report) + "\n"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "plain ASCII, printable: ~ !",
            'a "quoted" word, a back\\slash and \\" both',
            "".join(map(chr, range(32))) + "\x7f",
            "BMP text: é ü ß € 中文   ﻿ ￿",
            "astral text: \U0001F600 \U00010000 \U0010FFFF",
            "lone surrogates: \ud800 \udfff",
        ],
        ids=["empty", "ascii", "quotes", "controls", "bmp", "astral", "surrogates"],
    )
    def test_strings(self, text):
        for value in (text, {text: [text]}, [{"key": text}, (text, text)]):
            assert cli._json(value) == dumps(value)

    def test_other_values(self):
        value = {
            "ints": [0, -1, 2**70, True, False],
            "none": None,
            "empty": [{}, [], ()],
            "nested": {"b": {"d": [[]], "c": 1}, "a": ({"z": None},)},
        }
        assert cli._json(value) == dumps(value)

    @pytest.mark.parametrize(
        "value", [1.5, {1, 2}, {"steps": [0.0]}, {1: "an int key"}, b"bytes"],
        ids=["float", "set", "nested-float", "int-key", "bytes"],
    )
    def test_what_no_report_holds_raises_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json(value)

    def test_a_report_the_emitter_refuses_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cmd_verify", lambda *args: {"pass": True, "ratio": 0.5})
        code, out, err = run(capsys, "verify-counterexample", "--samples", "1")
        assert (code, out) == (3, "")
        assert err.startswith("internal error: TypeError: ")
