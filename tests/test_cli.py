import argparse
import importlib
import json

import pytest

from l0convex import _cli_eval, cli
from l0convex.cli import main
from l0convex.config import parse_config
from l0convex.topology import seminorm_induction_verdict


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


class TestSinglePipeline:
    """The verify report is the library verdict's step list, one step per
    checked fact."""

    @pytest.mark.parametrize(
        "text, names",
        [
            (
                "",
                [
                    "base_axioms",
                    "gauge_degeneracy",
                    "gauge_monotonicity",
                    "proper_closed_submodule",
                    "concatenation_failure",
                    "hausdorff_diagnosis",
                    "zero_family_contradiction",
                ],
            ),
            (
                "base = from_seminorms[weighted({|1}), localized({2})]\n",
                [
                    "base_axioms",
                    "base_sets_structural",
                    "gauge_membership_roundtrip",
                    "hausdorff_diagnosis",
                ],
            ),
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

        parsed = parse_config(config.read_text())
        verdict = seminorm_induction_verdict(
            parsed.base,
            seed=parsed.seed,
            samples=parsed.samples,
            epsilon=parsed.epsilon,
            delta=parsed.delta,
        )
        assert cli_names == [step.name for step in verdict.steps]
        assert steps == [step.to_json() for step in verdict.steps]


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
    (("partition", SPEC, "--from", "7", "--cells", "[{5}]"), "", "--from"),
    (("partition", SPEC, "--from", "7"), "", "--from"),
    (("partition", SPEC, "--cells", "[{5}]"), "", "--cells"),
    (("partition", SPEC), "part.singletons_from = 7\n", "'part.singletons_from'"),
    (("partition", SPEC), "part.finite = [{1}]\n", "'part.finite'"),
]

# The probe horizon and the certificate tolerance are no input of any
# command: argparse refuses the flag, the config parser the keys.
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
        (commands,) = [
            action
            for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        registered = {
            name: {flag for action in sub._actions for flag in action.option_strings}
            & {"--seed", "--horizon", "--samples"}
            for name, sub in commands.choices.items()
        }
        union = {
            name: {
                flag
                for row, reads in cli._READS.items()
                if row.split()[0] == name
                for flag in reads.split()
                if flag.startswith("--")
            }
            for name in registered
        }
        assert registered == union
        assert registered == {
            "verify-counterexample": {"--seed", "--samples"},
            "check": {"--seed", "--samples"},
            "eval": set(),
            "partition": set(),
        }

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
            (
                ("check", "cc"),
                "set = translate({|1}; ball(weighted({|1}); {|1}))\n"
                "seq.diag = {|1}\npart.singletons_from = 1\n",
            ),
        ],
        ids=[
            "atom-index", "malformed-prefix", "radius", "cc-no-set", "cc-no-sequence",
            "cc-no-partition", "roundtrip-no-target", "eval-operation", "base-name",
            "line-without-equals", "space-gap", "space-weight", "space-tail",
            "cc-late-pieces-undecided",
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

    def test_unquoted_explicit_weight_is_read(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("space.explicit = [[1, 1/2]]\n")
        code, out, _ = run(capsys, "eval", "prob {1}", "--config", str(config))
        assert code == 0
        assert out.strip() == "1/2"


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
            (("partition", SPEC), "", set()),
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
        code, out, _ = run(capsys, "partition", "singletons_from(3; {1}, {2})")
        assert code == 0
        doc = json.loads(out)
        assert doc["partition"] == "singletons_from(3; {1}, {2})"
        assert doc["tail_mass"] == "1/4"

    def test_spec_literal_reads_the_space(self, capsys, tmp_path):
        """The literal refuses the `part.*` keys (see IGNORED), not the space."""
        config = tmp_path / "p.cfg"
        config.write_text("space.tail_coefficient = 1\n")
        code, out, _ = run(capsys, "partition", SPEC, "--config", str(config))
        assert code == 0
        assert json.loads(out)["partition"] == SPEC

    def test_finite_spec_rejected(self, capsys):
        code, _, err = run(capsys, "partition", "finite[{1}, ~{1}]")
        assert code == 2

    def test_missing_tail_start(self, capsys):
        code, _, err = run(capsys, "partition")
        assert code == 2
