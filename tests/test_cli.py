import json

import pytest

from l0convex import cli
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
        assert doc["schema"] == 2

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

    def test_base_axioms_default_radii(self, capsys):
        code, out, _ = run(capsys, "check", "base", "--samples", "50")
        assert code == 0
        assert json.loads(out)["pass"] is True

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
            horizon=parsed.horizon,
            seed=parsed.seed,
            samples=parsed.samples,
            tolerance=parsed.tolerance,
            epsilon=parsed.epsilon,
            delta=parsed.delta,
        )
        assert cli_names == [step.name for step in verdict.steps]
        assert steps == [step.to_json() for step in verdict.steps]


class TestVacuousRuns:
    """Zero samples or an empty probe horizon would let every step pass
    without checking anything, so they are usage errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-counterexample", "--samples", "0"),
            ("verify-counterexample", "--samples", "-1"),
            ("verify-counterexample", "--horizon", "-3", "--samples", "5"),
            ("verify-counterexample", "--horizon", "0", "--samples", "5"),
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


class TestSamplingFlags:
    """Only verify-counterexample and check sample; the other commands
    reject --seed, --horizon and --samples instead of ignoring them."""

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
    """Nor do eval and partition read the seed, horizon and samples
    config keys, so a config file that sets one is rejected."""

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

    def test_eval_prob_reads_space(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(self.SPACE)
        code, out, _ = run(capsys, "eval", "prob {1,3}", "--config", str(config))
        assert code == 0
        assert out.strip() == "1/2"  # 1/3 + (4/3) * 1/8


class TestErrorMapping:
    def test_unsupported_shape_is_a_usage_error(self, capsys):
        expr = "gauge intersect[m_plus_ball({|1}), m_plus_ball({|2})] {|5}"
        code, out, err = run(capsys, "eval", expr)
        assert code == 2
        assert out == ""
        assert err == "error: gauge of an intersection needs ball members\n"

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(args):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "cmd_eval", broken)
        code, out, err = run(capsys, "eval", "prob {1}")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ")


class TestTolerance:
    def test_config_tolerance_reaches_gauge_degeneracy(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("tolerance = 1/1024\nsamples = 5\n")
        code, out, _ = run(capsys, "verify-counterexample", "--config", str(config))
        assert code == 0
        (step,) = [s for s in json.loads(out)["steps"] if s["name"] == "gauge_degeneracy"]
        assert step["inputs"]["tolerance"] == "1/1024"
        assert step["pass"] is True

    @pytest.mark.parametrize("value", ["0", "-1/2"])
    def test_nonpositive_tolerance_exits_2(self, capsys, tmp_path, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"tolerance = {value}\n")
        code, _, err = run(capsys, "verify-counterexample", "--config", str(config))
        assert code == 2
        assert "tolerance must be positive" in err


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

    def test_finite_spec_rejected(self, capsys):
        code, _, err = run(capsys, "partition", "finite[{1}, ~{1}]")
        assert code == 2

    def test_missing_tail_start(self, capsys):
        code, _, err = run(capsys, "partition")
        assert code == 2
