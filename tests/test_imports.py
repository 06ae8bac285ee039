"""The package loads a module only when a command reaches code that uses it."""

import ast
import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import l0convex

SRC = str(Path(l0convex.__file__).resolve().parents[1])

# Prints `code` and the package modules whose code has run.  A lazily bound
# module sits in sys.modules from the package import on, but keeps the lazy
# loader's subclass of ModuleType until its first attribute use runs it.
LOADED = (
    "print(json.dumps([code, sorted(m for m, module in sys.modules.items()"
    " if m.startswith('l0convex.') and type(module) is types.ModuleType)]))"
)
# Runs the CLI in-process, then prints the exit code and the loaded package modules.
CLI = """
import contextlib, io, json, sys, types
from l0convex.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
""" + LOADED


# Runs the CLI in-process, then prints the exit code and which of the stdlib
# modules that only argument parsing or a JSON report would need are
# imported; the probe itself imports none of them.
STDLIB = """
import contextlib, io, sys
from l0convex.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
found = sorted({"argparse", "gettext", "locale", "json"} & set(sys.modules))
print("[%d, [%s]]" % (code, ", ".join('"%s"' % name for name in found)))
"""


# The stdlib modules no command path imports: `fractions` (with `decimal`
# and `numbers`), `json` and `typing`, and the `re` and `enum` that each of
# them pulls in.
HEAVY = ("re", "enum", "typing", "decimal", "numbers", "fractions", "json")
# Runs the CLI in-process, then prints the exit code and which of HEAVY are
# imported.  It runs under `python -S`, so no `site` hook has imported any of
# them first, and the probe itself imports none of them.
CLEAN = """
import io, sys
from l0convex.cli import main
sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
code = main(sys.argv[1:])
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
found = sorted(set(%r) & set(sys.modules))
print("[%%d, [%%s]]" %% (code, ", ".join('"%%s"' %% name for name in found)))
""" % (HEAVY,)


# `l0convex.__all__`, sorted: a change of the exports shows in this list.
EXPORTS = """
    Ball CANONICAL CounterexampleFamily Diagonal
    DiscreteSpace EcRv EventSet EventuallyConstantSeq EvidenceReport
    FinitePartition FiniteSup FromSeminorms GaugeCertificate
    GaugeNotBelowOne Intersect Localized MPlusBall MalformedPrefix
    NotInvertible ONE Scale SingletonTail Translate UnsupportedShape
    Weighted ZERO Zero axioms_check base_axiom_witnesses
    build_countable_partition cc_failure_witness classify closure_membership
    combine contains divide emax emin epslambda_membership evaluate
    gauge_closed_form gauge_upper_certificate glue glue_identity_holds
    hausdorff_report indicator indicator_mul leq_everywhere lt_everywhere
    reciprocal relative_cc_check reverse_partition_construct roundtrip_check
    sample_member seminorm_induction_verdict verify_certificate
"""


def child(code: str, *argv: str, cwd=None, flags=()) -> subprocess.CompletedProcess:
    """`python *flags -c code *argv` in `cwd`, in a fresh interpreter that
    finds the package; with `code` None, `python *flags *argv`."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *flags, *(() if code is None else ("-c", code)), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
    )


def loaded_after(code: str, *argv: str, cwd=None, flags=()) -> tuple[int, set[str]]:
    result = child(code, *argv, cwd=cwd, flags=flags)
    result.check_returncode()
    exit_code, modules = json.loads(result.stdout)
    return exit_code, {m.removeprefix("l0convex.") for m in modules}


class TestExports:
    def test_every_name_resolves(self):
        for name in l0convex.__all__:
            assert getattr(l0convex, name) is not None, name

    def test_dir_lists_every_name(self):
        assert set(l0convex.__all__) <= set(dir(l0convex))

    def test_no_export_is_a_module(self):
        assert l0convex.__all__ == EXPORTS.split()
        modules = [n for n in l0convex.__all__ if isinstance(getattr(l0convex, n), types.ModuleType)]
        assert modules == []

    def test_star_import_binds_exactly_the_exports(self):
        namespace = {}
        exec("from l0convex import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(l0convex.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            l0convex.no_such_name
        assert not hasattr(l0convex, "sys")

    def test_old_paths_give_the_same_objects(self):
        from l0convex import _common, measure, sets, topology

        assert topology.EvidenceStep is _common.EvidenceStep
        assert topology.CounterexampleFamily is l0convex.CounterexampleFamily
        assert topology.FromSeminorms is l0convex.FromSeminorms
        assert sets.UnsupportedShape is l0convex.UnsupportedShape is _common.UnsupportedShape
        assert measure.EventSet is l0convex.EventSet is _common.EventSet
        assert measure.OMEGA is _common.OMEGA
        assert l0convex.topology is topology

    def test_every_export_lives_in_the_module_the_table_names(self):
        """A placement guard: `_EXPORTS_BY_MODULE` says where each name
        lives, and the package serves that very object."""
        import importlib

        for module, names in l0convex._EXPORTS_BY_MODULE.items():
            home = importlib.import_module(f"l0convex.{module}")
            for name in names.split():
                assert getattr(home, name) is getattr(l0convex, name), (module, name)

    def test_parse_error_lives_in_the_leaf_module(self):
        from l0convex import _common, config, syntax

        assert syntax.ParseError is _common.ParseError is config.ParseError

    def test_library_only_code_lives_in_library(self):
        """`_library` serves the (eps, lambda) membership, which the
        package exports; `sup_evaluate` is gone, since it equals
        `evaluate(FiniteSup(family), x)`; the test-only references live in
        `tests/reference.py`, and neither the package nor the modules they
        left serve them."""
        from l0convex import _library, l0, sampling, seminorms, sets, topology

        assert l0convex.epslambda_membership is _library.epslambda_membership
        references = (
            "order_compare", "OrderReport", "structural_flags", "StructuralFlags",
            "confirm_structural_flags", "random_positive_fraction",
        )
        for module, name in (
            *((module, name) for module in (l0convex, _library) for name in references),
            (l0convex, "sup_evaluate"),
            (_library, "sup_evaluate"),
            (l0, "order_compare"),
            (l0, "OrderReport"),
            (topology, "epslambda_membership"),
            (seminorms, "sup_evaluate"),
            (sets, "confirm_structural_flags"),
            (sets, "structural_flags"),
            (sets, "StructuralFlags"),
            (sampling, "random_positive_fraction"),
        ):
            with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
                getattr(module, name)

    def test_composed_samplers_live_in_the_test_reference(self):
        """The samplers composed from single draws and kernel operations are
        the reference of the one-pass ones, and only the tests keep them."""
        import reference
        from l0convex import l0, sampling, sets

        moved = {
            sampling: ("_random_atoms", "_ratio", "_positive_ratio", "_sign"),
            sets: ("_with_tail",),
            l0: ("_with_tail",),
        }
        for module, names in moved.items():
            for name in names:
                assert callable(getattr(reference, name))
                with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
                    getattr(module, name)
        assert reference.sample_member is not sampling.sample_member
        assert reference.random_ecrv is not sampling.random_ecrv

    def test_moved_code_lives_where_its_commands_run_it(self):
        """Each function lives in the module that every command calling it
        loads: the names below moved, and their old modules no longer
        serve them."""
        from l0convex import _cli_check, _common, _library, _not_induced, _syntax_extra, l0
        from l0convex import sampling, seminorms, sets, syntax, topology

        certificates = (
            "GaugeCertificate", "gauge_upper_certificate", "verify_certificate",
            "_certificate_witness", "PROBE_ATOMS", "TOLERANCE",
        )
        moved = {
            (sets, "sample_member"): sampling,
            (sets, "roundtrip_check"): sampling,
            **{(sets, name): _not_induced for name in certificates},
            **{(topology, name): _not_induced for name in certificates},
            (_common, "TOLERANCE"): _not_induced,
            (l0, "_leq_at"): _not_induced,
            (topology, "_leq_at"): _not_induced,
            (topology, "_not_induced_steps"): _not_induced,
            (topology, "_sampled_step"): _not_induced,
            (l0, "_abs_tail_leq"): sets,
            (l0, "_half_abs_or_one"): sets,
            (l0, "_scaled"): sets,
            (l0, "_single_atom"): sets,
            (seminorms, "axioms_check"): _cli_check,
            **{
                (syntax.Parser, name): _syntax_extra.FullParser
                for name in (
                    "sequence", "ec_list", "partition", "event_list", "weights",
                    "_weight", "quoted_rational", "peek",
                )
            },
            **{
                (syntax, name): _syntax_extra
                for name in (
                    "parse_sequence", "parse_partition",
                    "format_set", "format_sequence", "format_partition",
                )
            },
        }
        for (old, name), new in moved.items():
            assert getattr(new, name) is not None, (new, name)
            with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
                getattr(old, name)
        assert _not_induced.TOLERANCE == l0.EcRv.constant(Fraction(1, 2**20))
        assert _not_induced.PROBE_ATOMS == tuple(range(1, 33))
        assert issubclass(_syntax_extra.FullParser, syntax.Parser)

    def test_cli_keeps_the_names_it_imported(self):
        from l0convex import cli, sets

        assert cli.gauge_closed_form is sets.gauge_closed_form
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            cli.no_such_name


# What `import l0convex.cli` runs, before any command does.
CLI_IMPORT = {"cli", "config", "_common"}
# One command per `cli._READS` row: its argv, its config file text (or
# None) and the package modules it runs besides CLI_IMPORT.
COMMANDS = {
    "verify-counterexample": (
        ("verify-counterexample", "--samples", "3"),
        None,
        {
            "l0", "seminorms", "sets", "sampling", "topology", "_not_induced",
            "concatenation",
        },
    ),
    "check axioms": (
        ("check", "axioms", "--samples", "3"),
        "seminorm = weighted({|1})\n",
        {"_cli_check", "syntax", "l0", "seminorms", "sampling"},
    ),
    "check roundtrip": (
        ("check", "roundtrip", "--samples", "3"),
        "seminorm = localized({1})\n",
        {"_cli_check", "syntax", "l0", "seminorms", "sets", "sampling"},
    ),
    "check cc": (
        ("check", "cc"),
        "set = m_plus_ball({|1})\nseq.diag = {|2}\npart.singletons_from = 1\nexpect = fail\n",
        {
            "_cli_check", "syntax", "_syntax_extra", "l0", "seminorms", "sets",
            "concatenation", "measure",
        },
    ),
    "check base": (
        ("check", "base", "--samples", "3"),
        None,
        {"_cli_check", "l0", "seminorms", "sets", "sampling", "topology"},
    ),
    "eval prob": (("eval", "prob {1,3}"), None, {"_cli_eval", "syntax", "measure"}),
    "eval gauge": (
        ("eval", "gauge m_plus_ball({|1}) {|5}"),
        None,
        {"_cli_eval", "syntax", "l0", "seminorms", "sets"},
    ),
    "eval contains": (
        ("eval", "contains m_plus_ball({|1}) {|5}"),
        None,
        {"_cli_eval", "syntax", "l0", "seminorms", "sets"},
    ),
    "eval seminorm": (
        ("eval", "seminorm weighted({|2}) {|3}"),
        None,
        {"_cli_eval", "syntax", "l0", "seminorms"},
    ),
    "eval glue": (
        ("eval", "glue ec[{|3} | {|5}] finite[{1}, ~{1}]"),
        None,
        {
            "_cli_eval", "syntax", "_syntax_extra", "l0", "seminorms", "sets",
            "concatenation", "measure",
        },
    ),
    "partition": (
        ("partition", "--from", "3", "--cells", "[{1},{2}]"),
        None,
        {"_cli_partition", "syntax", "_syntax_extra", "measure"},
    ),
}
# verify on a seminorm base parses the base and formats the family, and
# runs neither the NotInduced steps nor concatenation code, nor the
# readers and formatters of sequences, partitions and sets
INDUCED = (
    ("verify-counterexample", "--samples", "3"),
    "base = from_seminorms[weighted({|1})]\n",
    {"syntax", "l0", "seminorms", "sets", "sampling", "topology"},
)

# The most syntax-tree nodes the package modules a row runs (CLI_IMPORT,
# the row's own set and `__init__`) may hold: what each command compiles
# at start-up, counted the same on every supported Python.  Lower a bound
# when a change removes code from a row's modules; a change that raises
# one states in CHANGES.md the counts before and after, and why.
COMPILE_BUDGET = {
    "verify-counterexample": 13660,
    "check axioms": 11503,
    "check roundtrip": 12767,
    "check cc": 14270,
    "check base": 11969,
    "eval prob": 8361,
    "eval gauge": 10747,
    "eval contains": 10747,
    "eval seminorm": 9483,
    "eval glue": 13980,
    "partition": 9218,
    "verify-counterexample on a seminorm base": 13208,
}


def tree_nodes(module: str) -> int:
    path = Path(l0convex.__file__).with_name(f"{module}.py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text())))


def argv_with_config(tmp_path, argv, config):
    if config is None:
        return argv
    (tmp_path / "run.cfg").write_text(config)
    return (*argv, "--config", "run.cfg")


class TestImportBudget:
    def test_every_reads_row_has_a_command(self):
        from l0convex import cli

        assert set(COMMANDS) == set(cli._READS)

    @pytest.mark.parametrize(
        "argv, config, runs",
        [*COMMANDS.values(), INDUCED],
        ids=[*COMMANDS, "verify-counterexample on a seminorm base"],
    )
    def test_a_command_runs_exactly_the_modules_it_uses(self, tmp_path, argv, config, runs):
        code, loaded = loaded_after(CLI, *argv_with_config(tmp_path, argv, config), cwd=tmp_path)
        assert code == 0
        assert loaded == CLI_IMPORT | runs

    @pytest.mark.parametrize(
        "argv, config", [row[:2] for row in COMMANDS.values()], ids=list(COMMANDS)
    )
    def test_a_command_imports_no_argument_parser(self, tmp_path, argv, config):
        """The command line is read without argparse (nor the gettext and
        locale it pulls in), and `eval` prints its value without json."""
        code, imported = loaded_after(
            STDLIB, *argv_with_config(tmp_path, argv, config), cwd=tmp_path
        )
        assert code == 0
        assert not imported & {"argparse", "gettext", "locale"}
        if argv[0] == "eval" and "--json" not in argv:
            assert "json" not in imported

    @pytest.mark.parametrize(
        "argv, config",
        [row[:2] for row in [*COMMANDS.values(), INDUCED]],
        ids=[*COMMANDS, "verify-counterexample on a seminorm base"],
    )
    def test_a_command_imports_no_heavy_stdlib_module(self, tmp_path, argv, config):
        """Rationals are integer pairs, the report has its own emitter and
        annotations need no `typing`: under `python -S` no command imports
        `fractions`, `json` or `typing`, nor the `re` and `enum` behind them."""
        argv = (*argv_with_config(tmp_path, argv, config), "--json", "report.json")
        code, imported = loaded_after(CLEAN, *argv, cwd=tmp_path, flags=("-S",))
        assert (code, imported) == (0, set())
        assert json.loads((tmp_path / "report.json").read_text())["schema"] == 3

    def test_eval_imports_json_for_its_report_file(self, tmp_path):
        code, imported = loaded_after(STDLIB, "eval", "prob {1,3}", "--json", "out.json", cwd=tmp_path)
        assert (code, imported) == (0, set())
        assert json.loads((tmp_path / "out.json").read_text())["value"] == "5/8"

    @pytest.mark.parametrize("row", [*COMMANDS, "verify-counterexample on a seminorm base"])
    def test_a_command_compiles_within_its_budget(self, row):
        runs = COMMANDS[row][2] if row in COMMANDS else INDUCED[2]
        compiled = sum(tree_nodes(m) for m in CLI_IMPORT | runs | {"__init__"})
        assert compiled <= COMPILE_BUDGET[row]

    @pytest.mark.parametrize(
        "row", ["verify-counterexample", "eval glue", "check cc", "partition"]
    )
    def test_running_as_a_module_never_imports_the_cli_again(self, tmp_path, row):
        """Under `python -m l0convex.cli` the front end is `__main__`; a
        handler that imported `l0convex.cli` would compile it a second time.
        `run()` ends the process inside the redirect, so a hook reports."""
        argv, config, _ = COMMANDS[row]
        probe = (
            "import atexit, contextlib, io, json, runpy, sys\n"
            "atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules"
            " if m.startswith('l0convex.'))), file=sys.__stdout__, flush=True))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    runpy.run_module('l0convex.cli', run_name='__main__', alter_sys=True)"
        )
        result = child(probe, *argv_with_config(tmp_path, argv, config), cwd=tmp_path)
        assert result.returncode == 0, result.stderr
        imported = {m.removeprefix("l0convex.") for m in json.loads(result.stdout)}
        assert "cli" not in imported
        assert {"_cli_eval", "_cli_check", "_cli_partition"} & imported <= COMMANDS[row][2]

    def test_package_import_loads_no_module(self):
        _, loaded = loaded_after("import json, sys, types, l0convex; code = 0; " + LOADED)
        assert loaded == set()

    def test_package_import_binds_every_public_submodule(self):
        probe = (
            "import json, sys, l0convex; "
            "print(json.dumps([0, sorted(m for m in sys.modules if m.startswith('l0convex.'))]))"
        )
        _, bound = loaded_after(probe)
        assert bound == set(l0convex._SUBMODULES)  # in sys.modules, none of them run

    def test_submodule_attribute_loads_on_first_use(self):
        probe = "import json, sys, types, l0convex; code = l0convex.sampling.BOUND; " + LOADED
        _, loaded = loaded_after(probe)
        assert "sampling" in loaded and "topology" not in loaded

    def test_the_epslambda_pair_runs_neither_sets_nor_the_not_induced_steps(self):
        """Importing the (eps, lambda) membership runs at most the modules
        it calls, and deciding a membership runs exactly those."""
        pair = {"_common", "_library", "l0", "measure", "seminorms"}
        probe = (
            "import json, sys, types; "
            "from l0convex import epslambda_membership; code = 0; " + LOADED
        )
        _, imported = loaded_after(probe)
        assert imported <= pair
        probe = (
            "import json, sys, types; "
            "from l0convex import ONE, Weighted, epslambda_membership; "
            "code = epslambda_membership((Weighted(ONE),), 2, '1/2', ONE); " + LOADED
        )
        member, ran = loaded_after(probe)
        assert (member, ran) == (True, pair)

    def test_a_config_without_a_space_or_partition_runs_no_measure(self):
        """`RunConfig()` and `parse_config("seed = 1")` leave `measure`
        unrun: only a probability or a partition needs it."""
        probe = (
            "import json, sys, types; from l0convex.config import RunConfig, parse_config; "
            "RunConfig(); config, _ = parse_config('seed = 1'); code = config.seed; " + LOADED
        )
        code, loaded = loaded_after(probe)
        assert code == 1
        assert loaded == {"config", "syntax", "_common"}

    def test_gluing_single_atom_pieces_runs_no_measure(self):
        """The NotInduced verdict and the closure failure of M + B_eps glue
        single-atom pieces without a partition object: `measure` stays
        unrun."""
        probe = (
            "import json, sys, types; from l0convex import CounterexampleFamily, MPlusBall, ONE; "
            "from l0convex import cc_failure_witness, seminorm_induction_verdict; "
            "report = seminorm_induction_verdict(CounterexampleFamily(), 1, 3); "
            "entry = cc_failure_witness(MPlusBall(ONE), ONE); "
            "code = int(report.verdict == 'not_induced' and report.passed"
            " and entry.counterexample); " + LOADED
        )
        code, loaded = loaded_after(probe)
        assert code == 1
        assert "concatenation" in loaded and "measure" not in loaded

    def test_eval_prob(self):
        code, loaded = loaded_after(CLI, "eval", "prob {1}")
        assert code == 0
        assert not loaded & {"topology", "concatenation", "sets", "seminorms", "sampling"}
        assert "syntax" in loaded  # it parses the expression

    def test_partition(self):
        code, loaded = loaded_after(CLI, "partition", "--from", "3", "--cells", "[{1},{2}]")
        assert code == 0
        assert "topology" not in loaded

    def test_check_axioms_on_a_seminorm(self, tmp_path):
        (tmp_path / "w.cfg").write_text("seminorm = weighted({|1})\n")
        code, loaded = loaded_after(
            CLI, "check", "axioms", "--config", "w.cfg", "--samples", "5", cwd=tmp_path
        )
        assert code == 0
        assert not loaded & {"topology", "concatenation", "sets"}

    # The literal parser runs only when a literal is parsed or formatted.

    def test_verify_counterexample_runs_no_parser(self):
        code, loaded = loaded_after(CLI, "verify-counterexample", "--samples", "3")
        assert code == 0
        assert "syntax" not in loaded and "topology" in loaded

    def test_check_base_without_config_runs_no_parser(self):
        code, loaded = loaded_after(CLI, "check", "base", "--samples", "3")
        assert code == 0
        assert "syntax" not in loaded

    def test_importing_the_cli_runs_no_parser(self):
        _, loaded = loaded_after("import json, sys, types, l0convex.cli; code = 0; " + LOADED)
        assert loaded == CLI_IMPORT

    def test_a_seminorm_base_in_the_config_is_parsed(self, tmp_path):
        (tmp_path / "b.cfg").write_text("base = from_seminorms[weighted({|1})]\n")
        code, loaded = loaded_after(
            CLI, "check", "base", "--samples", "3", "--config", "b.cfg", cwd=tmp_path
        )
        assert code == 0
        assert "syntax" in loaded

    def test_an_integer_config_key_is_parsed(self, tmp_path):
        """Every config value, an integer too, is read by the literal parser."""
        (tmp_path / "s.cfg").write_text("seed = 3\n")
        code, loaded = loaded_after(
            CLI, "check", "base", "--samples", "3", "--config", "s.cfg", cwd=tmp_path
        )
        assert code == 0
        assert "syntax" in loaded

    def test_malformed_config_literal_still_exits_2(self, tmp_path):
        (tmp_path / "bad.cfg").write_text("seed = 3\nbase = from_seminorms[weighted({|1)]\n")
        result = subprocess.run(
            [sys.executable, "-m", "l0convex.cli", "verify-counterexample", "--config", "bad.cfg"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            cwd=tmp_path,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: expected '}' (line 2, column 28)\n"
