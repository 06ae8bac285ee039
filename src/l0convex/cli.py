"""Command-line front end.

Commands:

    verify-counterexample    run the full evidence pipeline for the
                             configured neighborhood base
    eval EXPR                evaluate one expression exactly
    check TARGET             axioms | roundtrip | cc | base
    partition                build and verify a halving-mass partition

The JSON report goes to stdout (and to --json PATH if given); one
human-readable line per step goes to stderr.  Exit codes: 0 all checks
pass, 1 a check failed, 2 usage or config error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import concatenation, seminorms, sets, topology
from ._common import EvidenceStep, UnsupportedShape, UsageError
from .config import ConfigError, RunConfig, config_keys, parse_config, parse_event_list
from .l0 import NotInvertible
from .measure import EventSet, SingletonTail, build_countable_partition
from .syntax import (
    ParseError,
    Parser,
    parse_partition,
    format_partition,
    format_seminorm,
    format_sequence,
    format_set,
)

# The package binds the evidence modules above lazily, so a one-shot
# command runs only the ones its branch calls into.  The evidence
# functions this module calls stay attributes of it, resolved on first
# use, so code that reaches for `l0convex.cli.gauge_closed_form` (the
# benchmark's tracer self-test does) finds the function in its module.
_EVIDENCE_NAMES = {
    "glue": concatenation,
    "relative_cc_check": concatenation,
    "axioms_check": seminorms,
    "evaluate": seminorms,
    "contains": sets,
    "gauge_closed_form": sets,
    "roundtrip_check": sets,
    "base_axioms_step": topology,
    "seminorm_induction_verdict": topology,
}


def __getattr__(name: str):
    if name not in _EVIDENCE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_EVIDENCE_NAMES[name], name)


SCHEMA = 3

# The inputs each command reads, per target for check and per operation
# for eval; `--name` is both that flag and the config key `name`.  A command
# takes a flag exactly when one of its rows reads it, an input outside the
# row that runs is rejected rather than ignored, and a report has a `seed`
# or `samples` key exactly when its row reads that input.
_READS = {
    "verify-counterexample": "--seed --samples base epsilon delta",
    "check axioms": "--seed --samples seminorm",
    "check roundtrip": "--seed --samples seminorm set",
    "check cc": "set seq.ec seq.diag part.finite part.singletons_from expect",
    "check base": "--seed --samples base epsilon delta",
    "eval prob": "space.explicit space.tail_coefficient",
    "eval gauge": "",
    "eval contains": "",
    "eval seminorm": "",
    "eval glue": "",
    "partition": "space.explicit space.tail_coefficient part.finite part.singletons_from",
}


def _flags(command: str) -> list[str]:
    """The flags some row of `command` reads, in the order the table first
    names them (so every usage line lists --seed before --samples)."""
    names = dict.fromkeys(name for reads in _READS.values() for name in reads.split())
    ours = " ".join(reads for row, reads in _READS.items() if row.split()[0] == command).split()
    return [name for name in names if name[:2] == "--" and name in ours]


def _emit(report: dict, json_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if json_path:
        with open(json_path, "w") as handle:
            handle.write(text)
    for step in report.get("steps", ()):
        tag = "PASS" if step["pass"] else "FAIL"
        print(f"{tag}  {step['name']}", file=sys.stderr)
    if "verdict" in report:
        print(f"verdict: {report['verdict']}", file=sys.stderr)


def _load_config(args) -> tuple[RunConfig, dict]:
    """The run's config, once every given input is one its row reads, and
    the report header: the schema, plus `seed` and `samples` if read."""
    text = ""
    if args.config:
        with open(args.config) as handle:
            text = handle.read()
    config = parse_config(text)
    run = args.command
    if run == "check":
        run += f" {args.target}"
    elif run == "eval":
        run += f" {Parser(args.expression).word()}"  # an unknown operation reads nothing
    reads = [name.lstrip("-") for name in _READS.get(run, "").split()]
    given = [flag for flag in _flags(args.command) if getattr(args, flag[2:]) is not None]
    for name in given + config_keys(text):
        if name.lstrip("-") not in reads:
            shown = name if name[:2] == "--" else repr(name)
            listing = f"only {', '.join(reads)}" if reads else "no flag or config key"
            raise ConfigError(f"{shown} would be ignored: {run} reads {listing}")
    for flag in given:
        setattr(config, flag[2:], getattr(args, flag[2:]))
    # zero samples would make every sampled step pass vacuously
    if config.samples < 1:
        raise ConfigError(f"samples must be at least 1, got {config.samples}")
    header = {"schema": SCHEMA}
    header.update((key, getattr(config, key)) for key in ("seed", "samples") if key in reads)
    return config, header


# -- verify-counterexample ---------------------------------------------------


def cmd_verify(args) -> int:
    config, header = _load_config(args)
    verdict = topology.seminorm_induction_verdict(
        config.base, config.seed, config.samples, config.epsilon, config.delta
    )
    report = {
        **header,
        "command": "verify-counterexample",
        "verdict": "NotInduced" if verdict.verdict == "not_induced" else "Induced",
        "steps": [step.to_json() for step in verdict.steps],
        "pass": verdict.passed,
    }
    if verdict.family is not None:
        report["family"] = [format_seminorm(s) for s in verdict.family]
    _emit(report, args.json)
    return 0 if verdict.passed else 1


# -- eval --------------------------------------------------------------------


def run_eval(expr: str, config: RunConfig) -> str:
    parser = Parser(expr)
    op = parser.word()
    if op == "gauge":
        target = parser.set_descriptor()
        x = parser.ecrv()
        parser.finish()
        return repr(sets.gauge_closed_form(target, x))
    if op == "contains":
        target = parser.set_descriptor()
        x = parser.ecrv()
        parser.finish()
        return "true" if sets.contains(target, x) else "false"
    if op == "prob":
        event = parser.event()
        parser.finish()
        return str(config.space.probability(event))
    if op == "seminorm":
        s = parser.seminorm()
        x = parser.ecrv()
        parser.finish()
        return repr(seminorms.evaluate(s, x))
    if op == "glue":
        seq = parser.sequence()
        part = parser.partition()
        parser.finish()
        return repr(concatenation.glue(seq, part).element)
    raise ParseError(f"unknown operation {op!r}", 1, 1)


def cmd_eval(args) -> int:
    config, header = _load_config(args)
    value = run_eval(args.expression, config)
    print(value)
    if args.json:
        report = {**header, "command": "eval", "expression": args.expression, "value": value}
        with open(args.json, "w") as handle:
            handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


# -- check -------------------------------------------------------------------


def cmd_check(args) -> int:
    config, header = _load_config(args)
    target = args.target
    if target == "axioms":
        if config.seminorm is None:
            raise ConfigError("check axioms needs a 'seminorm' key in the config")
        report = seminorms.axioms_check(config.seminorm, config.samples, config.seed)
        step = EvidenceStep(
            "seminorm_axioms",
            {"seminorm": format_seminorm(config.seminorm), "samples": config.samples},
            "homogeneity and triangle inequality hold exactly on all samples",
            f"homogeneity failures: {report.homogeneity_failures}, "
            f"triangle failures: {report.triangle_failures}",
            report.passed,
        )
    elif target == "roundtrip":
        probe = config.seminorm if config.seminorm is not None else config.set_descriptor
        if probe is None:
            raise ConfigError("check roundtrip needs a 'seminorm' or 'set' key")
        if config.seminorm is not None and config.set_descriptor is not None:
            raise ConfigError("'set' would be ignored: check roundtrip reads 'seminorm' or 'set'")
        report = sets.roundtrip_check(probe, config.samples, config.seed)
        label = format_seminorm(probe) if config.seminorm is not None else format_set(probe)
        step = EvidenceStep(
            "gauge_roundtrip",
            {"target": label, "samples": config.samples},
            "gauge reproduces the seminorm and membership agrees with gauge <= 1",
            f"gauge mismatches: {report.gauge_mismatches}, membership "
            f"mismatches: {report.membership_mismatches}, strict-inclusion "
            f"failures: {report.strict_inclusion_failures}",
            report.passed,
        )
    elif target == "cc":
        if config.set_descriptor is None or not config.sequences:
            raise ConfigError("check cc needs 'set' and at least one sequence")
        part = config.partition()
        if part is None:
            raise ConfigError("check cc needs a partition (part.finite or part.singletons_from)")
        report = concatenation.relative_cc_check(config.set_descriptor, part, config.sequences)
        outcome = "fail" if not report.closure_holds else "pass"
        entries = [
            {
                "sequence": format_sequence(e.sequence),
                "precondition_ok": e.precondition_ok,
                "glue": repr(e.glue) if e.glue is not None else None,
                "glue_in_set": e.glue_in_set,
                "seminorm_identity_ok": e.seminorm_identity_ok,
            }
            for e in report.entries
        ]
        step = EvidenceStep(
            "relative_concatenation",
            {
                "set": format_set(config.set_descriptor),
                "partition": format_partition(part),
                "entries": entries,
            },
            f"closure outcome matches the declared expectation ({config.expect})",
            f"outcome: {outcome}",
            outcome == config.expect and report.identity_holds,
        )
    elif target == "base":
        step = topology.base_axioms_step(
            config.base, config.samples, config.seed, config.epsilon, config.delta
        )

    doc = {
        **header,
        "command": f"check {target}",
        "steps": [step.to_json()],
        "pass": step.passed,
    }
    _emit(doc, args.json)
    return 0 if step.passed else 1


# -- partition ---------------------------------------------------------------


def cmd_partition(args) -> int:
    config, header = _load_config(args)
    cells = config.prefix_cells
    tail_start = args.tail_start if args.tail_start is not None else config.singletons_from
    if args.spec is not None:
        for flag, value in (("--from", args.tail_start), ("--cells", args.cells)):
            if value is not None:
                raise ConfigError(f"{flag} would be ignored: the spec literal sets the partition")
        part_spec = parse_partition(args.spec)
        if not isinstance(part_spec, SingletonTail):
            raise ConfigError("the partition builder takes a singletons_from(...) spec")
        cells = list(part_spec.prefix_cells)
        tail_start = part_spec.tail_start
    elif args.cells is not None:
        cells = parse_event_list(args.cells, 1)
    if tail_start is None:
        raise ConfigError("partition needs a spec, part.singletons_from, or --from")
    part = build_countable_partition(config.space, cells, tail_start)
    omega_prime = EventSet.cofinite_excluding(range(1, tail_start))
    remainder = config.space.probability(omega_prime)
    masses = []
    law_holds = True
    for n in range(1, 21):
        cell = part.cell(part.prefix_count + n)
        mass = config.space.probability(cell)
        masses.append(str(mass))
        law_holds = law_holds and mass == remainder / 2**n
    positive = all(
        config.space.probability(part.cell(k)) > 0
        for k in range(1, part.prefix_count + 21)
    )
    step = EvidenceStep(
        "halving_masses",
        {"tail_start": tail_start, "cells_checked": 20},
        "the n-th tail cell has exactly a 2**-n share of the tail mass",
        f"law holds: {law_holds}, all cells positive: {positive}",
        law_holds and positive,
    )
    doc = {
        **header,
        "command": "partition",
        "partition": format_partition(part),
        "tail_mass": str(remainder),
        "tail_cell_masses": masses,
        "steps": [step.to_json()],
        "pass": step.passed,
    }
    _emit(doc, args.json)
    return 0 if step.passed else 1


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l0convex",
        description="Exact checks for seminorm-induced and degenerate module topologies",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser("verify-counterexample", help="run the full evidence pipeline")
    verify.set_defaults(handler=cmd_verify)

    ev = commands.add_parser("eval", help="evaluate one expression")
    ev.add_argument("expression")
    ev.set_defaults(handler=cmd_eval)

    check = commands.add_parser("check", help="run one named check")
    check.add_argument("target", choices=["axioms", "roundtrip", "cc", "base"])
    check.set_defaults(handler=cmd_check)

    part = commands.add_parser("partition", help="build a halving-mass partition")
    part.add_argument(
        "spec", nargs="?", help="partition literal, e.g. 'singletons_from(3; {1}, {2})'"
    )
    part.add_argument("--from", dest="tail_start", type=int, default=None)
    part.add_argument("--cells", help="prefix cells, e.g. [{1},{2}]")
    part.set_defaults(handler=cmd_partition)

    for name, sub in commands.choices.items():
        sub.add_argument("--config", help="path to a key=value config file")
        sub.add_argument("--json", help="also write the JSON report to this path")
        for flag in _flags(name):
            sub.add_argument(flag, type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ParseError, UsageError, UnsupportedShape, NotInvertible, OSError) as exc:
        # bad input; the library's UsageErrors include IncompatibleSpec and
        # MalformedPrefix, and a missing or unreadable file is an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect in the program, never "a check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
