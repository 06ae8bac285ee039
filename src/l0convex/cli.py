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
from ._common import EvidenceStep, UnsupportedShape
from .config import ConfigError, RunConfig, config_keys, parse_config, parse_event_list
from .l0 import ONE, NotInvertible
from .measure import CANONICAL, EventSet, SingletonTail, build_countable_partition
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


SCHEMA = 2
_SAMPLING_FLAGS = ("seed", "horizon", "samples")


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


def _load_config(args, reads_space: bool = False) -> RunConfig:
    if args.config:
        with open(args.config) as handle:
            text = handle.read()
        config = parse_config(text)
        if not hasattr(args, "samples"):  # eval and partition read no sampling key
            for key in config_keys(text):
                if key in _SAMPLING_FLAGS:
                    raise ConfigError(
                        f"config key {key!r} would be ignored: {args.command} draws no samples"
                    )
    else:
        config = RunConfig()
    for key in _SAMPLING_FLAGS:  # eval and partition do not take these flags
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    # zero samples or an empty probe horizon would make every step pass vacuously
    for key in ("samples", "horizon"):
        value = getattr(config, key)
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
    # a space the command never reads must not pass as if it had been checked
    if not reads_space and config.space != CANONICAL:
        raise ConfigError(
            "space.explicit and space.tail_coefficient would be ignored: "
            "only 'eval prob' and 'partition' read the space"
        )
    return config


# -- verify-counterexample ---------------------------------------------------


def cmd_verify(args) -> int:
    config = _load_config(args)
    verdict = topology.seminorm_induction_verdict(
        config.base,
        horizon=config.horizon,
        seed=config.seed,
        samples=config.samples,
        tolerance=config.tolerance,
        epsilon=config.epsilon,
        delta=config.delta,
    )
    report = {
        "schema": SCHEMA,
        "command": "verify-counterexample",
        "seed": config.seed,
        "horizon": config.horizon,
        "samples": config.samples,
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
    config = _load_config(args, reads_space=True)
    value = run_eval(args.expression, config)
    print(value)
    if args.json:
        report = {"schema": SCHEMA, "command": "eval", "expression": args.expression, "value": value}
        with open(args.json, "w") as handle:
            handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


# -- check -------------------------------------------------------------------


def cmd_check(args) -> int:
    config = _load_config(args)
    target = args.target
    if target == "axioms":
        if config.seminorm is None:
            raise ConfigError("check axioms needs a 'seminorm' key in the config")
        report = seminorms.axioms_check(config.seminorm, config.samples, config.seed)
        step = EvidenceStep(
            "seminorm_axioms",
            {"seminorm": format_seminorm(config.seminorm), "samples": config.samples},
            "homogeneity and triangle inequality hold exactly on all samples",
            (
                f"homogeneity failures: {report.homogeneity_failures}, "
                f"triangle failures: {report.triangle_failures}"
            ),
            report.passed,
        )
    elif target == "roundtrip":
        probe = config.seminorm if config.seminorm is not None else config.set_descriptor
        if probe is None:
            raise ConfigError("check roundtrip needs a 'seminorm' or 'set' key")
        report = sets.roundtrip_check(probe, config.samples, config.seed)
        label = (
            format_seminorm(probe) if config.seminorm is not None else format_set(probe)
        )
        step = EvidenceStep(
            "gauge_roundtrip",
            {"target": label, "samples": config.samples},
            "gauge reproduces the seminorm and membership agrees with gauge <= 1",
            (
                f"gauge mismatches: {report.gauge_mismatches}, membership "
                f"mismatches: {report.membership_mismatches}, strict-inclusion "
                f"failures: {report.strict_inclusion_failures}"
            ),
            report.passed,
        )
    elif target == "cc":
        if config.set_descriptor is None or not config.sequences:
            raise ConfigError("check cc needs 'set' and at least one sequence")
        part = config.partition()
        if part is None:
            raise ConfigError("check cc needs a partition (part.finite or part.singletons_from)")
        report = concatenation.relative_cc_check(
            config.set_descriptor, part, config.sequences, horizon=config.horizon
        )
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
        eps = config.epsilon if config.epsilon is not None else ONE
        delta = config.delta if config.delta is not None else ONE
        step = topology.base_axioms_step(config.base, eps, delta, config.samples, config.seed)
    else:
        raise ConfigError(f"unknown check target {target!r}")

    doc = {
        "schema": SCHEMA,
        "command": f"check {target}",
        "seed": config.seed,
        "samples": config.samples,
        "steps": [step.to_json()],
        "pass": step.passed,
    }
    _emit(doc, args.json)
    return 0 if step.passed else 1


# -- partition ---------------------------------------------------------------


def cmd_partition(args) -> int:
    config = _load_config(args, reads_space=True)
    cells = config.prefix_cells
    tail_start = args.tail_start if args.tail_start is not None else config.singletons_from
    if args.spec:
        part_spec = parse_partition(args.spec)
        if not isinstance(part_spec, SingletonTail):
            raise ConfigError("the partition builder takes a singletons_from(...) spec")
        cells = list(part_spec.prefix_cells)
        tail_start = part_spec.tail_start
    elif args.cells:
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
        "schema": SCHEMA,
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


def _add_common(sub):
    sub.add_argument("--config", help="path to a key=value config file")
    sub.add_argument("--json", help="also write the JSON report to this path")


def _add_sampling(sub):
    """--seed, --horizon and --samples, for the commands that sample."""
    for key in _SAMPLING_FLAGS:
        sub.add_argument(f"--{key}", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l0convex",
        description="Exact checks for seminorm-induced and degenerate module topologies",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    verify = commands.add_parser(
        "verify-counterexample", help="run the full evidence pipeline"
    )
    _add_common(verify)
    _add_sampling(verify)
    verify.set_defaults(handler=cmd_verify)

    ev = commands.add_parser("eval", help="evaluate one expression")
    ev.add_argument("expression")
    _add_common(ev)
    ev.set_defaults(handler=cmd_eval)

    check = commands.add_parser("check", help="run one named check")
    check.add_argument("target", choices=["axioms", "roundtrip", "cc", "base"])
    _add_common(check)
    _add_sampling(check)
    check.set_defaults(handler=cmd_check)

    part = commands.add_parser("partition", help="build a halving-mass partition")
    part.add_argument(
        "spec", nargs="?", help="partition literal, e.g. 'singletons_from(3; {1}, {2})'"
    )
    part.add_argument("--from", dest="tail_start", type=int, default=None)
    part.add_argument("--cells", help="prefix cells, e.g. [{1},{2}]")
    _add_common(part)
    part.set_defaults(handler=cmd_partition)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, UnsupportedShape, NotInvertible) as exc:
        # bad input: ConfigError and ParseError are ValueErrors, a missing
        # or unreadable file is an OSError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect in the program, never "a check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
