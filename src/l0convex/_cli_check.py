"""The `check` command: one named check, reported as a single step.

`cli` imports this module only in the branch that runs `check`; it never
imports `cli`, which runs as `__main__` under `python -m l0convex.cli`.
The evidence functions are called through their module objects, so a
target runs only the modules it uses.

The seminorm axioms checker `axioms_check`, which takes a seminorm
descriptor, lives here: `check axioms` is the one command that calls it,
and the package exports it as `l0convex.axioms_check`.
"""

from __future__ import annotations

from . import concatenation, l0, sampling, seminorms, syntax, topology
from ._common import EvidenceStep
from .config import ConfigError, RunConfig

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .seminorms import Seminorm


def axioms_check(s: Seminorm, samples: int, seed: int) -> sampling.Tally:
    """Check homogeneity and the triangle inequality of the seminorm `s` on
    random samples, evaluated by `seminorms.evaluate` as read from its
    module; any other `s` raises `TypeError`.  Failures are counted per
    check, `homogeneity` and `triangle`, not raised; the example holds the
    draw's `scalar`, `x` and `y`.
    """
    rng = sampling.make_rng(seed)
    combine = l0.combine

    def ev(x):
        return seminorms.evaluate(s, x)

    def draw():
        scalar, x, y = (sampling.random_ecrv(rng) for _ in range(3))
        norm_x = ev(x)
        return {
            "homogeneity": ev(combine("mul", scalar, x)) == combine("mul", abs(scalar), norm_x),
            "triangle": l0.leq_everywhere(ev(x + y), norm_x + ev(y)),
        }, {"scalar": scalar, "x": x, "y": y}

    return sampling.tally(samples, draw)


def cmd_check(args, config: RunConfig, header: dict) -> dict:
    target = args.target
    if target == "axioms":
        if config.seminorm is None:
            raise ConfigError("check axioms needs a 'seminorm' key in the config")
        report = axioms_check(config.seminorm, config.samples, config.seed)
        step = report.step(
            "seminorm_axioms",
            "homogeneity and triangle inequality hold exactly on all samples",
            "homogeneity failures: {failures[homogeneity]}, "
            "triangle failures: {failures[triangle]}",
            seminorm=syntax.format_seminorm(config.seminorm),
        )
    elif target == "roundtrip":
        probe = config.seminorm if config.seminorm is not None else config.set_descriptor
        if probe is None:
            raise ConfigError("check roundtrip needs a 'seminorm' or 'set' key")
        if config.seminorm is not None and config.set_descriptor is not None:
            raise ConfigError("'set' would be ignored: check roundtrip reads 'seminorm' or 'set'")
        report = sampling.roundtrip_check(probe, config.samples, config.seed)
        if config.seminorm is not None:
            shown = syntax.format_seminorm(probe)
        else:
            from ._syntax_extra import format_set

            shown = format_set(probe)
        step = report.step(
            "gauge_roundtrip",
            "gauge reproduces the seminorm and membership agrees with gauge <= 1",
            "gauge mismatches: {failures[gauge]}, membership mismatches: "
            "{failures[membership]}, strict-inclusion failures: {failures[strict]}",
            target=shown,
        )
    elif target == "cc":
        from . import _syntax_extra as sx

        if config.set_descriptor is None or not config.sequences:
            raise ConfigError("check cc needs 'set' and at least one sequence")
        part = config.partition()
        if part is None:
            raise ConfigError("check cc needs a partition (part.finite or part.singletons_from)")
        report = concatenation.relative_cc_check(config.set_descriptor, part, config.sequences)
        outcome = "fail" if not report.closure_holds else "pass"
        entries = [
            {
                "sequence": sx.format_sequence(e.sequence),
                "precondition_ok": e.precondition_ok,
                "glue": repr(e.glue),
                "glue_in_set": e.glue_in_set,
                "seminorm_identity_ok": e.seminorm_identity_ok,
            }
            for e in report.entries
        ]
        step = EvidenceStep(
            "relative_concatenation",
            {
                "set": sx.format_set(config.set_descriptor),
                "partition": sx.format_partition(part),
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

    return {
        **header,
        "command": f"check {target}",
        "steps": [step.to_json()],
        "pass": step.passed,
    }
