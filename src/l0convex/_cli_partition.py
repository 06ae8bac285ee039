"""The `partition` command: build a halving-mass partition and check it.

`cli` imports this module only in the branch that runs `partition`; it
never imports `cli`, which runs as `__main__` under `python -m
l0convex.cli`.  The command needs `measure` and the full literal parser
of `_syntax_extra`, and no element arithmetic.  The package functions it
calls go through their module objects, like the evidence functions
everywhere in the front end.
"""

from __future__ import annotations

from . import _syntax_extra, config as cf, measure, syntax
from ._common import EvidenceStep, ratio_text


def cmd_partition(args, config: cf.RunConfig, header: dict) -> dict:
    cells = config.prefix_cells
    tail_start = args.tail_start if args.tail_start is not None else config.singletons_from
    if args.cells is not None:
        cells = syntax._parse_one("event_list", args.cells)
    if tail_start is None:
        raise cf.ConfigError("partition needs part.singletons_from or --from")
    space = config.space or measure.CANONICAL
    part = measure.build_countable_partition(space, cells, tail_start)
    omega_prime = measure.EventSet.cofinite_excluding(range(1, tail_start))
    # the masses are (numerator, positive denominator) pairs in lowest terms
    rp, rq = space._probability(omega_prime)
    masses = []
    law_holds = True
    for n in range(1, 21):
        p, q = space._probability(part.cell(part.prefix_count + n))
        masses.append(ratio_text(p, q))
        law_holds = law_holds and p * (rq << n) == rp * q  # p/q == (rp/rq) / 2**n
    positive = all(
        space._probability(part.cell(k))[0] > 0
        for k in range(1, part.prefix_count + 21)
    )
    step = EvidenceStep(
        "halving_masses",
        {"tail_start": tail_start, "cells_checked": 20},
        "the n-th tail cell has exactly a 2**-n share of the tail mass",
        f"law holds: {law_holds}, all cells positive: {positive}",
        law_holds and positive,
    )
    return {
        **header,
        "command": "partition",
        "partition": _syntax_extra.format_partition(part),
        "tail_mass": ratio_text(rp, rq),
        "tail_cell_masses": masses,
        "steps": [step.to_json()],
        "pass": step.passed,
    }
