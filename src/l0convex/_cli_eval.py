"""The `eval` command: one expression, evaluated exactly.

`cli` imports this module only in the branch that runs `eval`; it never
imports `cli`, which runs as `__main__` under `python -m l0convex.cli`.
"""

from __future__ import annotations

from . import concatenation, measure, seminorms, sets, syntax
from ._common import ParseError, ratio_text
from .config import RunConfig


def run_eval(expr: str, config: RunConfig) -> str:
    parser = syntax.Parser(expr)
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
        space = config.space or measure.CANONICAL
        return ratio_text(*space._probability(event))
    if op == "seminorm":
        s = parser.seminorm()
        x = parser.ecrv()
        parser.finish()
        return repr(seminorms.evaluate(s, x))
    if op == "glue":
        from ._syntax_extra import FullParser

        parser = FullParser(expr)  # reads sequences and partitions too
        parser.word()
        seq = parser.sequence()
        part = parser.partition()
        parser.finish()
        return repr(concatenation.glue(seq, part))
    raise ParseError(f"unknown operation {op!r}", 1, 1)


def cmd_eval(args, config: RunConfig, header: dict) -> dict:
    """The report; `cli` prints its value and writes it to --json."""
    value = run_eval(args.expression, config)
    return {**header, "command": "eval", "expression": args.expression, "value": value}
