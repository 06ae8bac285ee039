"""The small records several modules and every command share.

The neighborhood-base kinds, the report step, the input errors and the
default certificate tolerance live here so
that loading them costs only this module: `config` needs a default base
and every `check` and `partition` report builds an `EvidenceStep`,
neither of which should pull in `topology` or `sets`, and `config` and
`cli` catch `ParseError` without running the literal parser.  The
modules that use them (`topology`, `sets`, `syntax`) re-export each
name, so `l0convex.topology.EvidenceStep`,
`l0convex.sets.UnsupportedShape` and `l0convex.syntax.ParseError` are
these same objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Union

from . import seminorms, sets  # bound lazily: neither runs until a base set is built
from ._record import record

if TYPE_CHECKING:
    from .l0 import EcRv

DEFAULT_TOLERANCE = Fraction(1, 2**20)


class UnsupportedShape(TypeError):
    """No gauge closed form for this descriptor."""


class UsageError(ValueError):
    """An input outside what a check accepts: a count below its limit, an
    atom index below 1, or inputs that do not fit together.  The CLI maps
    it to exit code 2; a plain ValueError from the library is a defect."""


class ParseError(ValueError):
    """A literal that does not parse, located by line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


@record(frozen=True)
class FromSeminorms:
    """Base sets are the balls of a finite seminorm family."""

    family: tuple[seminorms.Seminorm, ...]

    def base_set(self, radius: EcRv) -> sets.Ball:
        return sets.Ball(self.family, radius)


@record(frozen=True)
class CounterexampleFamily:
    """Base sets are M + B_eps; all their gauges are identically zero."""

    def base_set(self, radius: EcRv) -> sets.MPlusBall:
        return sets.MPlusBall(radius)


NeighborhoodBase = Union[FromSeminorms, CounterexampleFamily]


@record
class EvidenceStep:
    """One checked fact of a report."""

    name: str
    inputs: dict
    expected: str
    observed: str
    passed: bool

    def to_json(self) -> dict:
        """The step as a report entry."""
        return {
            "name": self.name,
            "inputs": self.inputs,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
        }
