"""The small records several modules and every command share.

The neighborhood-base kinds, the report step, the input errors, the
default certificate tolerance and the two helpers that read and print
rationals as integer pairs live here so that loading them costs only
this module: `config` needs a default base
and every `check` and `partition` report builds an `EvidenceStep`,
neither of which should pull in `topology` or `sets`, and `config` and
`cli` catch the input errors without running the literal parser.  The
modules that use them (`topology`, `sets`, `syntax`) re-export each
name, so `l0convex.topology.EvidenceStep`,
`l0convex.sets.UnsupportedShape` and `l0convex.syntax.ParseError` are
these same objects.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import seminorms, sets  # bound lazily: neither runs until a base set is built
from ._record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction

    from .l0 import EcRv


def __getattr__(name: str):
    # DEFAULT_TOLERANCE, the default certificate tolerance: the constant
    # element 2**-20, built when `sets` or `topology` first imports it.
    # Built at import here, it would run `l0` on the `eval prob` and
    # `partition` paths, which load this module but not `l0`, and `l0`
    # imports this module, so the two would import each other.
    if name != "DEFAULT_TOLERANCE":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .l0 import _make

    value = globals()[name] = _make(2**20, {}, 1)
    return value


# A rational as the literal parser reads it: (numerator, positive
# denominator) in lowest terms, a pair that `rational_pair`, and so the
# checking constructor `EcRv`, reads by the names a Fraction gives them.
Ratio = namedtuple("Ratio", ["numerator", "denominator"])


def rational_pair(value: int | Fraction | Ratio) -> tuple[int, int]:
    """`value` as (numerator, positive denominator) in lowest terms: an int,
    a Fraction or a Ratio as it is, anything else (a float, a Decimal, a
    string) through `Fraction`, as the package has always read rationals."""
    if not hasattr(value, "denominator"):
        from fractions import Fraction

        value = Fraction(value)
    return value.numerator, value.denominator


def ratio_text(p: int, q: int) -> str:
    """p/q, for a positive q, as `str(Fraction(p, q))` prints it."""
    g = gcd(p, q)
    return f"{p // g}/{q // g}" if q != g else str(p // g)


class UsageError(ValueError):
    """An input outside what a check accepts: a count below its limit, an
    atom index below 1, or inputs that do not fit together.  The CLI maps
    it and its subclasses, the package's input errors, to exit code 2; a
    plain ValueError from the library is a defect."""


class UnsupportedShape(UsageError, TypeError):
    """No gauge closed form for this descriptor."""


class ParseError(UsageError):
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


NeighborhoodBase = FromSeminorms | CounterexampleFamily


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
