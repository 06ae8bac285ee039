"""The small records several modules and every command share.

The neighborhood-base kinds, the report step, the input errors, the
finite and cofinite events and the two helpers that read and print
rationals as integer pairs live here so that loading them costs only
this module: `config` needs a default base, every `check` and
`partition` report builds an `EvidenceStep`, and a seminorm, an element
and the literal parser all name events, none of which should pull in
`topology`, `sets` or the probability spaces of `measure`; and `config`
and `cli` catch the input errors without running the literal parser.
The modules that use them (`topology`, `sets`, `syntax`, `measure`)
re-export each name, so `l0convex.topology.EvidenceStep`,
`l0convex.sets.UnsupportedShape`, `l0convex.syntax.ParseError` and
`l0convex.measure.EventSet` are these same objects.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import seminorms, sets  # bound lazily: neither runs until a base set is built
from ._record import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from fractions import Fraction

    from .l0 import EcRv


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


def _check_atom(j: int) -> int:
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise UsageError(f"atom index must be a positive integer, got {j!r}")
    return j


class EventSet:
    """A finite or cofinite set of atoms.

    Cofinite sets are stored by their excluded atoms, so complementation
    is an involution and union/intersection/difference stay inside the
    class.  Immutable: assigning or deleting an attribute raises, so a
    shared event such as `OMEGA`, and every record hashed through one,
    keeps its value and its hash.
    """

    __slots__ = ("atoms", "cofinite")

    def __init__(self, atoms: Iterable[int] = (), cofinite: bool = False):
        _set_atoms(self, frozenset(_check_atom(j) for j in atoms))
        _set_cofinite(self, bool(cofinite))

    def __setattr__(self, name, value):
        raise AttributeError(f"EventSet is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EventSet is immutable; cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return EventSet, (self.atoms, self.cofinite)

    @classmethod
    def finite(cls, atoms: Iterable[int]) -> "EventSet":
        return cls(atoms, cofinite=False)

    @classmethod
    def cofinite_excluding(cls, atoms: Iterable[int]) -> "EventSet":
        return cls(atoms, cofinite=True)

    @classmethod
    def empty(cls) -> "EventSet":
        return cls((), cofinite=False)

    @classmethod
    def full(cls) -> "EventSet":
        return cls((), cofinite=True)

    def __contains__(self, j: int) -> bool:
        return (j in self.atoms) != self.cofinite

    def complement(self) -> "EventSet":
        return EventSet(self.atoms, cofinite=not self.cofinite)

    __invert__ = complement

    def union(self, other: "EventSet") -> "EventSet":
        if not self.cofinite and not other.cofinite:
            return EventSet(self.atoms | other.atoms)
        if self.cofinite and other.cofinite:
            return EventSet(self.atoms & other.atoms, cofinite=True)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return EventSet(cof.atoms - fin.atoms, cofinite=True)

    __or__ = union

    def intersection(self, other: "EventSet") -> "EventSet":
        return (self.complement() | other.complement()).complement()

    __and__ = intersection

    def difference(self, other: "EventSet") -> "EventSet":
        return self & other.complement()

    __sub__ = difference

    def is_empty(self) -> bool:
        return not self.cofinite and not self.atoms

    def isdisjoint(self, other: "EventSet") -> bool:
        return (self & other).is_empty()

    def issubset(self, other: "EventSet") -> bool:
        return (self - other).is_empty()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EventSet)
            and self.cofinite == other.cofinite
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.cofinite, self.atoms))

    def __repr__(self) -> str:
        body = "{" + ",".join(str(j) for j in sorted(self.atoms)) + "}"
        return "~" + body if self.cofinite else body


_set_atoms, _set_cofinite = EventSet.atoms.__set__, EventSet.cofinite.__set__
OMEGA = EventSet.full()


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
