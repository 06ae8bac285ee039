"""The record machinery and the small records every command shares.

`record` is the package's one way to write a value class.  The
neighborhood-base kinds, the report step, the input errors, the rationals
the literal parser reads, the finite and cofinite events and the two
helpers that read and print rationals as integer pairs live here so that
loading them costs only this module: `config` needs a default base, every
`check` and `partition` report builds an `EvidenceStep`, and a seminorm,
an element and the literal parser all name events, none of which should
pull in `topology`, `sets` or the probability spaces of `measure`; and
`config` and `cli` catch the input errors without running the literal
parser.  The modules that use them (`topology`, `sets`, `syntax`,
`measure`) re-export each name, so `l0convex.topology.EvidenceStep`,
`l0convex.sets.UnsupportedShape`, `l0convex.syntax.ParseError` and
`l0convex.measure.EventSet` are these same objects.
"""

from __future__ import annotations

from math import gcd
from types import MappingProxyType

from . import seminorms, sets  # bound lazily: neither runs until a base set is built

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from fractions import Fraction

    from .l0 import EcRv


# -- records -------------------------------------------------------------------

# The methods `record` installs and a record class must not write itself.
_METHODS = ("__init__", "__eq__", "__hash__", "__setattr__", "__delattr__")


def record(cls):
    """Make `cls` a record class, whose instances are immutable values.

    The part of a frozen `dataclasses.dataclass` this package uses,
    without code generation.  The fields are the class's own annotations,
    in order, and the methods are closures over the field names:

    - `__init__` takes each field positionally or by keyword; a field left
      out takes its class-level default.  It then calls `__post_init__`
      when the class defines one.
    - `__repr__` is `QualName(f=v, ...)`, unless the class writes its own.
    - `__eq__` compares the tuples of field values, and only between
      objects of the same class; `__hash__` hashes that tuple.
    - Assigning or deleting any attribute raises `AttributeError`.

    For these classes the behaviour is that of the stdlib decorator, which
    compiles source text for every method of every class and imports
    `inspect`, about 45 ms on each start, more than most commands take.
    Anything outside the subset (an option, a base class, a class that
    writes one of the other methods itself) raises `TypeError` instead of
    being ignored.  Introspection shows `__init__(*args, **kwargs)`: the
    field list is the class's annotations.
    """
    if cls.__bases__ != (object,):
        raise TypeError(f"record class {cls.__qualname__} must not have a base class")
    clash = [name for name in _METHODS if name in vars(cls)]
    if clash:
        raise TypeError(f"record class {cls.__qualname__} defines {', '.join(clash)}")
    names = tuple(vars(cls).get("__annotations__", ()))
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    n = len(names)
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def values(obj) -> tuple:
        return tuple([getattr(obj, name) for name in names])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(values(self))

    methods = [__init__, __eq__, __hash__]
    if "__repr__" not in vars(cls):
        methods.append(__repr__)
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def _bind(cls, names, defaults, args, kwargs) -> list:
    """The value of every field, in field order, for one constructor call."""
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names)} arguments but {len(args)} were given")
    given = dict(zip(names, args))
    for key in kwargs:
        if key not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {key!r}")
        if key in given:
            raise TypeError(f"{where} got multiple values for argument {key!r}")
    given = {**defaults, **given, **kwargs}
    for name in names:
        if name not in given:
            raise TypeError(f"{where} missing required argument {name!r}")
    return [given[name] for name in names]


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


# -- rationals -----------------------------------------------------------------


@record
class Ratio:
    """A rational as the literal parser reads it: a positive denominator,
    in lowest terms.  `rational_pair`, and so the checking constructor
    `EcRv`, reads it by the names a Fraction gives the two integers."""

    numerator: int
    denominator: int


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


@record
class EventSet:
    """A finite or cofinite set of atoms.

    Cofinite sets are stored by their excluded atoms, so complementation
    is an involution and union/intersection/difference stay inside the
    class.  `atoms` takes any iterable of atom indices, each checked, and
    holds them as a frozenset.  A frozen record: assigning or deleting an
    attribute raises, so a shared event such as `OMEGA`, and every record
    hashed through one, keeps its value and its hash.
    """

    atoms: frozenset[int] = frozenset()
    cofinite: bool = False

    def __post_init__(self):
        atoms = frozenset([_check_atom(j) for j in self.atoms])
        self.__dict__.update(atoms=atoms, cofinite=bool(self.cofinite))

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return EventSet, (self.atoms, self.cofinite)

    @classmethod
    def finite(cls, atoms: Iterable[int]) -> "EventSet":
        return cls(atoms, False)

    @classmethod
    def cofinite_excluding(cls, atoms: Iterable[int]) -> "EventSet":
        return cls(atoms, True)

    @classmethod
    def empty(cls) -> "EventSet":
        return cls((), False)

    @classmethod
    def full(cls) -> "EventSet":
        return cls((), True)

    def __contains__(self, j: int) -> bool:
        return (j in self.atoms) != self.cofinite

    def complement(self) -> "EventSet":
        return EventSet(self.atoms, not self.cofinite)

    __invert__ = complement

    def union(self, other: "EventSet") -> "EventSet":
        a, b = self.atoms, other.atoms
        if self.cofinite:  # excluded: what both exclude, or what self excludes outside other
            return EventSet(a & b if other.cofinite else a - b, True)
        if other.cofinite:
            return EventSet(b - a, True)
        return EventSet(a | b, False)

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

    def __repr__(self) -> str:  # the literal syntax, as reports print it
        body = "{" + ",".join(str(j) for j in sorted(self.atoms)) + "}"
        return "~" + body if self.cofinite else body


OMEGA = EventSet.full()


@record
class FromSeminorms:
    """Base sets are the balls of a finite seminorm family."""

    family: tuple[seminorms.Seminorm, ...]

    def base_set(self, radius: EcRv) -> sets.Ball:
        return sets.Ball(self.family, radius)


@record
class CounterexampleFamily:
    """Base sets are M + B_eps; all their gauges are identically zero."""

    def base_set(self, radius: EcRv) -> sets.MPlusBall:
        return sets.MPlusBall(radius)


NeighborhoodBase = FromSeminorms | CounterexampleFamily


def _rebuilt(value, mapping, sequence):
    """`value` with every mapping in it, however deep, rebuilt by `mapping`
    and every list or tuple by `sequence`."""
    if isinstance(value, (dict, MappingProxyType)):
        return mapping({k: _rebuilt(v, mapping, sequence) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return sequence([_rebuilt(v, mapping, sequence) for v in value])
    return value


@record
class EvidenceStep:
    """One checked fact of a report.  `inputs` is a read-only copy of the
    given mapping: every mapping in it, however deep, is read-only and
    every list a tuple.  `to_json` and copies give plain dicts and lists."""

    name: str
    inputs: dict
    expected: str
    observed: str
    passed: bool

    def __post_init__(self):
        self.__dict__["inputs"] = _rebuilt(self.inputs, MappingProxyType, tuple)

    def __reduce__(self):  # copies and pickles rebuild through the constructor
        return EvidenceStep, tuple(self.to_json().values())  # the entry is in field order

    def to_json(self) -> dict:
        """The step as a report entry."""
        return {
            "name": self.name,
            "inputs": _rebuilt(self.inputs, dict, list),
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
        }
