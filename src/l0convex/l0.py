"""Exact algebra and lattice structure of eventually constant random variables.

An EcRv assigns a rational value to every atom: finitely many explicit
overrides plus a constant tail.  The fragment is closed under the ring
operations, the lattice operations, absolute value, multiplication by
indicators of finite/cofinite events, and reciprocals of never-zero
elements, which is everything the verification pipeline needs.

Because every atom carries positive mass, "almost everywhere" relations
collapse to "at every atom", so equality and order are decidable by
inspecting the overrides and the tails.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Union

from ._record import record
from .measure import EventSet, _check_atom

Rational = Union[Fraction, int]
_setattr = object.__setattr__  # the one way to write an EcRv's slots


class NotInvertible(ZeroDivisionError):
    """Reciprocal of an element with a zero value somewhere."""


class EcRv:
    """Eventually constant random variable over the positive integers.

    Canonical form: every value is a Fraction and no override equals the
    tail, so structural equality coincides with pointwise equality.  The
    constructor enforces it on any input; kernel results that are
    canonical by construction skip those checks (see `_canonical`).
    Immutable: `overrides` is a read-only mapping and assigning or
    deleting an attribute raises, so shared constants such as `ONE` and
    the cached hash stay valid.
    """

    __slots__ = ("overrides", "tail", "_hash")

    def __init__(self, overrides: Mapping[int, Rational] | None = None, tail: Rational = 0):
        t = Fraction(tail)
        kept: dict[int, Fraction] = {}
        for j, v in (overrides or {}).items():
            _check_atom(j)
            v = Fraction(v)
            if v != t:
                kept[j] = v
        _setattr(self, "overrides", MappingProxyType(kept))
        _setattr(self, "tail", t)
        _setattr(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"EcRv is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EcRv is immutable; cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the checking constructor
        return EcRv, (dict(self.overrides), self.tail)

    @classmethod
    def constant(cls, value: Rational) -> "EcRv":
        return _canonical({}, Fraction(value))

    def value_at(self, j: int) -> Fraction:
        over = self.overrides
        return over[j] if j in over else self.tail

    def values(self):
        """Every value taken somewhere: the tail plus the overrides."""
        yield self.tail
        yield from self.overrides.values()

    def is_zero(self) -> bool:
        return self.tail == 0 and not self.overrides

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, EcRv)
            and self.tail == other.tail
            and self.overrides == other.overrides
        )

    def __hash__(self) -> int:
        if self._hash is None:
            _setattr(self, "_hash", hash((self.tail, frozenset(self.overrides.items()))))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{j}:{v}" for j, v in sorted(self.overrides.items()))
        return "{" + inner + (" | " if inner else "|") + f"{self.tail}" + "}"

    # -- ring and lattice operations (pointwise, re-canonicalized) --

    def __add__(self, other: "EcRv | Rational") -> "EcRv":
        return combine("add", self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other: "EcRv | Rational") -> "EcRv":
        return combine("sub", self, _coerce(other))

    def __rsub__(self, other: "EcRv | Rational") -> "EcRv":
        return combine("sub", _coerce(other), self)

    def __mul__(self, other: "EcRv | Rational") -> "EcRv":
        return combine("mul", self, _coerce(other))

    __rmul__ = __mul__

    def __neg__(self) -> "EcRv":
        return _canonical({j: -v for j, v in self.overrides.items()}, -self.tail)

    def __abs__(self) -> "EcRv":
        t = abs(self.tail)
        # |v| == |tail| happens for v == -tail, so that override goes
        return _canonical(
            {j: a for j, v in self.overrides.items() if (a := abs(v)) != t}, t
        )


_FZERO = Fraction(0)


def _canonical(overrides: dict[int, Fraction], tail: Fraction) -> EcRv:
    """Wrap parts that are canonical by construction, without re-checking:
    Fraction values on valid atoms, none equal to the tail.  The dict is
    owned by the result from here on."""
    x = object.__new__(EcRv)
    _setattr(x, "overrides", MappingProxyType(overrides))
    _setattr(x, "tail", tail)
    _setattr(x, "_hash", None)
    return x


ZERO = EcRv.constant(0)
ONE = EcRv.constant(1)


def _coerce(value: "EcRv | Rational") -> EcRv:
    if isinstance(value, EcRv):
        return value
    return EcRv.constant(value)


_OPS: dict[str, Callable[[Fraction, Fraction], Fraction]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "min": min,
    "max": max,
}


def combine(op: str, x: EcRv, y: EcRv) -> EcRv:
    """Pointwise op(x, y); the result tail is op of the tails.

    One pass over each operand's overrides; a value equal to the result
    tail is dropped as it is computed."""
    f = _OPS[op]
    xt, yt = x.tail, y.tail
    tail = f(xt, yt)
    xo, yo = x.overrides, y.overrides
    out = {}
    for j, a in xo.items():
        v = f(a, yo[j] if j in yo else yt)
        if v != tail:
            out[j] = v
    for j, b in yo.items():
        if j not in xo:
            v = f(xt, b)
            if v != tail:
                out[j] = v
    return _canonical(out, tail)


def emin(x: EcRv, y: EcRv) -> EcRv:
    return combine("min", x, y)


def emax(x: EcRv, y: EcRv) -> EcRv:
    return combine("max", x, y)


def indicator_mul(event: EventSet, x: EcRv) -> EcRv:
    """Multiply by the indicator of an event: keep x on the event, zero off it."""
    over, t, atoms = x.overrides, x.tail, event.atoms
    if event.cofinite:
        kept = {j: v for j, v in over.items() if j not in atoms}
        if t != 0:
            kept.update(dict.fromkeys(atoms, _FZERO))
        return _canonical(kept, t)
    kept = {}
    for j in atoms:
        v = over[j] if j in over else t
        if v != 0:
            kept[j] = v
    return _canonical(kept, _FZERO)


def indicator(event: EventSet) -> EcRv:
    return indicator_mul(event, ONE)


def reciprocal(x: EcRv) -> EcRv:
    if any(v == 0 for v in x.values()):
        raise NotInvertible(f"{x!r} takes the value 0")
    return _canonical({j: 1 / v for j, v in x.overrides.items()}, 1 / x.tail)


def divide(x: EcRv, y: EcRv) -> EcRv:
    return x * reciprocal(y)


@record(frozen=True)
class OrderReport:
    """Pointwise comparison of two elements, with the exact witness events."""

    leq_everywhere: bool
    strict_set: EventSet
    equal_set: EventSet


def order_compare(x: EcRv, y: EcRv) -> OrderReport:
    """Exact pointwise comparison; the strict/equal sets cover all atoms
    where the relation holds (finite or cofinite by eventual constancy)."""
    probed = set(x.overrides) | set(y.overrides)
    strict_atoms = {j for j in probed if x.value_at(j) < y.value_at(j)}
    equal_atoms = {j for j in probed if x.value_at(j) == y.value_at(j)}
    if x.tail < y.tail:
        strict = EventSet.cofinite_excluding(probed - strict_atoms)
    else:
        strict = EventSet.finite(strict_atoms)
    if x.tail == y.tail:
        equal = EventSet.cofinite_excluding(probed - equal_atoms)
    else:
        equal = EventSet.finite(equal_atoms)
    leq = x.tail <= y.tail and all(
        x.value_at(j) <= y.value_at(j) for j in probed
    )
    return OrderReport(leq, strict, equal)


def _holds_everywhere(rel: Callable[[Fraction, Fraction], bool], x: EcRv, y: EcRv) -> bool:
    """rel(x(j), y(j)) at every atom, stopping at the first atom where it fails."""
    xt, yt = x.tail, y.tail
    if not rel(xt, yt):
        return False
    xo, yo = x.overrides, y.overrides
    for j, a in xo.items():
        if not rel(a, yo[j] if j in yo else yt):
            return False
    for j, b in yo.items():
        if j not in xo and not rel(xt, b):
            return False
    return True


def leq_everywhere(x: EcRv, y: EcRv) -> bool:
    """x <= y at every atom; `order_compare` also returns the witness events."""
    return _holds_everywhere(operator.le, x, y)


def lt_everywhere(x: EcRv, y: EcRv) -> bool:
    """x < y at every atom."""
    return _holds_everywhere(operator.lt, x, y)


@record(frozen=True)
class Classification:
    in_L0_plus: bool
    in_L0_plusplus: bool
    in_M: bool


def classify(x: EcRv) -> Classification:
    """Membership in the nonnegative cone, the strictly positive cone,
    and the submodule M of finitely supported elements (zero tail)."""
    values = list(x.values())
    return Classification(
        in_L0_plus=all(v >= 0 for v in values),
        in_L0_plusplus=all(v > 0 for v in values),
        in_M=x.tail == 0,
    )
