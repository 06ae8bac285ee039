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
from math import gcd, lcm
from types import MappingProxyType

from ._common import EventSet, _check_atom, ratio_text, rational_pair, record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Mapping
    from fractions import Fraction

    Rational = int | Fraction


class NotInvertible(ZeroDivisionError):
    """Reciprocal of an element with a zero value somewhere."""


class EcRv:
    """Eventually constant random variable over the positive integers.

    Representation: one positive common denominator `_d`, the integer
    numerators `_n` of the overrides and `_t` of the tail, with gcd 1
    over `_d` and every numerator and no override numerator equal to
    `_t`.  That form is unique per pointwise function, so `==` and
    `hash` compare the integers directly.  The constructor brings any
    input to it; kernel results reduce with one gcd (see `_reduced`).

    `overrides` (a read-only mapping) and `tail` are `Fraction` views,
    computed when read, in the overrides' insertion order; like
    `value_at` and `values`, they import `fractions` on first use, and
    nothing else does: `repr` prints the integers.  Immutable:
    assigning or deleting an attribute raises, so shared constants such
    as `ONE` keep their value and their hash.
    """

    __slots__ = ("_d", "_n", "_t")

    def __init__(self, overrides: Mapping[int, Rational] | None = None, tail: Rational = 0):
        t = rational_pair(tail)
        ratios = {}
        for j, v in (overrides or {}).items():
            _check_atom(j)
            ratios[j] = rational_pair(v)
        x = _from_ratios(ratios, t)
        _set_d(self, x._d)
        _set_n(self, x._n)
        _set_t(self, x._t)

    def __setattr__(self, name, value):
        raise AttributeError(f"EcRv is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EcRv is immutable; cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the checking constructor
        return EcRv, (dict(self.overrides), self.tail)

    @property
    def overrides(self) -> Mapping[int, Fraction]:
        from fractions import Fraction

        d = self._d
        return MappingProxyType({j: Fraction(v, d) for j, v in self._n.items()})

    @property
    def tail(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._t, self._d)

    @classmethod
    def constant(cls, value: Rational) -> "EcRv":
        if type(value) is int:
            return _make(1, {}, value)
        p, q = rational_pair(value)
        return _make(q, {}, p)

    def value_at(self, j: int) -> Fraction:
        from fractions import Fraction

        return Fraction(self._n.get(j, self._t), self._d)

    def values(self):
        """Every value taken somewhere: the tail plus the overrides."""
        yield self.tail
        yield from self.overrides.values()

    def is_zero(self) -> bool:
        return self._t == 0 and not self._n

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, EcRv)
            and self._d == other._d
            and self._t == other._t
            and self._n == other._n
        )

    def __hash__(self) -> int:
        return hash((self._d, self._t, frozenset(self._n.items())))

    def __repr__(self) -> str:
        d = self._d
        inner = ", ".join([f"{j}:{ratio_text(v, d)}" for j, v in sorted(self._n.items())])
        return "{" + inner + (" | " if inner else "|") + ratio_text(self._t, d) + "}"

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
        return _make(self._d, {j: -v for j, v in self._n.items()}, -self._t)

    def __abs__(self) -> "EcRv":
        t = abs(self._t)
        # |v| == |tail| happens for v == -tail, so that override goes
        return _make(self._d, {j: a for j, v in self._n.items() if (a := abs(v)) != t}, t)


_set_d, _set_n, _set_t = EcRv._d.__set__, EcRv._n.__set__, EcRv._t.__set__


def _make(d: int, n: dict[int, int], t: int) -> EcRv:
    """Wrap parts already in the canonical form, without re-checking:
    numerators on valid atoms over `d`, none equal to `t`, gcd 1 overall.
    The dict is owned by the result from here on."""
    x = object.__new__(EcRv)
    _set_d(x, d)
    _set_n(x, n)
    _set_t(x, t)
    return x


def _reduced(d: int, n: dict[int, int], t: int) -> EcRv:
    """`_make` for parts that may share a factor with `d`: one gcd over
    the denominator and every numerator brings them to the canonical form."""
    g = gcd(d, t, *n.values())
    if g != 1:
        return _make(d // g, {j: v // g for j, v in n.items()}, t // g)
    return _make(d, n, t)


def _from_ratios(overrides: dict[int, tuple[int, int]], tail: tuple[int, int]) -> EcRv:
    """The element with value p/q at each atom of `overrides` and the tail
    p/q of `tail`, from (integer, positive integer) pairs on valid atoms:
    one lcm over the denominators, then `_reduced`."""
    tp, tq = tail
    d = lcm(tq, *[q for _, q in overrides.values()])
    t = tp * (d // tq)
    out = {}
    for j, (p, q) in overrides.items():
        v = p * (d // q)
        if v != t:
            out[j] = v
    return _reduced(d, out, t)


ZERO = EcRv.constant(0)
ONE = EcRv.constant(1)


def _coerce(value: "EcRv | Rational") -> EcRv:
    if isinstance(value, EcRv):
        return value
    return EcRv.constant(value)


_OPS: dict[str, Callable[[int, int], int]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "min": min,
    "max": max,
}


def combine(op: str, x: EcRv, y: EcRv) -> EcRv:
    """Pointwise op(x, y); the result tail is op of the tails.

    The numerators meet over one denominator: the product of the two for
    mul, their lcm otherwise (the shared one when they are equal).  One
    pass over each operand's overrides; a value equal to the result tail
    is dropped as it is computed, and one gcd reduces the result."""
    f = _OPS[op]
    dx, dy = x._d, y._d
    if op == "mul":
        d, sx, sy = dx * dy, 1, 1
    elif dx == dy:
        d, sx, sy = dx, 1, 1
    else:
        d = lcm(dx, dy)
        sx, sy = d // dx, d // dy
    xt, yt = x._t * sx, y._t * sy
    tail = f(xt, yt)
    xo, yo = x._n, y._n
    out = {}
    for j, a in xo.items():
        v = f(a * sx, yo[j] * sy if j in yo else yt)
        if v != tail:
            out[j] = v
    for j, b in yo.items():
        if j not in xo:
            v = f(xt, b * sy)
            if v != tail:
                out[j] = v
    return _reduced(d, out, tail)


def emin(x: EcRv, y: EcRv) -> EcRv:
    return combine("min", x, y)


def emax(x: EcRv, y: EcRv) -> EcRv:
    return combine("max", x, y)


def indicator_mul(event: EventSet, x: EcRv) -> EcRv:
    """Multiply by the indicator of an event: keep x on the event, zero off it."""
    over, t, atoms = x._n, x._t, event.atoms
    if event.cofinite:
        kept = {j: v for j, v in over.items() if j not in atoms}
        if t != 0:
            kept.update(dict.fromkeys(atoms, 0))
        return _reduced(x._d, kept, t)
    kept = {}
    for j in atoms:
        v = over[j] if j in over else t
        if v != 0:
            kept[j] = v
    return _reduced(x._d, kept, 0)


def indicator(event: EventSet) -> EcRv:
    return indicator_mul(event, ONE)


def reciprocal(x: EcRv) -> EcRv:
    if _takes_zero(x):
        raise NotInvertible(f"{x!r} takes the value 0")
    n, t = x._n, x._t
    # 1/(v/d) = d*(m/v)/m over the lcm m of the numerators
    d, m = x._d, lcm(t, *n.values())
    return _reduced(m, {j: d * (m // v) for j, v in n.items()}, d * (m // t))


def divide(x: EcRv, y: EcRv) -> EcRv:
    return x * reciprocal(y)


def _holds_everywhere(rel: Callable[[int, int], bool], x: EcRv, y: EcRv) -> bool:
    """rel(x(j), y(j)) at every atom, stopping at the first atom where it
    fails; the values are compared cross-multiplied by the denominators."""
    dx, dy = x._d, y._d
    xt, yt = x._t * dy, y._t * dx
    if not rel(xt, yt):
        return False
    xo, yo = x._n, y._n
    for j, a in xo.items():
        if not rel(a * dy, yo[j] * dx if j in yo else yt):
            return False
    for j, b in yo.items():
        if j not in xo and not rel(xt, b * dx):
            return False
    return True


def leq_everywhere(x: EcRv, y: EcRv) -> bool:
    """x <= y at every atom."""
    return _holds_everywhere(operator.le, x, y)


def lt_everywhere(x: EcRv, y: EcRv) -> bool:
    """x < y at every atom."""
    return _holds_everywhere(operator.lt, x, y)


@record
class Classification:
    in_L0_plus: bool
    in_L0_plusplus: bool
    in_M: bool


def classify(x: EcRv) -> Classification:
    """Membership in the nonnegative cone, the strictly positive cone,
    and the submodule M of finitely supported elements (zero tail)."""
    low = min((x._t, *x._n.values()))  # the denominator is positive
    return Classification(low >= 0, low > 0, x._t == 0)


# -- integer shortcuts for hot callers that would otherwise read the
# Fraction views; those that only `sets`, `sampling` or `_not_induced`
# call live in `sets` and `_not_induced` --


def _takes_zero(x: EcRv) -> bool:
    """x is 0 at some atom: no reciprocal."""
    return x._t == 0 or 0 in x._n.values()
