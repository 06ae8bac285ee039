"""Decidable set descriptors and the exact gauge (Minkowski) functional.

The grammar covers the convex, absorbent, balanced sets the verification
pipeline needs: seminorm balls, the finitely-supported submodule plus an
order ball ("M + B_eps"), and their scalings, translates and finite
intersections.  Membership is decidable for every shape; the gauge has
an exact closed form for the ball-like shapes and for M + B_eps, where
it degenerates to zero identically.

Gauge values are pointwise infima.  On an atomic space the lattice
infimum of a family bounded below agrees with the atomwise infimum,
which is what makes the closed forms exact; the test suite checks this
lemma by brute force on finite families and bracketing certificates.

This module holds what every set question needs.  Drawing members
(`sampling.sample_member`) and the gauge/membership roundtrip
(`sampling.roundtrip_check`) live in `sampling`, and the gauge
certificates in `_not_induced`: the `eval` and `check cc` commands load
this module and call none of them.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .l0 import (
    EcRv,
    ZERO,
    ONE,
    combine,
    emax,
    divide,
    leq_everywhere,
    reciprocal,
    _make,
    _reduced,
    _takes_zero,
)
from .seminorms import Seminorm, _sup_coefficient
from ._common import UnsupportedShape, record  # UnsupportedShape is re-exported


@record
class Ball:
    """{x : ||x|| <= radius for every seminorm in the list}."""

    seminorms: tuple[Seminorm, ...]
    radius: EcRv

    def __post_init__(self):
        if not self.seminorms:
            raise ValueError("Ball needs at least one seminorm")
        if not _positive(self.radius):
            raise ValueError("radius must be strictly positive everywhere")

    @cached_property
    def coefficient(self) -> EcRv:
        """The largest seminorm coefficient: the sup seminorm at x is this
        times |x|, since max_i(c_i * t) = max_i(c_i) * t for t >= 0."""
        return _sup_coefficient(self.seminorms)


@record
class MPlusBall:
    """M + B_radius: a finitely supported part plus an order-ball part.

    An element belongs iff its values exceed the radius at only finitely
    many atoms; on eventually constant elements that is the single exact
    comparison |tail(x)| <= tail(radius).
    """

    radius: EcRv

    def __post_init__(self):
        if not _positive(self.radius):
            raise ValueError("radius must be strictly positive everywhere")


@record
class Scale:
    factor: EcRv
    inner: "SetDescriptor"

    def __post_init__(self):
        if _takes_zero(self.factor):
            raise ValueError("scale factor must be invertible (no zero value)")


@record
class Translate:
    offset: EcRv
    inner: "SetDescriptor"


@record
class Intersect:
    members: tuple["SetDescriptor", ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("Intersect needs at least one member")


SetDescriptor = Ball | MPlusBall | Scale | Translate | Intersect


def contains(s: SetDescriptor, x: EcRv) -> bool:
    if isinstance(s, Ball):  # every seminorm is at most the radius iff their sup is
        return leq_everywhere(combine("mul", s.coefficient, abs(x)), s.radius)
    if isinstance(s, MPlusBall):
        return _abs_tail_leq(x, s.radius)
    if isinstance(s, Scale):
        if isinstance(s.inner, MPlusBall):  # x / factor in M + B, on the tails alone
            return _abs_tail_leq(x, s.inner.radius, s.factor)
        return contains(s.inner, reciprocal(s.factor) * x)
    if isinstance(s, Translate):
        return contains(s.inner, x - s.offset)
    if isinstance(s, Intersect):
        return all(contains(member, x) for member in s.members)
    raise TypeError(f"not a set descriptor: {s!r}")


# -- the core: points a shape holds at every radius ------------------------


def excluding_radius(s: SetDescriptor, x: EcRv) -> EcRv | None:
    """A radius at which the shape of s excludes x, or None if no radius
    does: half the sup seminorm at x for a ball, half |x| on M + B, and
    1 wherever that vanishes.  s's own radius plays no part."""
    if isinstance(s, Ball):
        norm = combine("mul", s.coefficient, abs(x))
        return None if norm.is_zero() else _half_abs_or_one(norm)
    if isinstance(s, MPlusBall):
        return None if x._t == 0 else _half_abs_or_one(x)
    raise UnsupportedShape(f"no excluding radius for {type(s).__name__}")


def _named_atoms(s: SetDescriptor) -> set[int]:
    """The atoms where a radius, seminorm coefficient, scale factor or
    offset of s differs from its tail."""
    if isinstance(s, Ball):
        return set(s.radius._n).union(*(p.coefficient._n for p in s.seminorms))
    if isinstance(s, MPlusBall):
        return set(s.radius._n)
    if isinstance(s, Scale):
        return set(s.factor._n) | _named_atoms(s.inner)
    if isinstance(s, Translate):
        return set(s.offset._n) | _named_atoms(s.inner)
    return set().union(*map(_named_atoms, s.members))  # an Intersect


def _deciding_atoms(s: SetDescriptor, value: EcRv = ZERO, start: int = 1) -> list[int]:
    """The atoms from start on that s or value names, then one atom past all
    of them: these decide a single-atom question about s and value for
    every atom from start on (see `concatenation._late_pieces_in_set`)."""
    named = _named_atoms(s) | set(value._n)
    return sorted(j for j in named if j >= start) + [max([start - 1, *named]) + 1]


def core_point(s: SetDescriptor) -> EcRv | None:
    """The first deciding atom's indicator that the shape of s holds at
    every radius, or None.  Those points form an L0-submodule, so it has
    a nonzero point exactly when it holds some atom's indicator."""
    points = (_single_atom(ONE, j) for j in _deciding_atoms(s))
    return next((x for x in points if excluding_radius(s, x) is None), None)


# -- gauge closed forms ----------------------------------------------------


def _ball_like(s: SetDescriptor) -> bool:
    if isinstance(s, Ball):
        return True
    if isinstance(s, Scale):
        return _ball_like(s.inner)
    if isinstance(s, Intersect):
        return all(_ball_like(m) for m in s.members)
    return False


def gauge_closed_form(s: SetDescriptor, x: EcRv) -> EcRv:
    """The pointwise infimum of {xi strictly positive : x in xi*S}.

    For a Ball the binding constraint at each atom is ||x|| <= xi*radius,
    so the infimum is max over the seminorms of ||x||/radius: the largest
    coefficient times |x|, over the radius.  For M + B_eps every finitely
    supported truncation of x is absorbed by M at arbitrarily small
    scale, so the infimum vanishes at every atom, whatever x is.
    """
    if isinstance(s, Ball):
        return divide(combine("mul", s.coefficient, abs(x)), s.radius)
    if isinstance(s, MPlusBall):
        return ZERO
    if isinstance(s, Scale):
        return gauge_closed_form(s.inner, reciprocal(s.factor) * x)
    if isinstance(s, Intersect):
        if not _ball_like(s):
            raise UnsupportedShape("gauge of an intersection needs ball members")
        result = gauge_closed_form(s.members[0], x)
        for member in s.members[1:]:
            result = emax(result, gauge_closed_form(member, x))
        return result
    raise UnsupportedShape(f"no gauge closed form for {type(s).__name__}")


# -- integer shortcuts over an element's parts (see `l0._reduced`), for the
# questions above, the members `sampling` draws and the certificates
# `_not_induced` builds: every command that calls one loads this module ----


def _abs_tail_leq(x: EcRv, y: EcRv, f: EcRv = ONE) -> bool:
    """|tail(x)| <= |tail(f)| * tail(y), for f with a nonzero tail: x / f
    lies in M + B_y (x itself for the default f, one)."""
    return abs(x._t) * f._d * y._d <= y._t * abs(f._t) * x._d


def _half_abs_or_one(x: EcRv) -> EcRv:
    """|v|/2 where x takes a nonzero value v, and 1 where it is zero."""
    d = 2 * x._d
    t = abs(x._t) or d
    return _reduced(d, {j: w for j, v in x._n.items() if (w := abs(v) or d) != t}, t)


def _scaled(x: EcRv, p: int, q: int) -> EcRv:
    """x * p/q for an integer p and a positive integer q: the numerators
    times p over the denominator times q.  Zero for p == 0, where every
    override would equal the tail."""
    if not p:
        return ZERO
    return _reduced(x._d * q, {j: v * p for j, v in x._n.items()}, x._t * p)


def _single_atom(x: EcRv, j: int) -> EcRv:
    """x(j) at the atom j, zero elsewhere: `indicator_mul` of {j}."""
    v = x._n.get(j, x._t)
    if not v:
        return ZERO
    g = gcd(x._d, v)
    return _make(x._d // g, {j: v // g}, 0)


def _positive(x: EcRv) -> bool:
    """x > 0 at every atom: `classify(x).in_L0_plusplus`, without the record."""
    return min((x._t, *x._n.values())) > 0
