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
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property, reduce

from ._record import record
from .l0 import (
    EcRv,
    ZERO,
    ONE,
    classify,
    _coerce,
    combine,
    emax,
    divide,
    leq_everywhere,
    lt_everywhere,
    reciprocal,
    _abs_tail_leq,
    _abs_tail_ratio,
    _from_ratios,
    _half_abs_or_one,
    _leq_at,
    _scaled,
    _single_atom,
    _takes_zero,
    _with_tail,
)
from .measure import _check_atom
from .seminorms import Seminorm, evaluate, _sup_coefficient
from . import sampling
from ._common import DEFAULT_TOLERANCE, UnsupportedShape  # re-exported

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from fractions import Fraction


@record(frozen=True)
class Ball:
    """{x : ||x|| <= radius for every seminorm in the list}."""

    seminorms: tuple[Seminorm, ...]
    radius: EcRv

    def __post_init__(self):
        if not self.seminorms:
            raise ValueError("Ball needs at least one seminorm")
        if not classify(self.radius).in_L0_plusplus:
            raise ValueError("radius must be strictly positive everywhere")

    @cached_property
    def coefficient(self) -> EcRv:
        """The largest seminorm coefficient: the sup seminorm at x is this
        times |x|, since max_i(c_i * t) = max_i(c_i) * t for t >= 0."""
        return _sup_coefficient(self.seminorms)


@record(frozen=True)
class MPlusBall:
    """M + B_radius: a finitely supported part plus an order-ball part.

    An element belongs iff its values exceed the radius at only finitely
    many atoms; on eventually constant elements that is the single exact
    comparison |tail(x)| <= tail(radius).
    """

    radius: EcRv

    def __post_init__(self):
        if not classify(self.radius).in_L0_plusplus:
            raise ValueError("radius must be strictly positive everywhere")


@record(frozen=True)
class Scale:
    factor: EcRv
    inner: "SetDescriptor"

    def __post_init__(self):
        if _takes_zero(self.factor):
            raise ValueError("scale factor must be invertible (no zero value)")


@record(frozen=True)
class Translate:
    offset: EcRv
    inner: "SetDescriptor"


@record(frozen=True)
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


@record(frozen=True)
class GaugeCertificate:
    """A re-checkable upper bound on the gauge of `point` in `target_set`.

    The witness is strictly positive, `point in witness * target_set`
    holds by the membership test alone, and at every probe atom the
    witness does not exceed the claimed bound by more than tolerance, a
    positive constant element.
    """

    target_set: SetDescriptor
    point: EcRv
    witness: EcRv
    probe_atoms: tuple[int, ...]
    claimed_bound: EcRv
    tolerance: EcRv


def verify_certificate(cert: GaugeCertificate) -> bool:
    if not classify(cert.witness).in_L0_plusplus:
        return False
    if not contains(Scale(cert.witness, cert.target_set), cert.point):
        return False
    return _leq_at(cert.witness, cert.claimed_bound, cert.probe_atoms, cert.tolerance)


DEFAULT_PROBE_ATOMS = tuple(range(1, 33))


def gauge_upper_certificate(
    s: SetDescriptor,
    x: EcRv,
    probe_atoms: Iterable[int] = DEFAULT_PROBE_ATOMS,
    tol: EcRv | int | Fraction = DEFAULT_TOLERANCE,
) -> GaugeCertificate:
    """A certificate for the gauge of x in s; `tol` is a positive rational
    or constant element, kept as a constant element."""
    probes = tuple(probe_atoms)
    tol = _coerce(tol)
    if tol._n or tol._t <= 0:
        raise ValueError("tolerance must be a positive constant")
    bound = gauge_closed_form(s, x)
    witness = _certificate_witness(s, x, probes, tol)
    return GaugeCertificate(s, x, witness, probes, bound, tol)


def _certificate_witness(
    s: SetDescriptor, x: EcRv, probes: tuple[int, ...], tol: EcRv
) -> EcRv:
    """The witness of a certificate for the constant tolerance `tol`."""
    if x.is_zero():
        return _scaled(tol, 1, 2)
    if isinstance(s, MPlusBall):
        # membership only constrains the tail; the probe atoms can sit
        # at the tolerance because finite excursions are absorbed by M
        # the tail is max(1, |tail(x)| / tail(radius)), on the integer numerators
        p, q = _abs_tail_ratio(x, s.radius)
        ratio = (tol._t, tol._d)
        over = dict.fromkeys(map(_check_atom, probes), ratio)
        return _from_ratios(over, (p, q) if p > q else (1, 1))
    if isinstance(s, Scale):
        return _certificate_witness(s.inner, reciprocal(s.factor) * x, probes, tol)
    if isinstance(s, Translate) and s.offset.is_zero():
        return _certificate_witness(s.inner, x, probes, tol)
    if isinstance(s, Intersect):
        # the larger scaling holds x in every balanced member at once; on
        # ball members this is the intersection's closed form plus tol/2
        witness = _certificate_witness(s.members[0], x, probes, tol)
        for member in s.members[1:]:
            witness = emax(witness, _certificate_witness(member, x, probes, tol))
        return witness
    if isinstance(s, Ball):
        return gauge_closed_form(s, x) + _scaled(tol, 1, 2)
    raise UnsupportedShape(f"no gauge certificate for {type(s).__name__}")


# -- membership sampling ---------------------------------------------------


def sample_member(s: SetDescriptor, rng: random.Random) -> EcRv:
    """A random element of the set, boundary included for ball shapes."""
    if isinstance(s, Ball):
        x = sampling.random_ecrv(rng)
        g = gauge_closed_form(s, x)
        if rng.random() < 0.25 and classify(g).in_L0_plusplus:
            return x * reciprocal(g)  # gauge exactly one: a boundary point
        p, q = sampling._unit_ratio(rng)  # x scaled by p/q in [0, 1]
        return _scaled(x, p, q) * reciprocal(ONE + g)
    if isinstance(s, MPlusBall):
        x = sampling.random_ecrv(rng)
        p, q = sampling._unit_ratio(rng)
        r = s.radius  # the tail is +-p/q times the radius's tail
        return _with_tail(x, sampling._sign(rng) * p * r._t, q * r._d)
    if isinstance(s, Scale):
        return s.factor * sample_member(s.inner, rng)
    if isinstance(s, Translate):
        return s.offset + sample_member(s.inner, rng)
    if isinstance(s, Intersect):
        # halving any candidate eventually lands in a balanced absorbent set
        candidate = sample_member(s.members[0], rng)
        for _ in range(128):
            if contains(s, candidate):
                return candidate
            candidate = _scaled(candidate, 1, 2)
        if contains(s, ZERO):
            return ZERO
        raise ValueError(f"could not sample a member of {s!r}")
    raise TypeError(f"not a set descriptor: {s!r}")


# -- gauge / membership roundtrips -----------------------------------------


def roundtrip_check(target, samples: int, seed: int) -> sampling.Tally:
    """Check that gauges and membership determine each other.

    For a ball of seminorms (a seminorm p stands for its unit ball): the
    gauge closed form equals the family's own evaluation, the max of
    ||x||_p over the radius, so a wrong `Ball.coefficient` is caught.
    For every set: membership agrees with gauge <= 1 everywhere, and
    gauge < 1 at every atom forces membership.  The checks are `gauge`,
    `membership` and `strict`; the example is the drawn point `x`.
    """
    rng = sampling.make_rng(seed)
    if isinstance(target, (Ball, MPlusBall, Scale, Translate, Intersect)):
        ball = target
    else:
        ball = Ball((target,), ONE)
    # alternate free points with members so the boundary gets exercised
    members = itertools.cycle((False, True))

    def draw():
        x = sample_member(ball, rng) if next(members) else sampling.random_ecrv(rng)
        g = gauge_closed_form(ball, x)
        reproduced = not isinstance(ball, Ball) or g == divide(
            reduce(emax, (evaluate(p, x) for p in ball.seminorms)), ball.radius
        )
        member = contains(ball, x)
        checks = {
            "gauge": reproduced,
            "membership": member == leq_everywhere(g, ONE),
            "strict": not (lt_everywhere(g, ONE) and not member),
        }
        return checks, {"x": x}

    return sampling.tally(samples, draw)
