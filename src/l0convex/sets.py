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

import random
from fractions import Fraction
from typing import Iterable, Union

from ._record import field, record
from .l0 import (
    EcRv,
    ZERO,
    ONE,
    classify,
    combine,
    emax,
    divide,
    leq_everywhere,
    lt_everywhere,
    reciprocal,
    _abs_tail_leq,
    _abs_tail_ratio,
    _from_ratios,
    _leq_at,
    _scaled,
    _takes_zero,
    _with_tail,
)
from .measure import _check_atom
from .seminorms import Seminorm, evaluate, sup_evaluate
from . import sampling
from ._common import DEFAULT_TOLERANCE, UnsupportedShape  # re-exported


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


SetDescriptor = Union[Ball, MPlusBall, Scale, Translate, Intersect]


def contains(s: SetDescriptor, x: EcRv) -> bool:
    if isinstance(s, Ball):
        t = abs(x)  # each seminorm's value is its coefficient times |x|
        return all(
            leq_everywhere(combine("mul", p.coefficient, t), s.radius) for p in s.seminorms
        )
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


# -- structural flags ------------------------------------------------------


@record(frozen=True)
class StructuralFlags:
    l0_convex: bool
    l0_absorbent: bool
    l0_balanced: bool

    def all_true(self) -> bool:
        return self.l0_convex and self.l0_absorbent and self.l0_balanced


def structural_flags(s: SetDescriptor) -> StructuralFlags:
    """Convexity, absorbency and balancedness, derived from the shape.

    Scaling by an invertible factor preserves all three.  Translation
    preserves convexity only; the other two are flagged just for the
    trivial offset.  Intersections of balanced absorbent sets stay
    absorbent because the larger of two admissible scalings absorbs in
    both members at once.
    """
    if isinstance(s, (Ball, MPlusBall)):
        return StructuralFlags(True, True, True)
    if isinstance(s, Scale):
        return structural_flags(s.inner)
    if isinstance(s, Translate):
        inner = structural_flags(s.inner)
        at_origin = s.offset.is_zero()
        return StructuralFlags(
            inner.l0_convex,
            inner.l0_absorbent and at_origin,
            inner.l0_balanced and at_origin,
        )
    if isinstance(s, Intersect):
        inner = [structural_flags(m) for m in s.members]
        convex = all(f.l0_convex for f in inner)
        balanced = all(f.l0_balanced for f in inner)
        absorbent = balanced and all(f.l0_absorbent for f in inner)
        return StructuralFlags(convex, absorbent, balanced)
    raise TypeError(f"not a set descriptor: {s!r}")


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
        return divide(sup_evaluate(s.seminorms, x), s.radius)
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
    witness does not exceed the claimed bound by more than tolerance.
    """

    target_set: SetDescriptor
    point: EcRv
    witness: EcRv
    probe_atoms: tuple[int, ...]
    claimed_bound: EcRv
    tolerance: Fraction


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
    tol: Fraction = DEFAULT_TOLERANCE,
) -> GaugeCertificate:
    probes = tuple(probe_atoms)
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    bound = gauge_closed_form(s, x)
    witness = _certificate_witness(s, x, probes, tol)
    return GaugeCertificate(s, x, witness, probes, bound, tol)


def _certificate_witness(
    s: SetDescriptor, x: EcRv, probes: tuple[int, ...], tol: Fraction
) -> EcRv:
    if x.is_zero():
        return EcRv.constant(tol / 2)
    if isinstance(s, MPlusBall):
        # membership only constrains the tail; the probe atoms can sit
        # at the tolerance because finite excursions are absorbed by M
        # the tail is max(1, |tail(x)| / tail(radius)), on the integer numerators
        p, q = _abs_tail_ratio(x, s.radius)
        ratio = (tol.numerator, tol.denominator)
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
        return gauge_closed_form(s, x) + tol / 2
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
            candidate = candidate * Fraction(1, 2)
        if contains(s, ZERO):
            return ZERO
        raise ValueError(f"could not sample a member of {s!r}")
    raise TypeError(f"not a set descriptor: {s!r}")


# -- gauge / membership roundtrips -----------------------------------------


@record
class RoundtripReport:
    samples: int
    gauge_mismatches: int = 0
    membership_mismatches: int = 0
    strict_inclusion_failures: int = 0
    witnesses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (
            self.gauge_mismatches
            or self.membership_mismatches
            or self.strict_inclusion_failures
        )


def roundtrip_check(target, samples: int, seed: int) -> RoundtripReport:
    """Check that gauges and membership determine each other.

    For a seminorm p: the gauge of the unit ball of p reproduces p
    exactly.  For a ball U: membership agrees with gauge <= 1
    everywhere, and gauge < 1 at every atom forces membership.
    """
    sampling.require_samples(samples)
    rng = sampling.make_rng(seed)
    report = RoundtripReport(samples=samples)
    if isinstance(target, (Ball, MPlusBall, Scale, Translate, Intersect)):
        seminorm = None
        ball = target
    else:
        seminorm = target
        ball = Ball((seminorm,), ONE)
    for i in range(samples):
        # alternate free points with members so the boundary gets exercised
        x = sample_member(ball, rng) if i % 2 else sampling.random_ecrv(rng)
        g = gauge_closed_form(ball, x)
        if seminorm is not None and g != evaluate(seminorm, x):
            report.gauge_mismatches += 1
            report.witnesses.append(("gauge", x))
        member = contains(ball, x)
        if member != leq_everywhere(g, ONE):
            report.membership_mismatches += 1
            report.witnesses.append(("membership", x))
        if lt_everywhere(g, ONE) and not member:
            report.strict_inclusion_failures += 1
            report.witnesses.append(("strict", x))
    return report
