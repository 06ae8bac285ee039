"""Test-only references: the package neither runs nor exports them.

`order_compare` compares two elements pointwise and returns the exact
witness events; the property tests of `leq_everywhere` and
`lt_everywhere` use it as their reference.  `structural_flags` derives
from a set descriptor's shape whether it is convex, absorbent and
balanced, and `confirm_structural_flags` samples those flags.
`random_positive_fraction` draws a positive rational on the same draws
as the samplers.

`base_axiom_witnesses` builds and tests every member whole, and
`late_pieces_in_set` builds the piece at every deciding atom: they are
the references of the package's checks that decide membership in M + B
by the tail alone.

The composed samplers are the reference of the package's one-pass ones
(`sampling._draw` and the members `sampling.sample_member` builds from
its pairs).  `random_ecrv` draws the atoms (`_random_atoms`), then a
pair per value through `draw` (`_ratio`, `_positive_ratio`,
`sampling._unit_ratio`, ...), each value through one helper, and
`sample_member` builds a member from kernel operations, each of which
builds a whole element and reduces it: on a ball the point, its gauge,
the reciprocal of the gauge or of one plus the gauge, the drawn scaling
and the product.
"""

from fractions import Fraction
from math import lcm

from l0convex import _not_induced, l0, sampling, sets
from l0convex._common import EventSet, record
from l0convex.sampling import ATOM_SPAN, BOUND, MAX_OVERRIDES, _below

# -- the composed samplers -------------------------------------------------


def _ratio(rng) -> tuple[int, int]:
    """`(randint(-BOUND, BOUND), randint(1, BOUND))`."""
    return _below(rng, 2 * BOUND + 1) - BOUND, _below(rng, BOUND) + 1


def _sign(rng) -> int:
    """`rng.choice((-1, 1))`."""
    return 2 * _below(rng, 2) - 1


def _positive_ratio(rng) -> tuple[int, int]:
    """`(randint(1, BOUND), randint(1, BOUND))`."""
    return _below(rng, BOUND) + 1, _below(rng, BOUND) + 1


def _random_atoms(rng) -> list[int]:
    """`rng.sample(range(1, ATOM_SPAN + 1), randint(0, MAX_OVERRIDES))`.

    On a population of at most 21, `sample` draws each pick from a pool
    of the atoms not yet picked and moves the pool's last atom into the
    vacancy; this is that loop.
    """
    count = _below(rng, MAX_OVERRIDES + 1)
    pool = list(range(1, ATOM_SPAN + 1))
    picked = []
    for n in range(ATOM_SPAN, ATOM_SPAN - count, -1):
        j = _below(rng, n)
        picked.append(pool[j])
        pool[j] = pool[n - 1]
    return picked


def random_ecrv(rng, draw=_ratio) -> l0.EcRv:
    """Random overrides, then the tail, each value drawn as a pair by `draw`."""
    return l0._from_ratios({j: draw(rng) for j in _random_atoms(rng)}, draw(rng))


def _with_tail(x: l0.EcRv, p: int, q: int) -> l0.EcRv:
    """x's overrides with the tail p/q in place of its tail, for an
    integer p and a positive integer q, not necessarily coprime."""
    d = lcm(x._d, q)
    scale, t = d // x._d, p * (d // q)
    return l0._reduced(d, {j: w for j, v in x._n.items() if (w := v * scale) != t}, t)


def sample_member(s: sets.SetDescriptor, rng) -> l0.EcRv:
    """`sampling.sample_member`, composed from kernel operations."""
    if isinstance(s, sets.Ball):
        x = random_ecrv(rng)
        g = sets.gauge_closed_form(s, x)
        if rng.random() < 0.25 and l0.classify(g).in_L0_plusplus:
            return x * l0.reciprocal(g)  # gauge exactly one: a boundary point
        p, q = sampling._unit_ratio(rng)  # x scaled by p/q in [0, 1]
        return sets._scaled(x, p, q) * l0.reciprocal(l0.ONE + g)
    if isinstance(s, sets.MPlusBall):
        x = random_ecrv(rng)
        p, q = sampling._unit_ratio(rng)
        r = s.radius  # the tail is +-p/q times the radius's tail
        return _with_tail(x, _sign(rng) * p * r._t, q * r._d)
    if isinstance(s, sets.Scale):
        return s.factor * sample_member(s.inner, rng)
    if isinstance(s, sets.Translate):
        return s.offset + sample_member(s.inner, rng)
    candidate = sample_member(s.members[0], rng)  # an Intersect
    for _ in range(128):
        if sets.contains(s, candidate):
            return candidate
        candidate = sets._scaled(candidate, 1, 2)
    if sets.contains(s, l0.ZERO):
        return l0.ZERO
    raise ValueError(f"could not sample a member of {s!r}")


# -- the composed base axioms and late pieces ------------------------------


def base_axiom_witnesses(base, eps: l0.EcRv, delta: l0.EcRv, samples: int, seed: int):
    """`topology.base_axiom_witnesses` with every member built whole by
    `sample_member` above, and each inclusion tested on whole elements."""
    meet, half, ratio = l0.emin(eps, delta), sets._scaled(eps, 1, 2), l0.divide(delta, eps)
    rng = sampling.make_rng(seed)
    u_eps, u_delta = base.base_set(eps), base.base_set(delta)
    u_meet, u_half, u_ratio = base.base_set(meet), base.base_set(half), base.base_set(ratio)

    def draw():
        x = sample_member(u_meet, rng)
        a, b = sample_member(u_half, rng), sample_member(u_half, rng)
        y = sample_member(u_ratio, rng)
        checks = {
            "meet": sets.contains(u_eps, x) and sets.contains(u_delta, x),
            "sum": sets.contains(u_eps, a + b),
            "scaling": sets.contains(u_delta, eps * y),
        }
        return checks, {
            "meet_witness": meet,
            "sum_witness": half,
            "scaling_witness": ratio,
            "meet_point": x,
            "sum_points": (a, b),
            "scaling_point": y,
        }

    return sampling.tally(samples, draw)


def late_pieces_in_set(s: sets.SetDescriptor, value: l0.EcRv, start: int) -> bool:
    """`concatenation._late_pieces_in_set` on every shape alike: the piece
    at each deciding atom, built and tested."""
    atoms = sets._deciding_atoms(s, value, start)
    return all(sets.contains(s, sets._single_atom(value, j)) for j in atoms)


# -- pointwise order with witness events -----------------------------------


@record
class OrderReport:
    """Pointwise comparison of two elements, with the exact witness events."""

    leq_everywhere: bool
    strict_set: EventSet
    equal_set: EventSet


def order_compare(x: l0.EcRv, y: l0.EcRv) -> OrderReport:
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


# -- structural flags ------------------------------------------------------


@record
class StructuralFlags:
    l0_convex: bool
    l0_absorbent: bool
    l0_balanced: bool


def structural_flags(s: sets.SetDescriptor) -> StructuralFlags:
    """Convexity, absorbency and balancedness, derived from the shape.

    Scaling by an invertible factor preserves all three.  Translation
    preserves convexity only; the other two are flagged just for the
    trivial offset.  Intersections of balanced absorbent sets stay
    absorbent because the larger of two admissible scalings absorbs in
    both members at once.
    """
    if isinstance(s, (sets.Ball, sets.MPlusBall)):
        return StructuralFlags(True, True, True)
    if isinstance(s, sets.Scale):
        return structural_flags(s.inner)
    if isinstance(s, sets.Translate):
        inner = structural_flags(s.inner)
        at_origin = s.offset.is_zero()
        return StructuralFlags(
            inner.l0_convex,
            inner.l0_absorbent and at_origin,
            inner.l0_balanced and at_origin,
        )
    if isinstance(s, sets.Intersect):
        inner = [structural_flags(m) for m in s.members]
        convex = all(f.l0_convex for f in inner)
        balanced = all(f.l0_balanced for f in inner)
        absorbent = balanced and all(f.l0_absorbent for f in inner)
        return StructuralFlags(convex, absorbent, balanced)
    raise TypeError(f"not a set descriptor: {s!r}")


# -- sampled confirmation of the structural flags ---------------------------


def confirm_structural_flags(
    s: sets.SetDescriptor, samples: int, seed: int
) -> sampling.Tally:
    """Randomized confirmation of the positive structural flags: the
    checks `convex`, `balanced` and `absorbent`, each only where
    `structural_flags` claims it, with the points each one drew."""
    rng = sampling.make_rng(seed)
    flags = structural_flags(s)

    def draw():
        checks, example = {}, {}
        if flags.l0_convex:
            x1, x2 = sampling.sample_member(s, rng), sampling.sample_member(s, rng)
            t = random_ecrv(rng, draw=sampling._unit_ratio)  # values in [0, 1]
            checks["convex"] = sets.contains(s, t * x1 + (l0.ONE - t) * x2)
            example["convex"] = (x1, x2, t)
        if flags.l0_balanced:
            x = sampling.sample_member(s, rng)
            factor = random_ecrv(rng, draw=_balanced_ratio)
            checks["balanced"] = sets.contains(s, factor * x)
            example["balanced"] = (x, factor)
        if flags.l0_absorbent:
            x = sampling.random_ecrv(rng)
            checks["absorbent"] = _absorbs(s, x)
            example["absorbent"] = x
        return checks, example

    return sampling.tally(samples, draw)


def _balanced_ratio(rng) -> tuple[int, int]:
    """A ratio p/q in [-1, 1]: a balancing multiplier's value."""
    p, q = sampling._unit_ratio(rng)
    return p * _sign(rng), q


def _absorbs(s: sets.SetDescriptor, x: l0.EcRv) -> bool:
    """Is x in xi*S for the closed-form certificate witness xi?"""
    witness = _not_induced._certificate_witness(s, x)
    return sets.contains(sets.Scale(witness, s), x)


def random_positive_fraction(rng) -> Fraction:
    """`Fraction(randint(1, BOUND), randint(1, BOUND))`."""
    return Fraction(*_positive_ratio(rng))
