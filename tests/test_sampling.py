"""The samplers' integer draws follow the streams of `random.Random`'s
`randint`, `sample` and `choice` exactly, and the elements built from them
are those of Fraction-based references on the stdlib draws."""

import random
from fractions import Fraction

import pytest

from l0convex import concatenation, sampling
from l0convex._common import UsageError
from l0convex.concatenation import Diagonal
from l0convex.l0 import ONE, EcRv, classify, reciprocal
from l0convex.measure import EventSet, SingletonTail
from l0convex.sampling import ATOM_SPAN, BOUND, MAX_OVERRIDES, _randint
from l0convex.seminorms import Localized, Weighted
from l0convex.sets import (
    Ball,
    Intersect,
    MPlusBall,
    Scale,
    Translate,
    contains,
    gauge_closed_form,
    sample_member,
)

# every bound pair a sampler draws from; (0, d) for the unit ratio's d
BOUNDS = [(-BOUND, BOUND), (1, BOUND), (0, MAX_OVERRIDES), (1, 3), (0, 0), (5, 6)]
BOUNDS += [(0, d) for d in (1, 2, 3, 7, 8, 255, 256, 257, 4097, BOUND - 1, BOUND)]


@pytest.mark.parametrize("a, b", BOUNDS)
def test_draws_match_randint_and_leave_the_same_state(a, b):
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert _randint(ours, a, b) == theirs.randint(a, b)
            assert ours.getstate() == theirs.getstate()


def test_interleaved_unit_ratio_stream():
    """The unit ratio draws its numerator bound from the previous draw."""
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(4):
            d = theirs.randint(1, BOUND)
            assert sampling._unit_ratio(ours) == (theirs.randint(0, d), d)
            assert ours.getstate() == theirs.getstate()


def test_empty_range_raises_instead_of_looping():
    for a, b in ((1, 0), (0, -5)):
        with pytest.raises(ValueError, match="empty range"):
            _randint(random.Random(0), a, b)


# -- the fixed-bound draws, against the `random.Random` methods they reproduce


def _same_stream(ours, theirs, seeds=range(200), draws=5):
    for seed in seeds:
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            assert ours(a) == theirs(b)
            assert a.getstate() == b.getstate()


def test_ratio_draws_match_randint():
    _same_stream(sampling._ratio, lambda r: (r.randint(-BOUND, BOUND), r.randint(1, BOUND)))
    _same_stream(sampling._positive_ratio, lambda r: (r.randint(1, BOUND), r.randint(1, BOUND)))


def test_sign_matches_choice():
    _same_stream(sampling._sign, lambda r: r.choice((-1, 1)), draws=20)


def test_atoms_match_sample():
    def theirs(r):
        return r.sample(range(1, ATOM_SPAN + 1), r.randint(0, MAX_OVERRIDES))

    _same_stream(sampling._random_atoms, theirs, seeds=range(400))


# -- today's elements, against Fraction-based references on the stdlib draws


def reference_random_ecrv(rng):
    atoms = rng.sample(range(1, ATOM_SPAN + 1), rng.randint(0, MAX_OVERRIDES))
    over = {j: Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND)) for j in atoms}
    return EcRv(over, Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND)))


def reference_unit_fraction(rng):
    d = rng.randint(1, BOUND)
    return Fraction(rng.randint(0, d), d)


def reference_sample_member(s, rng):
    """`sets.sample_member` on Fractions, `randint`, `sample` and `choice`."""
    if isinstance(s, Ball):
        x = reference_random_ecrv(rng)
        g = gauge_closed_form(s, x)
        if rng.random() < 0.25 and classify(g).in_L0_plusplus:
            return x * reciprocal(g)
        return reference_unit_fraction(rng) * x * reciprocal(ONE + g)
    if isinstance(s, MPlusBall):
        x = reference_random_ecrv(rng)
        rho = reference_unit_fraction(rng) * rng.choice((-1, 1))
        return EcRv(x.overrides, rho * s.radius.tail)
    if isinstance(s, Scale):
        return s.factor * reference_sample_member(s.inner, rng)
    if isinstance(s, Translate):
        return s.offset + reference_sample_member(s.inner, rng)
    candidate = reference_sample_member(s.members[0], rng)
    while not contains(s, candidate):
        candidate = candidate * Fraction(1, 2)
    return candidate


def test_random_ecrv_matches_the_reference():
    _same_stream(sampling.random_ecrv, reference_random_ecrv, seeds=range(300))


def _sets(rng):
    radius = sampling.random_positive_ecrv(rng)
    ball = Ball((sampling.random_seminorm(rng), Weighted(ONE)), radius)
    m_plus = MPlusBall(radius)
    factor = sampling.random_positive_ecrv(rng)
    return {
        "m_plus_ball": m_plus,
        "ball": ball,
        "scale_m_plus_ball": Scale(factor, m_plus),
        "scale_ball": Scale(factor, ball),
        "translate": Translate(sampling.random_ecrv(rng), m_plus),
        "intersect": Intersect((m_plus, ball)),
        "intersect_balls": Intersect((ball, Ball((Weighted(factor),), ONE))),
    }


@pytest.mark.parametrize("shape", list(_sets(random.Random(0))))
def test_sample_member_matches_the_reference(shape):
    for seed in range(200):
        s = _sets(random.Random(seed))[shape]
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sample_member(s, ours) == reference_sample_member(s, theirs)
            assert ours.getstate() == theirs.getstate()


# -- the gluing pieces on a singleton-tail partition with prefix cells


def _pieces_by_sequence_element(s, seq, part):
    explicit = part.prefix_count + concatenation._HORIZON
    return all(
        contains(s, concatenation.sequence_element(seq, part, n))
        for n in range(1, explicit + 1)
    ) and concatenation._late_pieces_in_set(
        s, seq.value, part.tail_start + concatenation._HORIZON
    )


def test_pieces_agree_with_sequence_element():
    part = SingletonTail((EventSet.finite({1, 3}), EventSet.finite({2, 4, 5})), 6)
    sets = [
        Ball((Weighted(ONE),), EcRv({2: 5}, 2)),
        Ball((Localized(EventSet.finite({1, 2, 3, 4, 5})),), ONE),
        MPlusBall(ONE),
        Translate(EcRv.constant(Fraction(1, 2)), MPlusBall(ONE)),
        Translate(EcRv({7: 9}, 0), MPlusBall(ONE)),
    ]
    values = [
        EcRv({}, 1),  # every piece inside the balls
        EcRv({3: 4}, 1),  # a failing prefix piece
        EcRv({4: 4}, 1),  # inside only where the radius is 5
        EcRv({10: 3}, 1),  # a failing single-atom piece within the horizon
        EcRv({60: 3}, 1),  # a failing piece past the horizon only
        EcRv({7: 9, 8: 1}, 0),
        EcRv({}, 3),
    ]
    outcomes = set()
    for s in sets:
        for value in values:
            seq = Diagonal(value)
            expected = _pieces_by_sequence_element(s, seq, part)
            assert concatenation._elements_in_set(s, seq, part) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


# -- seeds


def test_negative_seed_is_a_usage_error():
    assert sampling.make_rng(0).getstate() == random.Random(0).getstate()
    with pytest.raises(UsageError, match="seed must be at least 0, got -5"):
        sampling.make_rng(-5)
