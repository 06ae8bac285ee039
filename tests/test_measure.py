import random
from fractions import Fraction

import pytest
from hypothesis import given

from l0convex import (
    CANONICAL,
    DiscreteSpace,
    EventSet,
    FinitePartition,
    MalformedPrefix,
    SingletonTail,
    build_countable_partition,
)

from conftest import events, prob_by_summation


class TestEventSet:
    def test_complement_is_involution(self):
        e = EventSet.finite({1, 3})
        assert e.complement().cofinite
        assert e.complement().complement() == e

    def test_membership(self):
        e = EventSet.cofinite_excluding({2})
        assert 1 in e and 2 not in e and 10**6 in e

    @given(events, events)
    def test_de_morgan(self, a, b):
        assert (a | b).complement() == a.complement() & b.complement()
        assert (a & b).complement() == a.complement() | b.complement()

    @given(events, events, events)
    def test_closed_under_boolean_ops(self, a, b, c):
        for e in (a | b, a & b, a - b, (a | b) & c):
            assert isinstance(e, EventSet)
        assert (a | b) | c == a | (b | c)
        assert (a & b) & c == a & (b & c)

    @given(events, events)
    def test_difference_and_subset(self, a, b):
        assert (a - b).isdisjoint(b)
        assert (a & b).issubset(a)


class TestProbability:
    def test_finite_sum(self):
        assert CANONICAL.probability(EventSet.finite({1, 3})) == Fraction(5, 8)

    def test_total_mass(self):
        assert CANONICAL.probability(EventSet.full()) == 1

    def test_complement_rule(self):
        omega_minus_12 = EventSet.cofinite_excluding({1, 2})
        assert CANONICAL.probability(omega_minus_12) == Fraction(1, 4)

    def test_additivity_on_random_pairs(self):
        rng = random.Random(1009)
        for _ in range(1000):
            a = EventSet(rng.sample(range(1, 33), rng.randint(0, 6)), rng.random() < 0.5)
            b_raw = EventSet(rng.sample(range(1, 33), rng.randint(0, 6)), rng.random() < 0.5)
            b = b_raw - a
            assert CANONICAL.probability(a | b) == CANONICAL.probability(
                a
            ) + CANONICAL.probability(b)

    @given(events)
    def test_complement_sums_to_one(self, e):
        assert CANONICAL.probability(e) + CANONICAL.probability(e.complement()) == 1

    @given(events)
    def test_matches_summation_oracle(self, e):
        assert CANONICAL.probability(e) == prob_by_summation(CANONICAL, e)

    def test_explicit_prefix_space(self):
        space = DiscreteSpace({1: Fraction(1, 3)}, Fraction(4, 3))
        assert space.probability(EventSet.full()) == 1
        assert space.atom_mass(1) == Fraction(1, 3)
        assert space.atom_mass(2) == Fraction(4, 3) * Fraction(1, 4)

    def test_bad_total_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteSpace({1: Fraction(1, 2)}, 2)

    def test_space_is_immutable_and_hashable(self):
        with pytest.raises(AttributeError):
            CANONICAL.tail_coefficient = 2
        with pytest.raises(TypeError):
            CANONICAL.explicit[1] = Fraction(1, 3)
        assert CANONICAL.probability(EventSet.finite({1})) == Fraction(1, 2)
        space = DiscreteSpace({1: Fraction(1, 3)}, Fraction(4, 3))
        assert hash(space) == hash(DiscreteSpace({1: "1/3"}, "4/3"))
        assert hash(CANONICAL) == hash(DiscreteSpace.canonical())
        assert {space, CANONICAL} == {DiscreteSpace.canonical(), space}


class TestPartitions:
    def test_finite_partition_validation(self):
        FinitePartition((EventSet.finite({1}), EventSet.cofinite_excluding({1})))
        with pytest.raises(ValueError):
            FinitePartition((EventSet.finite({1}),))  # does not cover
        with pytest.raises(ValueError):
            FinitePartition(
                (EventSet.finite({1}), EventSet.cofinite_excluding(set()))
            )  # overlap

    def test_singleton_tail_cells(self):
        part = SingletonTail((EventSet.finite({1, 2}),), 3)
        assert part.cell(1) == EventSet.finite({1, 2})
        assert part.cell(2) == EventSet.finite({3})
        assert part.cell(5) == EventSet.finite({6})

    def test_halving_masses_exact(self):
        part = build_countable_partition(
            CANONICAL, (EventSet.finite({1}), EventSet.finite({2})), 3
        )
        remainder = CANONICAL.probability(EventSet.cofinite_excluding({1, 2}))
        assert remainder == Fraction(1, 4)
        for n in range(1, 21):
            cell = part.cell(2 + n)
            assert cell == EventSet.finite({n + 2})
            assert CANONICAL.probability(cell) == remainder / 2**n

    def test_pure_singleton_partition(self):
        part = build_countable_partition(CANONICAL, (), 1)
        for n in range(1, 21):
            assert CANONICAL.probability(part.cell(n)) == Fraction(1, 2**n)

    def test_two_cell_prefix_masses(self):
        part = build_countable_partition(CANONICAL, (EventSet.finite({1, 2}),), 3)
        # disjointness and truncated mass accounting at any horizon
        horizon_cells = [part.cell(n) for n in range(1, 12)]
        for i, a in enumerate(horizon_cells):
            for b in horizon_cells[i + 1 :]:
                assert a.isdisjoint(b)
        covered = sum(
            (CANONICAL.probability(c) for c in horizon_cells), Fraction(0)
        )
        assert covered + CANONICAL.mass_from(13) == 1

    def test_all_cells_positive_mass(self):
        part = build_countable_partition(CANONICAL, (EventSet.finite({1}),), 2)
        assert all(
            CANONICAL.probability(part.cell(n)) > 0 for n in range(1, 40)
        )

    def test_malformed_prefix(self):
        with pytest.raises(MalformedPrefix):
            build_countable_partition(CANONICAL, (EventSet.finite({1}),), 3)  # gap at 2
        with pytest.raises(MalformedPrefix):
            build_countable_partition(
                CANONICAL, (EventSet.finite({1, 2}), EventSet.finite({2})), 3
            )

    def test_space_must_be_dyadic_beyond_tail(self):
        space = DiscreteSpace({1: Fraction(1, 3)}, Fraction(4, 3))
        with pytest.raises(ValueError):
            build_countable_partition(space, (), 1)
