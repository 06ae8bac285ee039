import copy
import pickle
import random
import tracemalloc
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
from l0convex._common import UsageError
from l0convex.measure import OMEGA

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

    @pytest.mark.parametrize(
        "event",
        [OMEGA, EventSet.empty(), EventSet.finite({1, 3}), EventSet.cofinite_excluding({2})],
        ids=["OMEGA", "empty", "finite", "cofinite"],
    )
    def test_attributes_reject_assignment_and_deletion(self, event):
        before, hashed = repr(event), hash(event)
        for name, value in (("cofinite", False), ("atoms", frozenset({7})), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(event, name, value)
            with pytest.raises(AttributeError):
                delattr(event, name)
        assert repr(event) == before and hash(event) == hashed
        assert OMEGA == EventSet.full() and CANONICAL.probability(OMEGA) == 1

    def test_copies_rebuild_through_the_constructor(self):
        event = EventSet.cofinite_excluding({2, 5})
        for copied in (copy.copy(event), copy.deepcopy(event), pickle.loads(pickle.dumps(event))):
            assert copied == event and hash(copied) == hash(event)
            with pytest.raises(AttributeError):
                copied.cofinite = False

    def test_a_frozen_record_that_checks_its_atoms(self):
        event = EventSet(iter([3, 1, 3]))
        assert event.atoms == frozenset({1, 3}) and event.cofinite is False
        assert EventSet(cofinite=1) == OMEGA and EventSet(cofinite=1).cofinite is True
        assert repr(EventSet.finite({1, 3})) == "{1,3}" and repr(OMEGA) == "~{}"
        with pytest.raises(AttributeError, match="cannot assign to field 'atoms'"):
            event.atoms = frozenset()
        for bad in (0, -2, True, 1.0):
            with pytest.raises(UsageError, match="atom index must be a positive integer"):
                EventSet([1, bad])


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
        views = [*space.explicit.values(), space.tail_coefficient, space.atom_mass(2)]
        views += [space.mass_from(2), space.probability(EventSet.finite({1, 2}))]
        assert all(type(v) is Fraction for v in views)  # the public views stay Fractions

    def test_bad_total_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteSpace({1: Fraction(1, 2)}, 2)

    @pytest.mark.parametrize("atom", [1.7, "1", True, 1.0])
    def test_an_atom_that_is_no_integer_is_refused(self, atom):
        """Each of these keys was read as atom 1 through `int`."""
        with pytest.raises(UsageError):
            DiscreteSpace({atom: Fraction(1, 2)}, 1)
        assert DiscreteSpace({1: Fraction(1, 2)}, 1).atom_mass(1) == Fraction(1, 2)

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
        with pytest.raises(AttributeError, match="cannot delete 'x'"):
            del space.x

    def test_space_copies_rebuild_through_the_constructor(self):
        space = DiscreteSpace({1: Fraction(1, 3)}, Fraction(4, 3))
        for copied in (copy.copy(space), copy.deepcopy(space), pickle.loads(pickle.dumps(space))):
            assert copied == space and hash(copied) == hash(space)
            assert copied.explicit == {1: Fraction(1, 3)}
            with pytest.raises(AttributeError):
                copied.tail_coefficient = 1

    def test_space_repr(self):
        space = DiscreteSpace({1: Fraction(1, 3)}, Fraction(4, 3))
        assert repr(space) == "DiscreteSpace({1: Fraction(1, 3)}, Fraction(4, 3))"
        assert repr(CANONICAL) == "DiscreteSpace({}, Fraction(1, 1))"

    def test_tail_mass_only_beyond_the_explicit_prefix(self):
        space = DiscreteSpace({1: Fraction(1, 3), 2: Fraction(1, 3)}, Fraction(4, 3))
        assert space.mass_from(3) == Fraction(1, 3)
        for j in (1, 2):
            with pytest.raises(UsageError, match="beyond the explicit prefix"):
                space.mass_from(j)


class TestPartitions:
    def test_finite_partition_validation(self):
        FinitePartition((EventSet.finite({1}), EventSet.cofinite_excluding({1})))
        with pytest.raises(ValueError):
            FinitePartition((EventSet.finite({1}),))  # does not cover
        with pytest.raises(ValueError):
            FinitePartition(
                (EventSet.finite({1}), EventSet.cofinite_excluding(set()))
            )  # overlap
        with pytest.raises(UsageError, match="at least one cell"):
            FinitePartition(())
        with pytest.raises(UsageError, match="cells must be nonempty"):
            FinitePartition((EventSet.empty(), EventSet.full()))

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

    def test_malformed_prefix_messages(self):
        cases = [
            ((EventSet.finite({1}),), 3, "prefix cells must partition atoms 1..2"),
            ((EventSet.finite({1, 3}),), 3, "prefix cells must partition atoms 1..2"),
            ((EventSet.finite({1}), EventSet.finite({2})), 2, "must partition atoms 1..1"),
            ((), 4, "prefix cells must partition atoms 1..3"),
            ((EventSet.finite({1, 2}), EventSet.finite({2})), 3, "prefix cells overlap"),
            ((EventSet.empty(),), 1, "prefix cells must be nonempty"),
            ((EventSet.full(),), 1, "prefix cells must be finite"),
        ]
        for cells, tail_start, message in cases:
            with pytest.raises(MalformedPrefix, match=message):
                SingletonTail(cells, tail_start)
        assert SingletonTail((EventSet.finite({2}), EventSet.finite({1, 3})), 4).prefix_count == 2
        assert SingletonTail((), 1).prefix_count == 0

    def test_malformed_prefix_is_rejected_without_listing_the_gap(self):
        tracemalloc.start()
        try:
            with pytest.raises(MalformedPrefix, match=r"1\.\.999999"):
                SingletonTail((), 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_space_must_be_dyadic_beyond_tail(self):
        space = DiscreteSpace({1: Fraction(1, 3)}, Fraction(4, 3))
        with pytest.raises(ValueError):
            build_countable_partition(space, (), 1)
