from fractions import Fraction

import pytest
from hypothesis import given, settings

from l0convex import (
    Ball,
    Diagonal,
    EcRv,
    EventSet,
    EventuallyConstantSeq,
    FinitePartition,
    GaugeNotBelowOne,
    Intersect,
    Localized,
    MPlusBall,
    Scale,
    SingletonTail,
    Weighted,
    ZERO,
    ONE,
    cc_failure_witness,
    contains,
    glue,
    glue_identity_holds,
    indicator_mul,
    relative_cc_check,
    reverse_partition_construct,
)
from l0convex import sampling
from l0convex.concatenation import _late_pieces_in_set, sequence_element

from conftest import ecrvs

SPLIT_AT_1 = FinitePartition((EventSet.finite({1}), EventSet.cofinite_excluding({1})))
PURE_SINGLETONS = SingletonTail((), 1)


def seq_of(*prefix, tail):
    return EventuallyConstantSeq(tuple(prefix), tail)


class TestGlue:
    def test_two_cell_example(self):
        result = glue(seq_of(EcRv.constant(3), tail=EcRv.constant(5)), SPLIT_AT_1)
        assert result == EcRv({1: 3}, 5)

    def test_constant_sequence_glues_to_itself(self):
        x = EcRv({2: -1}, Fraction(7, 3))
        for part in (SPLIT_AT_1, PURE_SINGLETONS, SingletonTail((EventSet.finite({1, 2}),), 3)):
            assert glue(seq_of(tail=x), part) == x

    def test_diagonal_glues_to_its_value(self):
        c = EcRv.constant(2)
        result = glue(Diagonal(c), PURE_SINGLETONS)
        assert result == c
        for n in range(1, 20):
            cell = PURE_SINGLETONS.cell(n)
            assert indicator_mul(cell, c) == indicator_mul(
                cell, indicator_mul(cell, c)
            )

    def test_diagonal_pieces_match_the_cell_indicator(self):
        """Tail pieces are built without their cell; every piece equals the
        value cut down to the n-th cell, on prefix cells and tail cells."""
        rng = sampling.make_rng(47)
        parts = (
            PURE_SINGLETONS,
            SingletonTail((EventSet.finite({1, 3}), EventSet.finite({2})), 4),
            SingletonTail((EventSet.finite({1}),), 2),
        )
        for i in range(60):
            draw = sampling.random_ecrv if i % 4 else sampling.random_finite_support_ecrv
            value = draw(rng)
            seq = Diagonal(value)
            for part in parts:
                for n in range(1, 25):
                    piece = sequence_element(seq, part, n)
                    assert piece == indicator_mul(part.cell(n), value)
                    assert piece.tail == 0

    def test_diagonal_glues_to_its_value_on_a_finite_partition(self):
        v = EcRv({1: 1, 3: Fraction(-2, 3)}, Fraction(1, 2))
        seq = Diagonal(v)
        x = glue(seq, SPLIT_AT_1)
        assert x == v
        assert glue_identity_holds(seq, SPLIT_AT_1, x)

    def test_singleton_tail_with_prefix_elements(self):
        part = SingletonTail((EventSet.finite({1, 2}),), 3)
        seq = seq_of(
            EcRv.constant(9),            # on {1, 2}
            EcRv.constant(-1),           # on {3}
            EcRv({4: 8}, 0),             # on {4}
            tail=EcRv({1: 77, 6: 5}, 2),  # on {5}, {6}, ... (override at 1 is masked)
        )
        result = glue(seq, part)
        assert result == EcRv({1: 9, 2: 9, 3: -1, 4: 8, 6: 5}, 2)
        assert glue_identity_holds(seq, part, result)

    def test_cellwise_oracle(self):
        rng = sampling.make_rng(43)
        for _ in range(100):
            part = SingletonTail((EventSet.finite({1, 3}), EventSet.finite({2})), 4)
            seq = seq_of(
                sampling.random_ecrv(rng),
                sampling.random_ecrv(rng),
                sampling.random_ecrv(rng),
                tail=sampling.random_ecrv(rng),
            )
            x = glue(seq, part)
            # independent route: locate the cell of each atom, read the element
            for j in range(1, 41):
                n = next(
                    k for k in range(1, 40) if j in part.cell(k)
                )
                expected = seq.element(n).value_at(j)
                assert x.value_at(j) == expected

    @given(ecrvs, ecrvs)
    def test_glue_uniqueness_on_fragment(self, a, b):
        # two glues agreeing on every cell are equal outright
        seq = seq_of(a, tail=b)
        x = glue(seq, SPLIT_AT_1)
        assert glue_identity_holds(seq, SPLIT_AT_1, x)
        for candidate in (x + ONE, x - ONE):  # differs from x at every atom
            assert not glue_identity_holds(seq, SPLIT_AT_1, candidate)


class TestRelativeCc:
    def test_ball_closed_under_finite_gluing(self):
        rng = sampling.make_rng(47)
        ball = Ball((Weighted(ONE),), ONE)
        from l0convex import sample_member

        for _ in range(100):
            seq = seq_of(sample_member(ball, rng), tail=sample_member(ball, rng))
            report = relative_cc_check(ball, SPLIT_AT_1, [seq])
            (entry,) = report.entries
            assert entry.precondition_ok
            assert entry.glue_in_set
            assert entry.seminorm_identity_ok
            assert report.closure_holds

    def test_m_plus_ball_fails_closure(self):
        report = relative_cc_check(
            MPlusBall(ONE), PURE_SINGLETONS, [Diagonal(EcRv.constant(2))]
        )
        (entry,) = report.entries
        assert entry.precondition_ok  # every piece sits inside
        assert entry.glue == EcRv.constant(2)
        assert entry.glue_in_set is False
        assert not report.closure_holds

    def test_constant_sequences_trivially_close(self):
        ball = Ball((Weighted(ONE),), ONE)
        member = EcRv.constant(Fraction(1, 2))
        report = relative_cc_check(ball, SPLIT_AT_1, [seq_of(tail=member)])
        assert report.entries[0].glue == member
        assert report.closure_holds

    def test_precondition_violations_reported_separately(self):
        ball = Ball((Weighted(ONE),), ONE)
        outsider = EcRv.constant(5)
        report = relative_cc_check(ball, SPLIT_AT_1, [seq_of(outsider, tail=ZERO)])
        (entry,) = report.entries
        assert not entry.precondition_ok
        assert not entry.counterexample  # not a closure failure

    def test_seminorm_identity_exact_on_singleton_tails(self):
        ball = Ball((Localized(EventSet.cofinite_excluding({1})),), EcRv.constant(4))
        seq = seq_of(EcRv.constant(3), tail=EcRv({2: 1}, 2))
        report = relative_cc_check(ball, PURE_SINGLETONS, [seq])
        assert report.entries[0].seminorm_identity_ok


class TestLatePieces:
    """The symbolic check for atoms from 33 on agrees with explicit
    membership of the single-atom pieces on atoms 33..80."""

    BALL = Ball((Weighted(ONE),), EcRv({40: Fraction(1, 4)}, 1))

    def explicit(self, s, value):
        return all(
            contains(s, indicator_mul(EventSet.finite({j}), value)) for j in range(33, 81)
        )

    @pytest.mark.parametrize(
        "s",
        [
            Scale(EcRv.constant(2), BALL),
            Scale(EcRv({50: Fraction(1, 8)}, 3), BALL),
            Intersect((BALL, MPlusBall(ONE))),
            Intersect((BALL, Scale(EcRv.constant(Fraction(1, 2)), BALL))),
        ],
        ids=["scale", "scale-pointwise", "intersect-m-plus-ball", "intersect-scaled"],
    )
    def test_symbolic_matches_explicit(self, s):
        rng = sampling.make_rng(59)
        values = [
            EcRv.constant(Fraction(1, 2)),
            EcRv({45: 3}, Fraction(1, 3)),
            EcRv({60: 1}, 1),
            EcRv.constant(4),
        ] + [sampling.random_ecrv(rng) for _ in range(20)]
        outcomes = set()
        for value in values:
            symbolic = _late_pieces_in_set(s, value, 33)
            assert symbolic == self.explicit(s, value)
            outcomes.add(symbolic)
        assert outcomes == {True, False}


class TestCcFailureWitness:
    def test_unit_radius(self):
        witness = cc_failure_witness(ONE)
        assert witness.glue == EcRv.constant(2)
        assert witness.valid
        assert not contains(MPlusBall(ONE), witness.glue)

    def test_pointwise_radius(self):
        witness = cc_failure_witness(EcRv({1: 4}, 1))
        assert witness.glue == EcRv({1: 8}, 2)
        assert witness.valid

    def test_pieces_have_finite_support(self):
        witness = cc_failure_witness(ONE)
        for n in range(1, 33):
            piece = indicator_mul(witness.partition.cell(n), witness.sequence.value)
            assert piece.tail == 0
            assert contains(MPlusBall(ONE), piece)

    def test_validates_on_random_radii(self):
        rng = sampling.make_rng(53)
        for _ in range(100):
            assert cc_failure_witness(sampling.random_positive_ecrv(rng)).valid


class TestReverseConstruction:
    def test_m_plus_ball_singleton_truncations(self):
        result = reverse_partition_construct(MPlusBall(ONE), EcRv.constant(7))
        assert isinstance(result.partition, SingletonTail)
        assert result.partition.cell(5) == EventSet.finite({5})
        assert result.pieces_in_set
        assert result.glue_is_point
        assert result.passed

    def test_ball_with_small_gauge_uses_trivial_partition(self):
        ball = Ball((Weighted(ONE),), ONE)
        result = reverse_partition_construct(ball, EcRv.constant(Fraction(1, 2)))
        assert isinstance(result.partition, FinitePartition)
        assert result.partition.cells == (EventSet.full(),)
        assert result.passed

    def test_gauge_not_below_one(self):
        ball = Ball((Weighted(ONE),), ONE)
        with pytest.raises(GaugeNotBelowOne):
            reverse_partition_construct(ball, EcRv.constant(2))

    def test_boundary_gauge_rejected(self):
        ball = Ball((Weighted(ONE),), ONE)
        with pytest.raises(GaugeNotBelowOne):
            reverse_partition_construct(ball, EcRv({1: 1}, Fraction(1, 2)))

    @settings(max_examples=50)
    @given(ecrvs)
    def test_m_plus_ball_accepts_everything(self, x):
        # the degenerate gauge is zero, so the construction never refuses
        result = reverse_partition_construct(MPlusBall(ONE), x)
        assert result.passed
