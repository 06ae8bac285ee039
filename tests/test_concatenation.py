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
    FiniteSup,
    GaugeNotBelowOne,
    Intersect,
    Localized,
    MPlusBall,
    Scale,
    SingletonTail,
    Translate,
    Weighted,
    ZERO,
    Zero,
    ONE,
    cc_failure_witness,
    contains,
    evaluate,
    glue,
    glue_identity_holds,
    indicator_mul,
    relative_cc_check,
    reverse_partition_construct,
)
from l0convex import concatenation, sampling
from l0convex.concatenation import _late_pieces_in_set, sequence_element

import reference
from conftest import ecrvs, random_event, random_nonnegative_ecrv, random_seminorm

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
        """Every piece equals the value cut down to the n-th cell, on
        prefix cells and tail cells."""
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


LEAVES = ("ball", "m_plus_ball")
COMPOSITES = ("scale", "translate", "intersect")
SIGNED = (-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2)
POSITIVE = (Fraction(1, 2), 1, 2)


def coarse(rng, values=SIGNED):
    """An element with up to three overrides in 1..16 and every value among
    a few small ones: the named atoms stay few, and late pieces often sit
    on a ball's boundary."""
    atoms = rng.sample(range(1, 17), rng.randint(0, 3))
    return EcRv({j: rng.choice(values) for j in atoms}, rng.choice(values))


def coarse_seminorm(rng, sup=True):
    kind = rng.choice(("weighted", "localized", "sup") if sup else ("weighted", "localized"))
    if kind == "weighted":
        return Weighted(coarse(rng, (0,) + POSITIVE))
    if kind == "localized":
        atoms = frozenset(rng.sample(range(1, 17), rng.randint(0, 2)))
        event = EventSet.finite(atoms) if rng.random() < 0.5 else EventSet.cofinite_excluding(atoms)
        return Localized(event)
    return FiniteSup((coarse_seminorm(rng, False), coarse_seminorm(rng, False)))


def random_set(rng, kind, depth):
    """A random descriptor of the given outer shape, with composites nested
    `depth` levels at most; every atom it names lies in 1..16."""
    if kind == "ball":
        return Ball((coarse_seminorm(rng),), coarse(rng, POSITIVE))
    if kind == "m_plus_ball":
        return MPlusBall(coarse(rng, POSITIVE))
    kinds = LEAVES + COMPOSITES if depth > 1 else LEAVES
    return composite(rng, kind, random_set(rng, rng.choice(kinds), depth - 1))


def composite(rng, kind, member):
    if kind == "scale":
        return Scale(coarse(rng, (-2, -1, 1, 2)), member)
    if kind == "translate":
        return Translate(coarse(rng), member)
    return Intersect((member, random_set(rng, rng.choice(LEAVES + COMPOSITES), 1)))


def explicit_late_pieces(s, value, start, last):
    return all(
        contains(s, indicator_mul(EventSet.finite({j}), value)) for j in range(start, last + 1)
    )


UNIT_BALL = Ball((Weighted(ONE),), ONE)
HALF = EcRv.constant(Fraction(1, 2))


class TestLatePiecesRule:
    """The named-atoms rule agrees with explicit membership of every
    late single-atom piece, on every shape and nesting."""

    # M + B holds every single-atom piece, so it shows up as a member only
    @pytest.mark.parametrize("outer", ("ball",) + COMPOSITES)
    def test_matches_explicit_membership(self, outer):
        rng = sampling.make_rng(61)
        outcomes, inner_kinds = set(), set()
        for i in range(250):
            if outer == "ball":
                s = random_set(rng, outer, 2)
            else:  # every shape in turn as the member
                inner = (LEAVES + COMPOSITES)[i % 5]
                s = composite(rng, outer, random_set(rng, inner, 1))
                inner_kinds.add(inner)
            value = coarse(rng)
            start = rng.randint(1, 17)
            # every named atom is at most 16, so atoms 17 and 18 are unnamed
            expected = explicit_late_pieces(s, value, start, 18)
            assert _late_pieces_in_set(s, value, start) == expected, (s, value, start)
            outcomes.add(expected)
        assert outcomes == {True, False}
        if outer in COMPOSITES:
            assert inner_kinds == set(LEAVES + COMPOSITES)

    def test_m_plus_ball_matches_the_deciding_atoms(self, monkeypatch):
        """On M + B every late piece has tail 0, so zero decides them all,
        with no piece built."""
        rng = sampling.make_rng(67)
        cases = []
        for _ in range(2000):
            s = MPlusBall(sampling.random_positive_ecrv(rng))
            cases.append((s, sampling.random_ecrv(rng), rng.randint(1, 20)))
        expected = [reference.late_pieces_in_set(*case) for case in cases]

        def no_piece(*args):
            raise AssertionError("a piece was built")

        monkeypatch.setattr(concatenation, "_single_atom", no_piece)
        assert [_late_pieces_in_set(*case) for case in cases] == expected

    @pytest.mark.parametrize(
        "s, value, expected",
        [
            # no atom is named: the one unnamed atom decides
            (UNIT_BALL, EcRv.constant(2), False),
            (UNIT_BALL, ONE, True),
            # only the offset names atom 50, and only the piece there leaves
            (Translate(EcRv({50: -1}, 0), UNIT_BALL), HALF, False),
            (Translate(EcRv({50: 1}, 0), UNIT_BALL), HALF, True),
            (Translate(EcRv({50: -2}, 0), Scale(EcRv.constant(2), UNIT_BALL)), HALF, False),
            (Translate(EcRv({50: -1}, 0), Intersect((UNIT_BALL, MPlusBall(ONE)))), HALF, False),
            # every piece minus the offset is -1/2 off its own atom
            (
                Translate(
                    EcRv({50: 0}, Fraction(1, 2)),
                    Ball((Weighted(ONE),), EcRv({50: 1}, Fraction(1, 4))),
                ),
                HALF,
                False,
            ),
        ],
        ids=[
            "unnamed-out", "unnamed-in", "offset-atom-out", "offset-atom-in",
            "offset-atom-scale", "offset-atom-intersect", "offset-tail-out",
        ],
    )
    def test_named_and_unnamed_atoms(self, s, value, expected):
        assert explicit_late_pieces(s, value, 33, 60) == expected
        assert _late_pieces_in_set(s, value, 33) == expected

    @pytest.mark.parametrize(
        "value, inside", [(HALF, True), (EcRv({40: 3}, Fraction(1, 2)), False)]
    )
    def test_golden_translated_ball(self, value, inside):
        """The `check cc` goldens on a translated ball: the precondition is
        explicit membership of every single-atom piece."""
        s = Translate(EcRv({1: Fraction(1, 4)}, Fraction(1, 8)), UNIT_BALL)
        assert explicit_late_pieces(s, value, 1, 60) == inside
        (entry,) = relative_cc_check(s, PURE_SINGLETONS, [Diagonal(value)]).entries
        assert entry.precondition_ok == inside

    @pytest.mark.parametrize("far, expected", [(3, False), (1, True)])
    def test_far_override_takes_no_range_loop(self, monkeypatch, far, expected):
        s = Translate(EcRv({2: 1}, 0), Ball((Weighted(ONE),), EcRv({5: 2}, 1)))
        value = EcRv({10**6: far}, Fraction(1, 2))
        named = {2, 5, 10**6}
        pieces = []

        def counted(target, x):
            pieces.append(x)
            return contains(target, x)

        monkeypatch.setattr(concatenation, "contains", counted)
        assert _late_pieces_in_set(s, value, 1) == expected
        assert len(pieces) <= len(named) + 1
        # the piece at 10**6 decides; the one just past it is inside either way
        piece = indicator_mul(EventSet.finite({10**6}), value)
        assert contains(s, piece) == expected
        assert contains(s, indicator_mul(EventSet.finite({10**6 + 1}), value))


FAR = 10**6  # past every atom the cases below name: it carries the tails


def cell_index(part, j):
    """The n with atom j in the n-th cell, read off the partition's cells."""
    if isinstance(part, FinitePartition):
        return next(n for n, cell in enumerate(part.cells, start=1) if j in cell)
    return next(
        (n for n, cell in enumerate(part.prefix_cells, start=1) if j in cell),
        part.prefix_count + j - part.tail_start + 1,
    )


def reference_at(seq, part, j):
    """The glue's value at atom j: the value there of the element on j's cell."""
    if isinstance(seq, Diagonal):
        return seq.value.value_at(j)
    return seq.element(cell_index(part, j)).value_at(j)


def reference_piece(seq, part, j):
    """The diagonal's piece on the cell of atom j, built atom by atom."""
    n = cell_index(part, j)
    on_cell = [i for i in (*range(1, 41), FAR) if cell_index(part, i) == n]
    # two far atoms share a cell only if it is the cofinite one
    tail = seq.value.tail if cell_index(part, FAR + 1) == n else 0
    return EcRv({i: seq.value.value_at(i) for i in on_cell}, tail)


def random_cells(rng, atoms):
    atoms = list(atoms)
    rng.shuffle(atoms)
    cells = []
    while atoms:
        k = rng.randint(1, len(atoms))
        cells.append(EventSet.finite(atoms[:k]))
        atoms = atoms[k:]
    return cells


class TestCellWalk:
    """`glue`, `glue_identity_holds` and `_elements_in_set` agree with an
    atom-by-atom reference on atoms 1..40 and a far atom that carries the
    tails; every atom the cases name is at most 40."""

    def case(self, rng, i):
        if i % 3 == 0:
            cells = random_cells(rng, range(1, rng.randint(1, 10)))
            rest = EventSet.full()
            for cell in cells:
                rest = rest - cell
            cells.insert(rng.randint(0, len(cells)), rest)
            part = FinitePartition(tuple(cells))
            length = rng.randint(0, len(cells) + 2)
        else:
            tail_start = rng.randint(1, 8)
            part = SingletonTail(tuple(random_cells(rng, range(1, tail_start))), tail_start)
            # shorter than, equal to or longer than the prefix cells
            length = max(0, part.prefix_count + (i % 3 - 1) * rng.randint(1, 4))
        if i % 4 == 0:
            value = coarse(rng)
            if isinstance(part, SingletonTail):  # name the first late atom
                value = EcRv({**value.overrides, part.tail_start: rng.choice(SIGNED)}, value.tail)
            seq = Diagonal(value)
        else:
            seq = EventuallyConstantSeq(tuple(coarse(rng) for _ in range(length)), coarse(rng))
        return part, seq

    def test_matches_atom_by_atom_reference(self):
        rng = sampling.make_rng(67)
        identities, memberships, kinds = set(), set(), set()
        for i in range(400):
            part, seq = self.case(rng, i)
            kinds.add((type(part), type(seq)))
            atoms = (*range(1, 41), FAR)
            expected = EcRv(
                {j: reference_at(seq, part, j) for j in range(1, 41)},
                reference_at(seq, part, FAR),
            )
            assert glue(seq, part) == expected, (seq, part)
            x = expected
            if rng.random() < 0.5:  # off at one atom, or on the tail
                j = rng.choice((rng.randint(1, 20), FAR))
                x = EcRv({k: x.value_at(k) + (k == j) for k in range(1, 41)}, x.tail + (j == FAR))
            agrees = all(x.value_at(j) == expected.value_at(j) for j in atoms)
            assert glue_identity_holds(seq, part, x) == agrees, (seq, part, x)
            identities.add(agrees)
            s = random_set(rng, rng.choice(LEAVES + COMPOSITES), 2)
            if isinstance(seq, Diagonal):
                inside = all(contains(s, reference_piece(seq, part, j)) for j in atoms)
            else:  # the elements on the cells of these atoms, the tail's at FAR
                inside = all(contains(s, seq.element(cell_index(part, j))) for j in atoms)
            assert concatenation._elements_in_set(s, seq, part) == inside, (s, seq, part)
            memberships.add(inside)
        assert identities == memberships == {True, False}
        assert len(kinds) == 4

    def test_seminorm_identity_matches_atom_by_atom_reference(self):
        """Given a ball, `glue_identity_holds` compares p(x) with p of the
        element on each atom's cell, at every atom, for each seminorm p."""
        rng = sampling.make_rng(71)
        outcomes, kinds = set(), set()
        for i in range(400):
            part, seq = self.case(rng, i)
            kinds.add((type(part), type(seq)))
            ball = random_set(rng, "ball", 1)
            x = glue(seq, part)
            if rng.random() < 0.5:  # off at one atom, or on the tail
                j = rng.choice((rng.randint(1, 20), FAR))
                x = EcRv({k: x.value_at(k) + (k == j) for k in range(1, 41)}, x.tail + (j == FAR))

            def piece(j):
                if isinstance(seq, Diagonal):
                    return reference_piece(seq, part, j)
                return seq.element(cell_index(part, j))

            agrees = all(
                evaluate(p, x).value_at(j) == evaluate(p, piece(j)).value_at(j)
                for p in ball.seminorms
                for j in (*range(1, 41), FAR)
            )
            assert glue_identity_holds(seq, part, x, ball) == agrees, (seq, part, x, ball)
            outcomes.add(agrees)
        assert outcomes == {True, False}
        assert len(kinds) == 4


class TestCcFailureWitness:
    def test_unit_radius(self):
        entry = cc_failure_witness(MPlusBall(ONE), ONE)
        assert entry.glue == EcRv.constant(2)
        assert entry.counterexample
        assert not contains(MPlusBall(ONE), entry.glue)

    def test_pointwise_radius(self):
        entry = cc_failure_witness(MPlusBall(EcRv({1: 4}, 1)), EcRv({1: 4}, 1))
        assert entry.glue == EcRv({1: 8}, 2)
        assert entry.counterexample

    def test_pieces_have_finite_support(self):
        entry = cc_failure_witness(MPlusBall(ONE), ONE)
        assert entry.sequence == Diagonal(EcRv.constant(2))
        for n in range(1, 33):
            piece = sequence_element(entry.sequence, PURE_SINGLETONS, n)
            assert piece.tail == 0
            assert contains(MPlusBall(ONE), piece)

    def test_validates_on_random_radii(self):
        rng = sampling.make_rng(53)
        for _ in range(100):
            eps = sampling.random_positive_ecrv(rng)
            assert cc_failure_witness(MPlusBall(eps), eps).counterexample

    def test_is_the_relative_check_entry(self):
        eps = EcRv({2: 3}, Fraction(1, 2))
        (entry,) = relative_cc_check(MPlusBall(eps), PURE_SINGLETONS, (Diagonal(2 * eps),)).entries
        assert cc_failure_witness(MPlusBall(eps), eps) == entry


class TestReverseConstruction:
    def test_m_plus_ball_singleton_truncations(self):
        x = EcRv.constant(7)
        entry = reverse_partition_construct(MPlusBall(ONE), x)
        assert entry.sequence == Diagonal(x)
        assert sequence_element(entry.sequence, PURE_SINGLETONS, 5) == EcRv({5: 7}, 0)
        assert entry.precondition_ok
        assert entry.glue == x
        assert not entry.glue_in_set  # |tail(x)| = 7 > 1
        assert entry.seminorm_identity_ok is None

    def test_ball_with_small_gauge_uses_singleton_cut(self):
        ball = Ball((Weighted(ONE),), ONE)
        x = EcRv.constant(Fraction(1, 2))
        entry = reverse_partition_construct(ball, x)
        (expected,) = relative_cc_check(ball, PURE_SINGLETONS, (Diagonal(x),)).entries
        assert entry == expected
        assert entry.sequence == Diagonal(x)
        assert entry.precondition_ok and entry.glue == x

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
        entry = reverse_partition_construct(MPlusBall(ONE), x)
        assert entry.precondition_ok and entry.glue == x

    def test_interior_points_of_random_balls(self):
        """A point strictly inside a ball is the glue of its single-atom
        pieces, which lie in the ball, and so does the glue, with the
        seminorm-of-glue identity exact."""
        rng = sampling.make_rng(1212)
        for _ in range(200):
            family = tuple(random_seminorm(rng) for _ in range(rng.randint(1, 3)))
            ball = Ball(family, sampling.random_positive_ecrv(rng))
            x = sampling.sample_member(ball, rng) * Fraction(1, 2)
            entry = reverse_partition_construct(ball, x)
            assert entry.precondition_ok and entry.glue == x, (ball, x)
            assert entry.glue_in_set and entry.seminorm_identity_ok, (ball, x)

    def test_m_plus_ball_glue_leaves_exactly_past_the_radius_tail(self):
        """Every point of L0 cuts into pieces of M + B_r, and its glue, the
        point itself, leaves the set exactly when |tail(x)| > tail(r)."""
        rng = sampling.make_rng(1313)
        seen = set()
        for _ in range(300):
            r = sampling.random_positive_ecrv(rng)
            x = sampling.random_ecrv(rng)
            entry = reverse_partition_construct(MPlusBall(r), x)
            assert entry.precondition_ok and entry.glue == x, (r, x)
            outside = abs(x.tail) > r.tail
            assert entry.glue_in_set is not outside, (r, x)
            assert entry.counterexample is outside, (r, x)
            seen.add(outside)
        assert seen == {True, False}


class TestSingleAtomWalk:
    """The closure failure and the reverse construction cut a value into
    single-atom pieces without a partition object.  Their entries equal,
    field for field, the relative check's along the walked partition
    {1}, {2}, ..., which stays the reference of that walk."""

    FIELDS = ("sequence", "precondition_ok", "glue", "glue_in_set", "seminorm_identity_ok")

    def sets(self, rng):
        """M + B_r and a ball of every seminorm shape, on one random radius."""
        r = sampling.random_positive_ecrv(rng)
        members = tuple(random_seminorm(rng, 0) for _ in range(2))
        yield MPlusBall(r)
        yield Ball((Zero(),), r)
        yield Ball((Weighted(random_nonnegative_ecrv(rng)),), r)
        yield Ball((Localized(random_event(rng)),), r)
        yield Ball((FiniteSup(members),), r)

    def assert_walked(self, entry, u, value):
        (expected,) = relative_cc_check(u, PURE_SINGLETONS, (Diagonal(value),)).entries
        for field in self.FIELDS:
            assert getattr(entry, field) == getattr(expected, field), (u, value, field)

    def test_matches_the_walked_partition(self):
        rng = sampling.make_rng(4040)
        outcomes = set()
        for _ in range(30):
            for u in self.sets(rng):
                eps = sampling.random_positive_ecrv(rng)
                # a spike at atom 1 puts the first piece outside a ball whose
                # seminorm sees that atom, while the later pieces may lie inside
                spiked = EcRv({**eps.overrides, 1: 64}, eps.tail)
                for radius in (eps, spiked):
                    witness = cc_failure_witness(u, radius)
                    self.assert_walked(witness, u, 2 * radius)
                    outcomes.add((type(u), witness.precondition_ok, witness.glue_in_set))
                x = sampling.sample_member(u, rng) * Fraction(1, 2)
                self.assert_walked(reverse_partition_construct(u, x), u, x)
        assert {(Ball, True, True), (Ball, False, False), (MPlusBall, True, False)} <= outcomes
