import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given

from l0convex import (
    Ball,
    EcRv,
    EventSet,
    FiniteSup,
    Localized,
    Weighted,
    Zero,
    ZERO,
    ONE,
    axioms_check,
    evaluate,
    classify,
    contains,
    divide,
    emax,
    gauge_closed_form,
    indicator,
    indicator_mul,
    leq_everywhere,
    sample_member,
    sup_evaluate,
)
from l0convex import sampling
from l0convex.concatenation import _late_pieces_in_set
from l0convex.config import parse_config

from conftest import ecrvs, events

UNIT = Weighted(ONE)

# the family of tests/golden/induced.cfg: every seminorm shape, a sup nested in it
INDUCED_FAMILY = parse_config(
    (Path(__file__).parent / "golden" / "induced.cfg").read_text()
).base.family


def reference_evaluate(s, x):
    """The recursive evaluation, one member at a time, that the coefficient
    kernel replaced; kept here as the reference it must agree with."""
    if isinstance(s, Zero):
        return ZERO
    if isinstance(s, Weighted):
        return s.weight * abs(x)
    if isinstance(s, Localized):
        return indicator_mul(s.event, abs(x))
    if isinstance(s, FiniteSup):
        result = reference_evaluate(s.members[0], x)
        for member in s.members[1:]:
            result = emax(result, reference_evaluate(member, x))
        return result
    raise TypeError(f"not a seminorm descriptor: {s!r}")


def reference_contains(ball, x):
    return all(leq_everywhere(reference_evaluate(p, x), ball.radius) for p in ball.seminorms)


def random_balls(seed, count):
    """Balls of one to three random seminorms (every shape, Zero included)."""
    rng = sampling.make_rng(seed)
    balls = [Ball(INDUCED_FAMILY, sampling.random_positive_ecrv(rng))]
    for _ in range(count - 1):
        family = tuple(
            Zero() if rng.random() < 0.1 else sampling.random_seminorm(rng, depth=2)
            for _ in range(rng.randint(1, 3))
        )
        balls.append(Ball(family, sampling.random_positive_ecrv(rng)))
    return rng, balls


class TestEvaluate:
    def test_localized_example(self):
        s = Localized(EventSet.finite({2}))
        assert evaluate(s, EcRv({2: -3}, 1)) == EcRv({2: 3}, 0)

    def test_weighted_example(self):
        assert evaluate(Weighted(EcRv.constant(2)), EcRv.constant(3)) == EcRv.constant(6)

    @given(ecrvs)
    def test_zero_element_maps_to_zero(self, x):
        for s in (Zero(), UNIT, Localized(EventSet.finite({1})), FiniteSup((UNIT,))):
            assert evaluate(s, ZERO) == ZERO
        assert evaluate(UNIT, x * 0) == ZERO

    @given(ecrvs)
    def test_result_is_nonnegative(self, x):
        s = FiniteSup((UNIT, Localized(EventSet.cofinite_excluding({3}))))
        assert classify(evaluate(s, x)).in_L0_plus

    def test_weight_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Weighted(EcRv({1: -1}, 0))

    def test_finite_sup_nonempty(self):
        with pytest.raises(ValueError):
            FiniteSup(())


class TestCoefficientKernel:
    """evaluate, the ball gauge, ball membership and the late-piece check
    agree with the recursive reference on seeded draws."""

    def test_evaluate_matches_reference(self):
        rng = sampling.make_rng(11)
        seminorms = [Zero(), *INDUCED_FAMILY, FiniteSup(INDUCED_FAMILY)]
        seminorms += [sampling.random_seminorm(rng, depth=2) for _ in range(60)]
        assert {type(s) for s in seminorms} == {Zero, Weighted, Localized, FiniteSup}
        for s in seminorms:
            for _ in range(5):
                x = sampling.random_ecrv(rng)
                assert evaluate(s, x) == reference_evaluate(s, x)
        for _ in range(20):
            x = sampling.random_ecrv(rng)
            expected = FiniteSup(INDUCED_FAMILY)
            assert sup_evaluate(INDUCED_FAMILY, x) == reference_evaluate(expected, x)

    def test_ball_gauge_matches_reference(self):
        rng, balls = random_balls(13, 40)
        for ball in balls:
            for _ in range(5):
                x = sampling.random_ecrv(rng)
                worst = reference_evaluate(FiniteSup(ball.seminorms), x)
                assert gauge_closed_form(ball, x) == divide(worst, ball.radius)

    def test_ball_membership_matches_reference(self):
        rng, balls = random_balls(17, 40)
        outcomes = set()
        for ball in balls:
            for i in range(6):
                x = sample_member(ball, rng) if i % 2 else sampling.random_ecrv(rng)
                member = contains(ball, x)
                assert member == reference_contains(ball, x)
                outcomes.add(member)
        assert outcomes == {True, False}

    def test_ball_late_pieces_match_reference(self):
        # random atoms lie in 1..16, so atoms up to 19 also cover every tail
        rng, balls = random_balls(19, 30)
        outcomes = set()
        for ball in balls:
            for beyond in (1, 5, 12, 17):
                value = sampling.random_ecrv(rng)
                explicit = all(
                    reference_contains(ball, indicator_mul(EventSet.finite({j}), value))
                    for j in range(beyond, 20)
                )
                symbolic = _late_pieces_in_set(ball, value, beyond)
                assert symbolic == explicit
                outcomes.add(symbolic)
        assert outcomes == {True, False}


def fresh_seminorm(kind):
    """A new record of each shape; the last three compute their coefficient
    once, on first read."""
    if kind == "zero":
        return Zero()
    if kind == "weighted":
        return Weighted(ONE)
    if kind == "localized":
        return Localized(EventSet.finite({1, 4}))
    if kind == "localized-cofinite":
        return Localized(EventSet.cofinite_excluding({2}))
    return FiniteSup((Weighted(EcRv({1: 2}, Fraction(1, 3))), Localized(EventSet.finite({2}))))


CACHED_KINDS = ("localized", "localized-cofinite", "sup")


class TestCoefficient:
    """The cached coefficient is derived state: not a field, not writable."""

    def test_shapes(self):
        assert Zero().coefficient == ZERO
        w = EcRv({3: Fraction(1, 2)}, 2)
        assert Weighted(w).coefficient is w
        e = EventSet.cofinite_excluding({2})
        assert Localized(e).coefficient == indicator(e)
        assert FiniteSup((Weighted(w), Localized(e))).coefficient == emax(w, indicator(e))

    @pytest.mark.parametrize("kind", CACHED_KINDS)
    def test_reading_it_changes_nothing_visible(self, kind):
        s, fresh = fresh_seminorm(kind), fresh_seminorm(kind)
        before = repr(s)
        s.coefficient
        assert "coefficient" in vars(s) and "coefficient" not in vars(fresh)
        assert s == fresh and fresh == s
        assert hash(s) == hash(fresh)
        assert repr(s) == repr(fresh) == before
        assert len({s, fresh}) == 1

    @pytest.mark.parametrize("kind", ("zero", "weighted") + CACHED_KINDS)
    @pytest.mark.parametrize("read_first", (False, True), ids=["unread", "read"])
    def test_cannot_assign_or_delete(self, kind, read_first):
        s = fresh_seminorm(kind)
        if read_first:
            s.coefficient
        with pytest.raises(AttributeError):
            s.coefficient = ONE
        with pytest.raises(AttributeError):
            del s.coefficient
        assert s.coefficient == evaluate(s, ONE)

    @pytest.mark.parametrize("kind", CACHED_KINDS)
    @pytest.mark.parametrize("read_first", (False, True), ids=["unread", "read"])
    def test_pickle_and_deepcopy_round_trip(self, kind, read_first):
        s = fresh_seminorm(kind)
        if read_first:
            s.coefficient
        for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert twin == s and hash(twin) == hash(s)
            assert twin.coefficient == s.coefficient

    def test_non_seminorm_rejected(self):
        with pytest.raises(TypeError, match="not a seminorm descriptor"):
            evaluate(object(), ONE)
        with pytest.raises(TypeError, match="not a seminorm descriptor"):
            evaluate(FiniteSup((UNIT, object())), ONE)
        with pytest.raises(ValueError):
            sup_evaluate((), ONE)


class TestLocalization:
    @given(events, ecrvs)
    def test_localized_is_indicator_weighted(self, e, x):
        assert evaluate(Localized(e), x) == evaluate(Weighted(indicator(e)), x)

    @given(events, ecrvs)
    def test_indicator_pulls_through(self, e, x):
        # the engine identity behind cellwise gluing of seminorm values
        for s in (
            UNIT,
            Weighted(EcRv({2: Fraction(1, 2)}, 3)),
            Localized(EventSet.finite({1, 2})),
            FiniteSup((UNIT, Localized(EventSet.cofinite_excluding({5})))),
        ):
            assert evaluate(s, indicator_mul(e, x)) == indicator_mul(e, evaluate(s, x))


class TestFiniteSup:
    @given(ecrvs)
    def test_dominates_members(self, x):
        members = (
            UNIT,
            Localized(EventSet.finite({1, 4})),
            Weighted(EcRv({3: 2}, Fraction(1, 3))),
        )
        sup = evaluate(FiniteSup(members), x)
        for m in members:
            assert leq_everywhere(evaluate(m, x), sup)
        assert sup_evaluate(members, x) == sup


class TestAxiomsCheck:
    def test_zero_seminorm_passes(self):
        assert axioms_check(Zero(), 50, seed=3).passed

    def test_grammar_members_pass(self):
        s = FiniteSup(
            (UNIT, Localized(EventSet.finite({2})), Weighted(EcRv({1: 2}, 1)))
        )
        report = axioms_check(s, 1000, seed=5)
        assert report.passed
        assert report.homogeneity_failures == 0
        assert report.triangle_failures == 0

    def test_broken_evaluator_caught_at_zero(self):
        broken = lambda x: abs(x) + ONE
        report = axioms_check(broken, 20, seed=7)
        assert report.homogeneity_failures > 0
        assert any(
            kind == "homogeneity" and scalar == ZERO
            for kind, scalar, _ in report.witnesses
        )

    def test_squaring_breaks_the_triangle_inequality(self):
        report = axioms_check(lambda x: x * x, 20, 1)
        assert report.triangle_failures == 18
        assert not report.passed
        assert any(kind == "triangle" for kind, _, _ in report.witnesses)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            axioms_check(Zero(), 0, seed=1)


class TestSeparatingFamily:
    @given(ecrvs)
    def test_unit_weight_separates(self, x):
        # the sup over the single-member family vanishes only at zero
        if sup_evaluate((UNIT,), x) == ZERO:
            assert x == ZERO
