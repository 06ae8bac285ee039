from fractions import Fraction

import pytest
from hypothesis import given

from l0convex import (
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
    indicator,
    indicator_mul,
    leq_everywhere,
    sup_evaluate,
)

from conftest import ecrvs, events

UNIT = Weighted(ONE)


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
