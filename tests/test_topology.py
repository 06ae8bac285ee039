from fractions import Fraction

import pytest
from hypothesis import given

from l0convex import (
    CANONICAL,
    Ball,
    CounterexampleFamily,
    EcRv,
    EventSet,
    FromSeminorms,
    Localized,
    MPlusBall,
    PointInM,
    Weighted,
    Zero,
    ZERO,
    ONE,
    base_axiom_witnesses,
    classify,
    closure_membership,
    reciprocal,
    confirm_structural_flags,
    contains,
    epslambda_membership,
    hausdorff_report,
    seminorm_induction_verdict,
    separation_witness,
    sup_evaluate,
    order_compare,
    roundtrip_check,
)
from l0convex import sampling, topology

from conftest import ecrvs

COUNTEREXAMPLE = CounterexampleFamily()
UNIT_FAMILY = FromSeminorms((Weighted(ONE),))


class ReciprocalBase:
    """Test-only base whose sets shrink as the radius grows: U(r) is
    M + B_{1/r}, so the base inclusions fail."""

    def base_set(self, radius: EcRv) -> MPlusBall:
        return MPlusBall(reciprocal(radius))


class TestBaseAxioms:
    def test_counterexample_witnesses(self):
        report = base_axiom_witnesses(
            COUNTEREXAMPLE, ONE, EcRv.constant(Fraction(1, 2)), 200, seed=3
        )
        half = EcRv.constant(Fraction(1, 2))
        assert report.meet_witness == half
        assert report.sum_witness == half
        assert report.scaling_witness == half
        assert report.passed

    def test_seminorm_base_equal_radii(self):
        report = base_axiom_witnesses(UNIT_FAMILY, ONE, ONE, 100, seed=5)
        assert report.meet_witness == ONE
        assert report.passed

    def test_pointwise_radii(self):
        eps = EcRv({1: 4}, 1)
        delta = EcRv.constant(2)
        report = base_axiom_witnesses(COUNTEREXAMPLE, eps, delta, 200, seed=7)
        assert report.passed
        assert report.meet_witness == EcRv({1: 2}, 1)
        assert report.scaling_witness == EcRv({1: Fraction(1, 2)}, 2)

    def test_inverted_base_fails_the_inclusions(self):
        half = EcRv.constant(Fraction(1, 2))
        report = base_axiom_witnesses(ReciprocalBase(), ONE, half, 30, seed=1)
        assert (report.meet_failures, report.sum_failures, report.scaling_failures) == (11, 18, 0)
        assert not report.passed
        assert not topology.base_axioms_step(ReciprocalBase(), 30, 1).passed

    def test_radii_must_be_strictly_positive(self):
        with pytest.raises(ValueError):
            base_axiom_witnesses(COUNTEREXAMPLE, ZERO, ONE, 10, seed=1)


class TestSeparation:
    def test_constant_example(self):
        witness = separation_witness(EcRv.constant(4))
        assert witness.epsilon == EcRv.constant(2)
        assert witness.excluded
        assert not contains(MPlusBall(witness.epsilon), EcRv.constant(4))

    def test_zero_override_example(self):
        witness = separation_witness(EcRv({1: 0}, 1))
        assert witness.epsilon == EcRv({1: 1}, Fraction(1, 2))
        assert witness.excluded

    def test_finite_support_rejected(self):
        with pytest.raises(PointInM):
            separation_witness(EcRv({5: 9}, 0))

    @given(ecrvs)
    def test_every_outsider_separated(self, x):
        if classify(x).in_M:
            return
        witness = separation_witness(x)
        assert classify(witness.epsilon).in_L0_plusplus
        assert witness.excluded


class TestClosure:
    def test_nonzero_point_in_closure_of_zero(self):
        result = closure_membership(COUNTEREXAMPLE, EcRv({1: 1}, 0))
        assert result.member

    def test_outsider_excluded_with_evidence(self):
        result = closure_membership(COUNTEREXAMPLE, ONE)
        assert not result.member
        assert result.separation.epsilon == EcRv.constant(Fraction(1, 2))
        assert result.separation.excluded

    def test_seminorm_base_closure_of_zero(self):
        assert closure_membership(UNIT_FAMILY, ZERO).member
        assert not closure_membership(UNIT_FAMILY, ONE).member
        degenerate = FromSeminorms((Localized(EventSet.finite({1})),))
        assert closure_membership(degenerate, EcRv({2: 5}, 0)).member


class TestHausdorff:
    def test_counterexample_not_hausdorff(self):
        report = hausdorff_report(COUNTEREXAMPLE, samples=100, seed=11)
        assert not report.hausdorff
        assert report.witness == EcRv({1: 1}, 0)
        assert report.checks_passed == 100

    def test_unit_family_separates(self):
        report = hausdorff_report(UNIT_FAMILY, samples=200, seed=13)
        assert report.hausdorff
        assert report.checks_passed == 200

    def test_zero_family_separates_nothing(self):
        report = hausdorff_report(FromSeminorms((Zero(),)), samples=10, seed=17)
        assert not report.hausdorff
        x, y = report.witness
        assert x != y
        assert sup_evaluate((Zero(),), x - y) == ZERO

    def test_non_separating_family_has_concrete_non_separated_pair(self):
        # a family blind beyond atom 1 cannot separate points that agree there
        family = FromSeminorms((Localized(EventSet.finite({1})),))
        d = EcRv({2: 1}, 0)
        assert sup_evaluate(family.family, d) == ZERO
        rng = sampling.make_rng(19)
        for _ in range(100):
            radius = sampling.random_positive_ecrv(rng)
            assert contains(family.base_set(radius), d)


class TestEpsLambda:
    def test_example_true(self):
        assert epslambda_membership(
            (Weighted(ONE),), 1, Fraction(3, 5), EcRv({1: 5}, 0)
        )

    def test_example_false(self):
        assert not epslambda_membership(
            (Weighted(ONE),), 1, Fraction(2, 5), EcRv({1: 5}, 0)
        )

    def test_zero_always_member(self):
        assert epslambda_membership((Weighted(ONE),), Fraction(1, 100), Fraction(1, 100), ZERO)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            epslambda_membership((Weighted(ONE),), 0, Fraction(1, 2), ZERO)
        with pytest.raises(ValueError):
            epslambda_membership((Weighted(ONE),), 1, 1, ZERO)

    @given(ecrvs)
    def test_matches_direct_probability(self, x):
        family = (Weighted(ONE), Localized(EventSet.finite({2, 3})))
        eps, lam = Fraction(7, 8), Fraction(1, 3)
        norm = sup_evaluate(family, x)
        event = order_compare(norm, EcRv.constant(eps)).strict_set
        expected = CANONICAL.probability(event) > 1 - lam
        assert epslambda_membership(family, eps, lam, x) == expected


class TestInductionVerdict:
    def test_counterexample_not_induced(self):
        report = seminorm_induction_verdict(COUNTEREXAMPLE, seed=19, samples=100)
        assert report.verdict == "not_induced"
        assert report.passed
        names = [step.name for step in report.steps]
        assert "gauge_degeneracy" in names
        assert "gauge_monotonicity" in names
        assert "proper_closed_submodule" in names

    def test_seminorm_family_induced(self):
        base = FromSeminorms((Localized(EventSet.finite({1})), Weighted(ONE)))
        report = seminorm_induction_verdict(base, seed=23, samples=50)
        assert report.verdict == "induced"
        assert report.passed
        assert report.family == base.family

    @pytest.mark.parametrize("base", [COUNTEREXAMPLE, UNIT_FAMILY])
    @pytest.mark.parametrize(
        "limits",
        [
            {"samples": 0},
            {"samples": 0, "epsilon": ONE, "delta": EcRv.constant(Fraction(1, 2))},
            {"samples": -1},
        ],
    )
    def test_vacuous_run_rejected(self, base, limits):
        """Explicit radii do not make a run with no samples check anything."""
        with pytest.raises(ValueError, match="at least 1"):
            seminorm_induction_verdict(base, seed=31, **limits)

    def test_zero_family_induced(self):
        report = seminorm_induction_verdict(FromSeminorms((Zero(),)), seed=29, samples=30)
        assert report.verdict == "induced"
        assert report.passed

    @pytest.mark.parametrize("knob", ["horizon", "tolerance"])
    def test_no_probe_knobs(self, knob):
        """The verdict takes no probe horizon or certificate tolerance: its
        steps use the library defaults."""
        with pytest.raises(TypeError):
            seminorm_induction_verdict(COUNTEREXAMPLE, samples=1, **{knob: 32})


class CountingReciprocalBase(ReciprocalBase):
    """ReciprocalBase that counts the base sets it builds."""

    def __init__(self):
        self.built = 0

    def base_set(self, radius: EcRv) -> MPlusBall:
        self.built += 1
        return super().base_set(radius)


class TestBaseOfNeitherKind:
    """The functions that branch on the base kind refuse any other base
    before they build a base set."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda base: seminorm_induction_verdict(base, seed=1, samples=5),
            lambda base: closure_membership(base, ONE),
            lambda base: hausdorff_report(base, samples=5, seed=1),
        ],
        ids=["seminorm_induction_verdict", "closure_membership", "hausdorff_report"],
    )
    def test_rejected_up_front(self, run):
        base = CountingReciprocalBase()
        with pytest.raises(TypeError, match="FromSeminorms or CounterexampleFamily"):
            run(base)
        assert base.built == 0


class TestSampledStep:
    @staticmethod
    def draws(failing):
        """A draw whose n-th call (from 1) holds unless n is in `failing`."""
        calls = []

        def draw():
            calls.append(len(calls) + 1)
            return calls[-1] not in failing, {"example_call": calls[-1]}

        return draw

    def test_failing_step_reports_the_first_failing_draw(self):
        step = topology._sampled_step("s", 5, self.draws({2, 4}), "", "{held}/{samples}")
        assert not step.passed
        assert step.observed == "3/5"
        assert step.inputs == {"samples": 5, "example_call": "2"}

    def test_passing_step_reports_the_last_draw(self):
        step = topology._sampled_step("s", 5, self.draws(set()), "", "{held}/{samples}")
        assert step.passed
        assert step.inputs == {"samples": 5, "example_call": "5"}


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize(
    "check",
    [
        lambda n: base_axiom_witnesses(COUNTEREXAMPLE, ONE, ONE, n, seed=1),
        lambda n: hausdorff_report(UNIT_FAMILY, samples=n, seed=1),
        lambda n: roundtrip_check(Weighted(ONE), n, seed=1),
        lambda n: confirm_structural_flags(MPlusBall(ONE), n, seed=1),
    ],
    ids=["base_axiom_witnesses", "hausdorff_report", "roundtrip_check", "confirm_structural_flags"],
)
def test_sampled_check_without_samples_rejected(check, samples):
    """A sampled check over no samples would pass without checking anything."""
    with pytest.raises(ValueError, match="at least 1"):
        check(samples)
