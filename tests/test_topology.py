import typing
from collections import Counter
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
    Scale,
    UnsupportedShape,
    Weighted,
    Zero,
    ZERO,
    ONE,
    axioms_check,
    base_axiom_witnesses,
    classify,
    closure_membership,
    reciprocal,
    contains,
    epslambda_membership,
    hausdorff_report,
    evaluate,
    seminorm_induction_verdict,
    roundtrip_check,
)
from l0convex import _common, _not_induced, concatenation, l0, sampling, topology
from l0convex.seminorms import FiniteSup, Seminorm
from l0convex.sets import core_point

from conftest import blind_weight, ecrvs
import reference
from reference import confirm_structural_flags, order_compare

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
        assert report.example["meet_witness"] == half
        assert report.example["sum_witness"] == half
        assert report.example["scaling_witness"] == half
        assert report.passed

    @pytest.mark.parametrize(
        "base, eps, delta",
        [
            (COUNTEREXAMPLE, ONE, EcRv.constant(Fraction(1, 2))),
            (ReciprocalBase(), ONE, EcRv.constant(Fraction(1, 2))),
            (COUNTEREXAMPLE, EcRv({1: 4}, 1), EcRv({2: Fraction(1, 3)}, 2)),
            (ReciprocalBase(), EcRv({3: 5, 7: Fraction(1, 9)}, 2), EcRv({1: Fraction(1, 3)}, 3)),
            (UNIT_FAMILY, EcRv({1: 4}, 1), EcRv({2: Fraction(1, 3)}, 2)),
        ],
        ids=["counterexample", "inverted", "pointwise", "inverted-pointwise", "ball"],
    )
    def test_equals_the_composed_reference(self, base, eps, delta):
        """The tail path on M + B (the ball base keeps whole members) gives
        the tally of whole members tested whole: failures, `held` and the
        kept example, which on the inverted base is the first failing
        draw's."""
        failures = Counter()
        for seed in range(4):
            report = base_axiom_witnesses(base, eps, delta, 500, seed)
            assert report == reference.base_axiom_witnesses(base, eps, delta, 500, seed)
            failures.update(report.failures)
        assert (sum(failures.values()) > 0) == isinstance(base, ReciprocalBase)

    def test_builds_the_members_of_the_kept_draw_only(self, monkeypatch):
        """Only the kept example's members are built from their pairs, by
        the kernel's `l0._from_ratios` as topology binds it."""
        built, from_ratios = [], l0._from_ratios
        assert topology._from_ratios is from_ratios

        def counting(*parts):
            built.append(parts)
            return from_ratios(*parts)

        monkeypatch.setattr(topology, "_from_ratios", counting)
        for base in (COUNTEREXAMPLE, ReciprocalBase()):
            built.clear()
            base_axiom_witnesses(base, ONE, EcRv.constant(Fraction(1, 2)), 200, seed=9)
            assert len(built) == 4  # the meet point, the two sum points and the scaled one

    def test_seminorm_base_equal_radii(self):
        report = base_axiom_witnesses(UNIT_FAMILY, ONE, ONE, 100, seed=5)
        assert report.example["meet_witness"] == ONE
        assert report.passed

    def test_pointwise_radii(self):
        eps = EcRv({1: 4}, 1)
        delta = EcRv.constant(2)
        report = base_axiom_witnesses(COUNTEREXAMPLE, eps, delta, 200, seed=7)
        assert report.passed
        assert report.example["meet_witness"] == EcRv({1: 2}, 1)
        assert report.example["scaling_witness"] == EcRv({1: Fraction(1, 2)}, 2)

    def test_inverted_base_fails_the_inclusions(self):
        half = EcRv.constant(Fraction(1, 2))
        report = base_axiom_witnesses(ReciprocalBase(), ONE, half, 30, seed=1)
        assert report.failures == {"meet": 11, "sum": 18, "scaling": 0}
        assert not report.passed
        # the example is the first failing draw: its meet point escapes U(1)
        assert not contains(MPlusBall(ONE), report.example["meet_point"])
        assert not topology.base_axioms_step(ReciprocalBase(), 30, 1).passed

    def test_radii_must_be_strictly_positive(self):
        with pytest.raises(ValueError):
            base_axiom_witnesses(COUNTEREXAMPLE, ZERO, ONE, 10, seed=1)


class TestSeparation:
    def test_constant_example(self):
        witness = closure_membership(COUNTEREXAMPLE, EcRv.constant(4))
        assert witness.epsilon == EcRv.constant(2)
        assert witness.excluded
        assert not contains(MPlusBall(witness.epsilon), EcRv.constant(4))

    def test_zero_override_example(self):
        witness = closure_membership(COUNTEREXAMPLE, EcRv({1: 0}, 1))
        assert witness.epsilon == EcRv({1: 1}, Fraction(1, 2))
        assert witness.excluded

    def test_finite_support_has_no_separation(self):
        assert closure_membership(COUNTEREXAMPLE, EcRv({5: 9}, 0)) is None

    @given(ecrvs)
    def test_every_outsider_separated(self, x):
        if classify(x).in_M:
            return
        witness = closure_membership(COUNTEREXAMPLE, x)
        assert classify(witness.epsilon).in_L0_plusplus
        assert witness.excluded

    def test_seminorm_base_outsider_separated(self):
        witness = closure_membership(UNIT_FAMILY, EcRv({1: 0}, 4))
        assert witness.epsilon == EcRv({1: 1}, 2)
        assert witness.excluded
        assert not contains(Ball((Weighted(ONE),), witness.epsilon), EcRv({1: 0}, 4))


class TestClosure:
    def test_nonzero_point_in_closure_of_zero(self):
        assert closure_membership(COUNTEREXAMPLE, EcRv({1: 1}, 0)) is None

    def test_outsider_excluded_with_evidence(self):
        witness = closure_membership(COUNTEREXAMPLE, ONE)
        assert witness is not None
        assert witness.epsilon == EcRv.constant(Fraction(1, 2))
        assert witness.excluded

    def test_seminorm_base_closure_of_zero(self):
        assert closure_membership(UNIT_FAMILY, ZERO) is None
        assert closure_membership(UNIT_FAMILY, ONE) is not None
        degenerate = FromSeminorms((Localized(EventSet.finite({1})),))
        assert closure_membership(degenerate, EcRv({2: 5}, 0)) is None


def _random_seminorm(rng) -> Seminorm:
    """Weighted with zeros at some named atoms or in the tail, Localized,
    Zero, or a sup of two of those."""
    kind = rng.randrange(4)
    if kind == 0:
        return Weighted(blind_weight(rng))
    if kind == 1:
        atoms = frozenset(rng.sample(range(1, 8), rng.randint(0, 3)))
        return Localized(EventSet(atoms, cofinite=rng.random() < 0.5))
    if kind == 2:
        return Zero()
    return FiniteSup((_random_seminorm(rng), _random_seminorm(rng)))


class TestHausdorff:
    def test_counterexample_not_hausdorff(self):
        report = hausdorff_report(COUNTEREXAMPLE, samples=100, seed=11)
        assert report.example["witness"] == EcRv({1: 1}, 0)
        assert report.held == 100

    def test_unit_family_separates(self):
        report = hausdorff_report(UNIT_FAMILY, samples=200, seed=13)
        assert report.example["witness"] is None
        assert report.held == 200

    def test_zero_family_separates_nothing(self):
        report = hausdorff_report(FromSeminorms((Zero(),)), samples=10, seed=17)
        assert report.example["witness"] == EcRv({1: 1}, 0)
        assert report.held == 10

    @pytest.mark.parametrize(
        "seminorm, witness",
        [
            (Localized(EventSet.finite({1})), EcRv({2: 1}, 0)),
            (Weighted(EcRv({1: 0}, 1)), EcRv({1: 1}, 0)),
        ],
        ids=["blind_past_atom_1", "blind_at_atom_1"],
    )
    def test_family_blind_at_an_atom_is_not_hausdorff(self, seminorm, witness):
        # random pairs almost never differ only where the family is blind,
        # so a sampled pair pass would call these families Hausdorff
        base = FromSeminorms((seminorm,))
        report = hausdorff_report(base, samples=500, seed=3)
        assert report.example["witness"] == witness
        assert report.held == 500
        assert closure_membership(base, witness) is None
        step = topology._hausdorff_step(base, 30, 1)
        assert step.passed and step.inputs["witness"] == repr(witness)

    def test_hausdorff_iff_no_core_point(self):
        # a family separates points iff its largest coefficient is
        # nowhere zero; draw coefficients with zero values on purpose
        rng = sampling.make_rng(2024)
        outcomes = set()
        for i in range(150):
            family = tuple(_random_seminorm(rng) for _ in range(rng.randint(1, 3)))
            base = FromSeminorms(family)
            report = hausdorff_report(base, samples=3, seed=i)
            separates = classify(evaluate(FiniteSup(family), ONE)).in_L0_plusplus
            witness = report.example["witness"]
            assert (witness is None) == separates, family
            assert witness == core_point(base.base_set(ONE)), family
            assert report.passed, family
            if witness is not None:
                assert not witness.is_zero()
                assert closure_membership(base, witness) is None, family
            outcomes.add(witness is None)
        assert outcomes == {True, False}

    def test_non_separating_family_has_concrete_non_separated_pair(self):
        # a family blind beyond atom 1 cannot separate points that agree there
        family = FromSeminorms((Localized(EventSet.finite({1})),))
        d = EcRv({2: 1}, 0)
        assert evaluate(FiniteSup(family.family), d) == ZERO
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
        norm = evaluate(FiniteSup(family), x)
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
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{knob}'"):
            seminorm_induction_verdict(COUNTEREXAMPLE, seed=1, samples=1, **{knob: 32})

    @pytest.mark.parametrize("check", [seminorm_induction_verdict, hausdorff_report])
    def test_seed_and_samples_have_no_defaults(self, check):
        with pytest.raises(TypeError, match="missing 2 required positional arguments"):
            check(COUNTEREXAMPLE)


class ShapeBase:
    """Test-only base of neither package kind: its sets are whatever
    `make(radius)` builds."""

    def __init__(self, make):
        self.make = make

    def base_set(self, radius: EcRv):
        return self.make(radius)


class TestTypeFreeVerdict:
    """The verdict reads the unit base set's shape, never the base's type."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_wrapped_counterexample_sets_not_induced(self, seed):
        report = seminorm_induction_verdict(ShapeBase(MPlusBall), seed=seed, samples=20)
        reference = seminorm_induction_verdict(COUNTEREXAMPLE, seed=seed, samples=20)
        assert report.verdict == "not_induced" and report.family is None
        assert report.steps == reference.steps
        assert report.passed

    @pytest.mark.parametrize("seed", [1, 7])
    def test_wrapped_seminorm_balls_induced(self, seed):
        family = (Localized(EventSet.finite({1})), Weighted(EcRv({2: 3}, 1)))
        report = seminorm_induction_verdict(
            ShapeBase(lambda r: Ball(family, r)), seed=seed, samples=20
        )
        reference = seminorm_induction_verdict(FromSeminorms(family), seed=seed, samples=20)
        assert report.verdict == "induced" and report.family == family
        assert report.steps == reference.steps
        assert report.passed

    def test_every_seminorm_family_induced(self):
        # zero coefficient values on purpose: a family blind at some atoms,
        # or everywhere (Zero), still induces its own topology
        rng = sampling.make_rng(4242)
        for i in range(60):
            family = tuple(_random_seminorm(rng) for _ in range(rng.randint(1, 3)))
            report = seminorm_induction_verdict(FromSeminorms(family), seed=i, samples=2)
            assert report.verdict == "induced", family
            assert report.family == family
            assert report.passed, family

    def test_concatenation_failure_glues_against_the_base_sets(self, monkeypatch):
        """Every witness of the step glues against the set the base handed
        out at the drawn radius, not a set rebuilt from the radius."""
        handed_out = []

        def recording(radius):
            handed_out.append((radius, MPlusBall(radius)))
            return handed_out[-1][1]

        calls, witness = [], concatenation.cc_failure_witness

        def spy(*args):
            calls.append(args)
            return witness(*args)

        monkeypatch.setattr(concatenation, "cc_failure_witness", spy)
        report = seminorm_induction_verdict(ShapeBase(recording), seed=3, samples=12)
        (step,) = [step for step in report.steps if step.name == "concatenation_failure"]
        assert step.passed and len(calls) == 12
        for args in calls:
            assert len(args) == 2, args
            u, eps = args
            assert any(u is handed and eps == radius for radius, handed in handed_out)

    def test_unsupported_unit_shape_raises(self):
        base = ShapeBase(lambda r: Scale(ONE, MPlusBall(r)))
        with pytest.raises(UnsupportedShape):
            seminorm_induction_verdict(base, seed=1, samples=5)


class TestBaseOfNeitherKind:
    """ReciprocalBase puts 1/r, not r, into the M + B shape.  It gets a
    verdict like any other base, and the steps that build base sets at a
    chosen radius catch what its shape does not say."""

    def test_verdict_is_a_failing_not_induced_report(self):
        report = seminorm_induction_verdict(ReciprocalBase(), seed=1, samples=5)
        assert report.verdict == "not_induced" and report.family is None
        assert not report.passed
        failed = [step.name for step in report.steps if not step.passed]
        assert failed == [
            "base_axioms",
            "gauge_monotonicity",
            "proper_closed_submodule",
            "concatenation_failure",
            "zero_family_contradiction",
        ]

    def test_closure_recheck_catches_the_unshaped_radius(self):
        # the shape of U(1) excludes 1 at radius 1/2, but U(1/2) is M + B_2
        witness = closure_membership(ReciprocalBase(), ONE)
        assert witness is not None
        assert witness.epsilon == EcRv.constant(Fraction(1, 2))
        assert not witness.excluded

    def test_hausdorff_from_the_core_point(self):
        report = hausdorff_report(ReciprocalBase(), samples=5, seed=1)
        assert report.example["witness"] == EcRv({1: 1}, 0)
        assert report.passed


class TestSampledStep:
    @staticmethod
    def draws(failing):
        """A draw whose n-th call (from 1) holds unless n is in `failing`."""
        calls = []

        def draw():
            calls.append(len(calls) + 1)
            return {"held": calls[-1] not in failing}, {"example_call": calls[-1]}

        return draw

    def test_failing_step_reports_the_first_failing_draw(self):
        step = _not_induced._sampled_step("s", 5, self.draws({2, 4}), "", "{held}/{samples}")
        assert not step.passed
        assert step.observed == "3/5"
        assert step.inputs == {"samples": 5, "example_call": "2"}

    def test_passing_step_reports_the_last_draw(self):
        step = _not_induced._sampled_step("s", 5, self.draws(set()), "", "{held}/{samples}")
        assert step.passed
        assert step.inputs == {"samples": 5, "example_call": "5"}

    # `Tally.step` on failing tallies built by hand, against the f-strings
    # the report steps were written with before they were templates

    def test_failed_counts_a_draw_that_failed_two_checks_once(self):
        report = sampling.Tally(5, Counter(gauge=1, membership=1), 4, {"x": ONE})
        step = report.step("gauge_membership_roundtrip", "", "{failed} mismatches", r="1")
        assert step.observed == f"{5 - report.held} mismatches" == "1 mismatches"
        assert (step.passed, step.inputs) == (False, {"samples": 5, "r": "1"})

    def test_a_check_that_never_failed_reads_zero(self):
        report = sampling.Tally(3, Counter(gauge=2), 1, {"x": ONE})
        step = report.step(
            "gauge_roundtrip",
            "",
            "gauge mismatches: {failures[gauge]}, membership mismatches: "
            "{failures[membership]}, strict-inclusion failures: {failures[strict]}",
        )
        assert step.observed == (
            f"gauge mismatches: {report.failures['gauge']}, membership mismatches: "
            f"{report.failures['membership']}, strict-inclusion failures: "
            f"{report.failures['strict']}"
        )
        assert step.observed.endswith("membership mismatches: 0, strict-inclusion failures: 0")
        assert not step.passed

    def test_example_conversion_is_repr(self):
        w = {
            "meet_witness": EcRv({2: 1}, 0),
            "sum_witness": Fraction(1, 2),
            "scaling_witness": "1/2",
        }
        failed = Counter(meet=0, sum=2, scaling=1)
        report = sampling.Tally(4, failed, 2, w)
        step = report.step(
            "base_axioms",
            "",
            "witnesses ({example[meet_witness]!r}, {example[sum_witness]!r}, "
            "{example[scaling_witness]!r}); failures: {failures[meet]}, "
            "{failures[sum]}, {failures[scaling]}",
        )
        assert step.observed == (
            f"witnesses ({w['meet_witness']!r}, {w['sum_witness']!r}, "
            f"{w['scaling_witness']!r}); failures: {failed['meet']}, "
            f"{failed['sum']}, {failed['scaling']}"
        )
        assert step.observed == "witnesses ({2:1 | 0}, Fraction(1, 2), '1/2'); failures: 0, 2, 1"


@pytest.mark.parametrize("samples", [0, -1])
@pytest.mark.parametrize(
    "check",
    [
        lambda n: base_axiom_witnesses(COUNTEREXAMPLE, ONE, ONE, n, seed=1),
        lambda n: hausdorff_report(UNIT_FAMILY, samples=n, seed=1),
        lambda n: roundtrip_check(Weighted(ONE), n, seed=1),
        lambda n: confirm_structural_flags(MPlusBall(ONE), n, seed=1),
        lambda n: axioms_check(Weighted(ONE), n, seed=1),
        lambda n: _not_induced._sampled_step("s", n, lambda: ({"held": True}, {}), "", ""),
    ],
    ids=[
        "base_axiom_witnesses", "hausdorff_report", "roundtrip_check",
        "confirm_structural_flags", "axioms_check", "sampled_step",
    ],
)
def test_sampled_check_without_samples_rejected(check, samples):
    """A sampled check over no samples would pass without checking anything."""
    with pytest.raises(ValueError, match="at least 1"):
        check(samples)


RECORDS = sorted(
    {
        cls
        for module in (_common, topology, _not_induced, sampling)
        for cls in vars(module).values()
        if isinstance(cls, type)
        and cls.__module__ == module.__name__
        and getattr(vars(cls).get("__init__"), "__module__", None) == "l0convex._common"
    },
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_annotations_resolve(cls):
    """Every name in a record's annotations is bound in its module."""
    hints = typing.get_type_hints(cls)
    assert list(hints) == list(vars(cls).get("__annotations__", ()))
    if "family" in hints:  # Optional[...] of an Optional is the Optional itself
        assert typing.Optional[hints["family"]] == typing.Optional[tuple[Seminorm, ...]]


def test_every_record_class_is_checked():
    names = {cls.__name__ for cls in RECORDS}
    assert {
        "EvidenceReport", "FromSeminorms", "CounterexampleFamily", "EvidenceStep", "EventSet",
        "Ratio", "GaugeCertificate",
    } <= names
