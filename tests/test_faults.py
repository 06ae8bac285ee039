"""The fault matrix: a wrong kernel function fails the steps that must see it.

Each row patches one function, in every package module that bound it,
and counts its calls to prove the patch was reached.  The verdict is
the library's own, at seed 1 over 30 samples; the named steps must fail
and so must the report as a whole, and every failing step must say so:
its `observed` text differs from the one of the run without the fault.
"""

import sys
from fractions import Fraction

import pytest

from l0convex import CounterexampleFamily, FromSeminorms, sets
from l0convex.l0 import ONE, EcRv
from l0convex.measure import EventSet
from l0convex.seminorms import Localized, Weighted
from l0convex.sets import MPlusBall
from l0convex.topology import seminorm_induction_verdict

INDUCED = FromSeminorms((Weighted(ONE), Localized(EventSet.finite({2}))))
NOT_INDUCED = CounterexampleFamily()


def wrong_coefficient(factor):
    def patch(monkeypatch, calls):
        right = sets.Ball.coefficient.func

        def wrong(ball):
            calls.append(ball)
            return right(ball) * factor

        monkeypatch.setattr(sets.Ball, "coefficient", property(wrong))

    return patch


def rebound(name, wrong_version):
    """`sets.<name>` replaced by `wrong_version(right, calls)`, bound anew
    in every module that imported the name by value."""

    def patch(monkeypatch, calls):
        right = getattr(sets, name)
        wrong = wrong_version(right, calls)
        modules = [
            module
            for key, module in sys.modules.items()
            if key.startswith("l0convex.") and vars(module).get(name) is right
        ]
        assert sets in modules
        for module in modules:
            monkeypatch.setattr(module, name, wrong)

    return patch


def scaled_result(name, factor):
    """`sets.<name>` with its result times `factor`."""

    def wrong_version(right, calls):
        def wrong(*args):
            calls.append(args)
            value = right(*args)
            return None if value is None else value * factor

        return wrong

    return rebound(name, wrong_version)


def membership_at_twice_the_radius(right, calls):
    """`contains` deciding `M + B_r` as if it were `M + B_2r`."""

    def wrong(s, x):
        if isinstance(s, MPlusBall):
            calls.append(s)
            s = MPlusBall(s.radius * 2)
        return right(s, x)

    return wrong


def certificate_with_half_its_tail(right, calls):
    """The `M + B` certificate witness with its tail halved."""

    def wrong(s, x, probes, tol):
        witness = right(s, x, probes, tol)
        if not isinstance(s, MPlusBall):
            return witness
        calls.append(s)
        return EcRv(witness.overrides, witness.tail / 2)

    return wrong


# (fault, base, the steps it must fail)
FAULTS = {
    "ball-coefficient-2x": (wrong_coefficient(2), INDUCED, {"gauge_membership_roundtrip"}),
    "ball-coefficient-1/3x": (
        wrong_coefficient(Fraction(1, 3)), INDUCED, {"gauge_membership_roundtrip"}
    ),
    "ball-members-3x-induced": (scaled_result("sample_member", 3), INDUCED, {"base_axioms"}),
    "ball-members-3x-not-induced": (
        scaled_result("sample_member", 3), NOT_INDUCED, {"gauge_monotonicity"}
    ),
    "excluding-radius-4x-induced": (
        scaled_result("excluding_radius", 4), INDUCED, {"hausdorff_diagnosis"}
    ),
    "excluding-radius-4x-not-induced": (
        scaled_result("excluding_radius", 4), NOT_INDUCED, {"proper_closed_submodule"}
    ),
    "m-plus-ball-membership-2x": (
        rebound("contains", membership_at_twice_the_radius),
        NOT_INDUCED,
        {"proper_closed_submodule", "concatenation_failure"},
    ),
    "m-plus-ball-certificate-half-tail": (
        rebound("_certificate_witness", certificate_with_half_its_tail),
        NOT_INDUCED,
        {"gauge_degeneracy"},
    ),
}


@pytest.mark.parametrize("fault, base, failing", FAULTS.values(), ids=FAULTS)
def test_fault_fails_its_steps(monkeypatch, fault, base, failing):
    clean = seminorm_induction_verdict(base, seed=1, samples=30)
    observed = {step.name: step.observed for step in clean.steps}
    calls = []
    fault(monkeypatch, calls)
    report = seminorm_induction_verdict(base, seed=1, samples=30)
    assert calls  # the patched function is the one the verdict ran
    passed = {step.name: step.passed for step in report.steps}
    assert failing <= set(passed)
    assert not any(passed[name] for name in failing)
    assert report.passed is False
    for step in report.steps:
        if not step.passed:  # a failing step must not read like a passing one
            assert step.observed != observed[step.name], step.name


@pytest.mark.parametrize("base", [INDUCED, NOT_INDUCED], ids=["induced", "not-induced"])
def test_every_step_passes_without_a_fault(base):
    """The rows above fail because of their fault, not of the base."""
    assert seminorm_induction_verdict(base, seed=1, samples=30).passed
