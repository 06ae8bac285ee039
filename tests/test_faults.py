"""The fault matrix: a wrong kernel function fails the steps that must see it.

Each row patches one function, in every package module that bound it,
and counts its calls to prove the patch was reached.  The verdict is
the library's own, at seed 1 over 30 samples; the named steps must fail
and so must the report as a whole.
"""

import sys
from fractions import Fraction

import pytest

from l0convex import CounterexampleFamily, FromSeminorms, sets
from l0convex.l0 import ONE
from l0convex.measure import EventSet
from l0convex.seminorms import Localized, Weighted
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


def scaled_result(name, factor):
    """`sets.<name>` with its result times `factor`, bound anew in every
    module that imported the name by value."""

    def patch(monkeypatch, calls):
        right = getattr(sets, name)

        def wrong(*args):
            calls.append(args)
            value = right(*args)
            return None if value is None else value * factor

        modules = [
            module
            for key, module in sys.modules.items()
            if key.startswith("l0convex.") and vars(module).get(name) is right
        ]
        assert sets in modules
        for module in modules:
            monkeypatch.setattr(module, name, wrong)

    return patch


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
}


@pytest.mark.parametrize("fault, base, failing", FAULTS.values(), ids=FAULTS)
def test_fault_fails_its_steps(monkeypatch, fault, base, failing):
    calls = []
    fault(monkeypatch, calls)
    report = seminorm_induction_verdict(base, seed=1, samples=30)
    assert calls  # the patched function is the one the verdict ran
    passed = {step.name: step.passed for step in report.steps}
    assert failing <= set(passed)
    assert not any(passed[name] for name in failing)
    assert report.passed is False


@pytest.mark.parametrize("base", [INDUCED, NOT_INDUCED], ids=["induced", "not-induced"])
def test_every_step_passes_without_a_fault(base):
    """The rows above fail because of their fault, not of the base."""
    assert seminorm_induction_verdict(base, seed=1, samples=30).passed
