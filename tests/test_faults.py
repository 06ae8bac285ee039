"""The fault matrix: a wrong kernel function fails the steps that must see it.

Each row patches one function, in every package module that bound it,
and counts its calls to prove the patch was reached.  The verdict is
the library's own, at seed 1 over 30 samples; exactly the named steps
fail, and so does the report as a whole, and every failing step says
so: its `observed` text differs from the one of the run without the
fault.  Every step of each base's report is named by some row, and
every named check of each step's tally is failed by some row, so no
step and no check passes whatever the code computes.  The rows of
`COMMAND_FAULTS` do the same for the one step of `check roundtrip` and
of `partition`: each makes one field of its `observed` text false and
the command exit 1, and every field is made false by some row.  A last
row makes the seminorm evaluation non-local and fails every seminorm
identity of the ball configs of `check cc`.
"""

import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from l0convex import CounterexampleFamily, FromSeminorms, _not_induced, concatenation
from l0convex import measure, sampling, sets
from l0convex.config import parse_config
from l0convex.l0 import ONE, EcRv
from l0convex.measure import EventSet
from l0convex.seminorms import Localized, Weighted
from l0convex.sets import Ball, MPlusBall
from l0convex.topology import seminorm_induction_verdict

from test_golden import report

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


def rebound(home, name, wrong_version):
    """`<home>.<name>` replaced by `wrong_version(right, calls)`, bound anew
    in every module that imported the name by value."""

    def patch(monkeypatch, calls):
        right = getattr(home, name)
        wrong = wrong_version(right, calls)
        modules = [
            module
            for key, module in sys.modules.items()
            if key.startswith("l0convex.") and vars(module).get(name) is right
        ]
        assert home in modules
        for module in modules:
            monkeypatch.setattr(module, name, wrong)

    return patch


def scaled_result(home, name, factor):
    """`<home>.<name>` with its result times `factor`."""

    def wrong_version(right, calls):
        def wrong(*args):
            calls.append(args)
            value = right(*args)
            return None if value is None else value * factor

        return wrong

    return rebound(home, name, wrong_version)


def members_scaled(factor):
    """`sampling._member_parts` with every numerator of its pairs times
    `factor`: each drawn ball or M + B member, and its tail, scaled."""

    def wrong_version(right, calls):
        def wrong(s, rng):
            parts = right(s, rng)
            if parts is None:
                return None
            calls.append(s)
            over, (p, q) = parts
            return {j: (a * factor, b) for j, (a, b) in over.items()}, (p * factor, q)

        return wrong

    return rebound(sampling, "_member_parts", wrong_version)


def decided_as(kind, shape):
    """`contains` deciding each set s of the class `kind` as `shape(s)`."""

    def wrong_version(right, calls):
        def wrong(s, x):
            if isinstance(s, kind):
                calls.append(s)
                s = shape(s)
            return right(s, x)

        return wrong

    return rebound(sets, "contains", wrong_version)


def radius_for_points_of_m(right, calls):
    """`excluding_radius` with the radius 1 for a nonzero point of M, which
    every M + B holds at every radius."""

    def wrong(s, x):
        radius = right(s, x)
        if radius is None and isinstance(s, MPlusBall) and not x.is_zero():
            calls.append(x)
            return ONE
        return radius

    return wrong


def certificate_with_half_its_tail(right, calls):
    """The `M + B` certificate witness with its tail halved."""

    def wrong(s, x):
        witness = right(s, x)
        if not isinstance(s, MPlusBall):
            return witness
        calls.append(s)
        return EcRv(witness.overrides, witness.tail / 2)

    return wrong


# (fault, base, exactly the steps it fails)
FAULTS = {
    "ball-coefficient-2x": (wrong_coefficient(2), INDUCED, {"gauge_membership_roundtrip"}),
    "ball-coefficient-1/3x": (
        wrong_coefficient(Fraction(1, 3)), INDUCED, {"gauge_membership_roundtrip"}
    ),
    "ball-members-3x-induced": (members_scaled(3), INDUCED, {"base_axioms"}),
    "ball-members-3x-not-induced": (
        members_scaled(3),
        NOT_INDUCED,
        {"base_axioms", "gauge_monotonicity", "zero_family_contradiction"},
    ),
    # membership in the ball of half the radius, its gauge left as it is
    "ball-membership-half-radius": (
        decided_as(Ball, lambda s: Ball(s.seminorms, s.radius * Fraction(1, 2))),
        INDUCED,
        {"base_axioms", "gauge_membership_roundtrip"},
    ),
    "excluding-radius-4x-induced": (
        scaled_result(sets, "excluding_radius", 4), INDUCED, {"hausdorff_diagnosis"}
    ),
    "excluding-radius-4x-not-induced": (
        scaled_result(sets, "excluding_radius", 4),
        NOT_INDUCED,
        {"proper_closed_submodule", "zero_family_contradiction"},
    ),
    # the core point {1:1 | 0} is lost, so the diagnosis samples separated
    # pairs, which the NotInduced argument cannot pass
    "excluding-radius-for-points-of-m": (
        rebound(sets, "excluding_radius", radius_for_points_of_m),
        NOT_INDUCED,
        {"proper_closed_submodule", "hausdorff_diagnosis", "zero_family_contradiction"},
    ),
    "m-plus-ball-membership-2x": (
        decided_as(MPlusBall, lambda s: MPlusBall(s.radius * 2)),
        NOT_INDUCED,
        {"concatenation_failure", "proper_closed_submodule", "zero_family_contradiction"},
    ),
    "m-plus-ball-certificate-half-tail": (
        rebound(_not_induced, "_certificate_witness", certificate_with_half_its_tail),
        NOT_INDUCED,
        {"gauge_degeneracy", "zero_family_contradiction"},
    ),
    # membership in M + B reads the tail alone, so base_axioms tests each
    # member's tail as a constant, at the default constant radii, where an
    # order ball holds what M + B holds; concatenation_failure tests the
    # late pieces by zero, which every order ball holds, and the glue
    # 2 * eps, which none holds
    "m-plus-ball-membership-as-order-ball": (
        decided_as(MPlusBall, lambda s: Ball((Weighted(ONE),), s.radius)),
        NOT_INDUCED,
        {"gauge_monotonicity", "hausdorff_diagnosis", "zero_family_contradiction"},
    ),
}
BASES = {"induced": INDUCED, "not-induced": NOT_INDUCED}


@pytest.mark.parametrize("fault, base, failing", FAULTS.values(), ids=FAULTS)
def test_fault_fails_its_steps(monkeypatch, fault, base, failing):
    clean = seminorm_induction_verdict(base, seed=1, samples=30)
    observed = {step.name: step.observed for step in clean.steps}
    calls = []
    fault(monkeypatch, calls)
    report = seminorm_induction_verdict(base, seed=1, samples=30)
    assert calls  # the patched function is the one the verdict ran
    assert {step.name for step in report.steps if not step.passed} == failing
    assert report.passed is False
    for step in report.steps:
        if not step.passed:  # a failing step must not read like a passing one
            assert step.observed != observed[step.name], step.name


@pytest.mark.parametrize("base", BASES.values(), ids=BASES)
def test_every_step_passes_without_a_fault(base):
    """The rows above fail because of their fault, not of the base."""
    assert seminorm_induction_verdict(base, seed=1, samples=30).passed


def verdict_and_checks(monkeypatch, base, fault=None):
    """The verdict at seed 1 over 30 samples, with `fault` if given, and
    each named check of its tallies with the number of draws that failed
    it: `sampling.tally` wrapped to record every `Tally.failures`."""

    def recording(right, calls):
        def tally(samples, draw):
            result = right(samples, draw)
            checks.update(result.failures)  # a check that held counts 0
            return result

        return tally

    checks = Counter()
    with monkeypatch.context() as patch:
        if fault is not None:
            fault(patch, [])
        rebound(sampling, "tally", recording)(patch, [])
        report = seminorm_induction_verdict(base, seed=1, samples=30)
    return report, checks


@pytest.mark.parametrize("base", BASES.values(), ids=BASES)
def test_every_step_has_a_fault_that_fails_it(monkeypatch, base):
    """A step, or a named check of a step's tally, that no row fails could
    pass whatever the code computes: a new one arrives with a row, or is
    deleted."""
    clean, checks = verdict_and_checks(monkeypatch, base)
    assert checks  # the wrapped tally is the one the verdict ran
    rows = [(fault, failing) for fault, row_base, failing in FAULTS.values() if row_base is base]
    assert {step.name for step in clean.steps} - set().union(*(f for _, f in rows)) == set()
    failed = set()
    for fault, _ in rows:
        _, counts = verdict_and_checks(monkeypatch, base, fault)
        failed.update(name for name, count in counts.items() if count)
    assert set(checks) - failed == set()


# -- the checks of `check roundtrip` and `partition` ---------------------------


def ball_membership_at_radius(factor):
    """`contains` deciding each ball at `factor` times its radius, its gauge
    left as it is."""
    return decided_as(Ball, lambda s: Ball(s.seminorms, s.radius * factor))


def cell_read_as(wrong_cell):
    """`SingletonTail.cell(n)` as `wrong_cell(part, n, right)`."""

    def patch(monkeypatch, calls):
        right = measure.SingletonTail.cell

        def wrong(part, n):
            calls.append(n)
            return wrong_cell(part, n, right)

        monkeypatch.setattr(measure.SingletonTail, "cell", wrong)

    return patch


# (fault, golden case, the field of the step's `observed` text that holds
# on the clean run and that the fault makes false)
COMMAND_FAULTS = {
    "roundtrip-ball-coefficient-2x": (
        wrong_coefficient(2), "check_roundtrip_seed5", "gauge mismatches: 0"
    ),
    # a point of gauge in (1, 2] is a member; every point of gauge < 1 still is
    "roundtrip-ball-membership-double-radius": (
        ball_membership_at_radius(2), "check_roundtrip_seed5", "membership mismatches: 0"
    ),
    "roundtrip-ball-membership-half-radius": (
        ball_membership_at_radius(Fraction(1, 2)),
        "check_roundtrip_seed5",
        "strict-inclusion failures: 0",
    ),
    # each tail cell one atom late: half the mass the law asks for, never 0
    "partition-tail-cells-one-atom-late": (
        cell_read_as(lambda part, n, right: right(part, n + (n > part.prefix_count))),
        "partition_from3",
        "law holds: True",
    ),
    "partition-prefix-cells-empty": (
        cell_read_as(
            lambda part, n, right: EventSet.empty() if n <= part.prefix_count else right(part, n)
        ),
        "partition_from3",
        "all cells positive: True",
    ),
}


def observed(case: str) -> tuple[int, str]:
    """The exit code of `main()` on the golden case, and its one step's
    `observed` text."""
    code, text = report(case)
    return code, json.loads(text)["steps"][0]["observed"]


@pytest.mark.parametrize("fault, case, field", COMMAND_FAULTS.values(), ids=COMMAND_FAULTS)
def test_command_fault_makes_its_field_false(monkeypatch, fault, case, field):
    code, clean = observed(case)
    assert code == 0 and field in clean
    calls = []
    fault(monkeypatch, calls)
    code, text = observed(case)
    assert calls  # the patched function is the one the command ran
    assert code == 1
    assert field not in text, text


@pytest.mark.parametrize("case", sorted({case for _, case, _ in COMMAND_FAULTS.values()}))
def test_every_command_field_has_a_fault_that_fails_it(case):
    """Each field that a clean run of the command reports true is made
    false by some row."""
    fields = observed(case)[1].split(", ")
    assert set(fields) == {field for _, c, field in COMMAND_FAULTS.values() if c == case}


# -- the seminorm identity of `check cc` ---------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def off_the_cell(right, calls):
    """p(x) + |x(1)|: a seminorm evaluation that reads x at atom 1 on every
    cell, so that p(1_A x) = 1_A p(x) fails on each cell past atom 1."""

    def wrong(p, x):
        calls.append(x)
        return right(p, x) + abs(x.value_at(1))

    return wrong


@pytest.mark.parametrize("name", ["cc_ball.cfg", "cc_diagonal_finite.cfg"])
def test_a_non_local_evaluation_fails_every_seminorm_identity(monkeypatch, name):
    """Each entry's identity is decided cell by cell, the diagonal's too:
    an evaluation that is not local makes every one of them false."""
    config = parse_config((GOLDEN / name).read_text())[0]

    def identities():
        report = concatenation.relative_cc_check(
            config.set_descriptor, config.partition(), config.sequences
        )
        return [entry.seminorm_identity_ok for entry in report.entries]

    assert set(identities()) == {True}
    calls = []
    rebound(concatenation, "evaluate", off_the_cell)(monkeypatch, calls)
    assert set(identities()) == {False}
    assert calls  # the patched function is the one the check ran
