"""Neighborhood-base machinery and the seminorm-induction verdict.

Two base families are supported: balls generated by a finite family of
seminorms, and the degenerate family M + B_eps whose gauges vanish
identically.  Each puts the radius into one set shape, so the closure
of {0} and the Hausdorff property are decided from that shape, not the
base's type.  The verdict operation builds every step of the
verify-counterexample report, each sampled fact checked by one step;
for the degenerate base they rule out any inducing family of
seminorms.  Every evidence step is re-checkable from membership tests
and order comparisons alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ._record import record
from .l0 import EcRv, ONE, classify, divide, emin
from . import concatenation
from .seminorms import Seminorm, Weighted
from .sets import (
    DEFAULT_PROBE_ATOMS,
    Ball,
    contains,
    core_point,
    excluding_radius,
    gauge_upper_certificate,
    sample_member,
    structural_flags,
    verify_certificate,
    roundtrip_check,
)
from . import sampling
from ._common import (  # re-exported: the records live in the leaf module
    DEFAULT_TOLERANCE,
    CounterexampleFamily,
    EvidenceStep,
    FromSeminorms,
    NeighborhoodBase,
    UsageError,
)


# -- base axioms -----------------------------------------------------------


@record
class BaseAxiomReport:
    meet_witness: EcRv
    sum_witness: EcRv
    scaling_witness: EcRv
    samples: int
    meet_failures: int = 0
    sum_failures: int = 0
    scaling_failures: int = 0

    @property
    def passed(self) -> bool:
        return not (self.meet_failures or self.sum_failures or self.scaling_failures)


def base_axiom_witnesses(
    base: NeighborhoodBase, eps: EcRv, delta: EcRv, samples: int, seed: int
) -> BaseAxiomReport:
    """Witness sets for the three neighborhood-base inclusions.

    U(eps ^ delta) lies in U(eps) and U(delta); U(eps/2) + U(eps/2) lies
    in U(eps); eps * U(delta/eps) lies in U(delta).  Each inclusion is
    sample-verified through the membership test.
    """
    sampling.require_samples(samples)
    for r in (eps, delta):
        if not classify(r).in_L0_plusplus:
            raise UsageError("radii must be strictly positive everywhere")
    meet = emin(eps, delta)
    half = eps * Fraction(1, 2)
    ratio = divide(delta, eps)
    report = BaseAxiomReport(meet, half, ratio, samples)
    rng = sampling.make_rng(seed)
    u_eps, u_delta = base.base_set(eps), base.base_set(delta)
    u_meet, u_half, u_ratio = (
        base.base_set(meet),
        base.base_set(half),
        base.base_set(ratio),
    )
    for _ in range(samples):
        x = sample_member(u_meet, rng)
        if not (contains(u_eps, x) and contains(u_delta, x)):
            report.meet_failures += 1
        a, b = sample_member(u_half, rng), sample_member(u_half, rng)
        if not contains(u_eps, a + b):
            report.sum_failures += 1
        y = sample_member(u_ratio, rng)
        if not contains(u_delta, eps * y):
            report.scaling_failures += 1
    return report


def base_axioms_step(
    base: NeighborhoodBase,
    samples: int,
    seed: int,
    eps: Optional[EcRv] = None,
    delta: Optional[EcRv] = None,
) -> EvidenceStep:
    """The base_axioms step at radii `eps` and `delta`, by default 1 and 1/2."""
    eps = ONE if eps is None else eps
    delta = EcRv.constant(Fraction(1, 2)) if delta is None else delta
    report = base_axiom_witnesses(base, eps, delta, samples, seed)
    return EvidenceStep(
        name="base_axioms",
        inputs={"epsilon": repr(eps), "delta": repr(delta), "samples": samples},
        expected="meet, sum and scaling inclusions hold on all samples",
        observed=(
            f"witnesses ({report.meet_witness!r}, {report.sum_witness!r}, "
            f"{report.scaling_witness!r}); failures: {report.meet_failures}, "
            f"{report.sum_failures}, {report.scaling_failures}"
        ),
        passed=report.passed,
    )


# -- separation and closure ------------------------------------------------


@record(frozen=True)
class SeparationWitness:
    """A radius eps with point not in U(eps), from `sets.excluding_radius`."""

    point: EcRv
    epsilon: EcRv
    excluded: bool  # re-checked: contains(U(epsilon), point) is False


@record(frozen=True)
class ClosureResult:
    member: bool
    separation: Optional[SeparationWitness] = None


def _require_base(base: NeighborhoodBase) -> None:
    """Refuse a base of neither kind: the steps read `family` or rely on M."""
    if not isinstance(base, (FromSeminorms, CounterexampleFamily)):
        raise TypeError(
            f"not a neighborhood base (FromSeminorms or CounterexampleFamily): {base!r}"
        )


def closure_membership(base: NeighborhoodBase, x: EcRv) -> ClosureResult:
    """Membership of x in the closure of {0} under the base.

    Each base set puts its radius into one set shape, and the closure is
    what that shape holds at every radius: M for the degenerate base (as
    is the closure of M), the family's common kernel for a seminorm
    base.  A point outside carries a separation witness.
    """
    _require_base(base)
    eps = excluding_radius(base.base_set(ONE), x)
    if eps is None:
        return ClosureResult(True)
    return ClosureResult(False, SeparationWitness(x, eps, not contains(base.base_set(eps), x)))


# -- Hausdorff diagnosis ----------------------------------------------------


@record
class HausdorffReport:
    hausdorff: bool
    witness: Optional[EcRv]  # a nonzero point in every base set, or None
    samples: int
    checks_passed: int

    @property
    def passed(self) -> bool:
        return self.checks_passed == self.samples


def hausdorff_report(
    base: NeighborhoodBase, samples: int = 100, seed: int = 0
) -> HausdorffReport:
    """Not Hausdorff iff the base-set shape has a nonzero core point, which
    sampled base sets then hold; else sampled pairs are separated."""
    _require_base(base)
    sampling.require_samples(samples)
    rng = sampling.make_rng(seed)
    unit = base.base_set(ONE)
    witness = core_point(unit)
    if witness is not None:
        hits = sum(
            contains(base.base_set(sampling.random_positive_ecrv(rng)), witness)
            for _ in range(samples)
        )
        return HausdorffReport(False, witness, samples, hits)
    separated = 0
    for _ in range(samples):
        x = sampling.random_ecrv(rng)
        y = sampling.random_ecrv(rng)
        while y == x:
            y = sampling.random_ecrv(rng)
        d = x - y
        eps = excluding_radius(unit, d)
        separated += not contains(base.base_set(eps), d)
    return HausdorffReport(True, None, samples, separated)


def _hausdorff_step(base: NeighborhoodBase, samples: int, seed: int) -> EvidenceStep:
    report = hausdorff_report(base, samples=samples, seed=seed)
    inputs = {"samples": samples}
    if report.hausdorff:
        expected = "distinct sampled points are separated by some base set"
        observed = f"{report.checks_passed}/{report.samples} sampled pairs separated"
    else:
        inputs["witness"] = repr(report.witness)
        expected = "a nonzero point lies in every sampled base set"
        observed = (
            f"non-Hausdorff, nonzero witness {report.witness!r} in "
            f"{report.checks_passed}/{report.samples} sampled base sets"
        )
    return EvidenceStep("hausdorff_diagnosis", inputs, expected, observed, report.passed)


# -- the induction verdict ---------------------------------------------------


@record
class EvidenceReport:
    verdict: str  # "induced" | "not_induced"
    family: Optional[tuple[Seminorm, ...]]
    steps: list[EvidenceStep]
    seed: int

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)


def seminorm_induction_verdict(
    base: NeighborhoodBase,
    seed: int = 0,
    samples: int = 20,
    epsilon: Optional[EcRv] = None,
    delta: Optional[EcRv] = None,
) -> EvidenceReport:
    """Every step of the verify-counterexample report, in report order.

    `epsilon` and `delta` are the base-axiom radii (default 1 and 1/2).
    With no samples every step would pass without checking anything, so
    `samples` must be at least 1.
    """
    _require_base(base)
    sampling.require_samples(samples)
    steps = [base_axioms_step(base, samples, seed, epsilon, delta)]
    if isinstance(base, FromSeminorms):
        steps += _induced_steps(base, seed, samples)
    else:
        steps += _not_induced_steps(base, seed, samples)
    steps.append(_hausdorff_step(base, samples, seed))
    if isinstance(base, FromSeminorms):
        return EvidenceReport("induced", base.family, steps, seed)

    all_prior = all(step.passed for step in steps)
    steps.append(
        EvidenceStep(
            name="zero_family_contradiction",
            inputs={},
            expected=(
                "any inducing family is dominated by the zero gauge, hence induces "
                "the trivial topology, contradicting the proper closed submodule"
            ),
            observed="all supporting steps verified" if all_prior else "a supporting step failed",
            passed=all_prior,
        )
    )
    return EvidenceReport("not_induced", None, steps, seed)


def _sampled_step(
    name: str, samples: int, draw, expected: str, observed: str, **inputs
) -> EvidenceStep:
    """One evidence step over `samples` draws; it passes iff every draw held.

    `draw()` samples one case and returns whether its check held, plus the
    values that describe the case; the step's example inputs are the
    first failing draw's values, or the last draw's when every draw held.
    `observed` is formatted with `held` and `samples`.
    """
    held = 0
    example = failed = None
    for _ in range(samples):
        ok, example = draw()
        held += ok
        if failed is None and not ok:
            failed = example
    if failed is not None:
        example = failed
    inputs = {"samples": samples, **inputs, **{k: repr(v) for k, v in example.items()}}
    return EvidenceStep(
        name, inputs, expected, observed.format(held=held, samples=samples), held == samples
    )


def _induced_steps(base: FromSeminorms, seed: int, samples: int) -> list[EvidenceStep]:
    rng = sampling.make_rng(seed)

    def structural():
        ball = base.base_set(sampling.random_positive_ecrv(rng))
        return structural_flags(ball).all_true(), {}

    rt = roundtrip_check(base.base_set(ONE), samples, seed)
    return [
        _sampled_step(
            "base_sets_structural", samples, structural,
            "every base ball is convex, absorbent and balanced",
            "{held}/{samples} balls pass",
        ),
        EvidenceStep(
            name="gauge_membership_roundtrip",
            inputs={"ball_radius": repr(ONE), "samples": samples},
            expected="membership in a base ball agrees with gauge <= 1",
            observed=f"{rt.membership_mismatches} mismatches",
            passed=rt.passed,
        ),
    ]


def _not_induced_steps(base: CounterexampleFamily, seed: int, samples: int) -> list[EvidenceStep]:
    rng = sampling.make_rng(seed)

    # 1. every base-set gauge collapses to zero: the certificate checks,
    #    by membership alone, a witness within tolerance of the closed form
    #    on the default probe atoms; the witness takes the tolerance itself
    #    (half of it at zero) there, so neither default can change the flag
    def degenerate():
        u = base.base_set(sampling.random_positive_ecrv(rng))
        cert = gauge_upper_certificate(u, sampling.random_ecrv(rng))
        return verify_certificate(cert), {"example_witness": cert.witness}

    # 2. gauges shrink under inclusion: the order ball of the same radius
    #    lies in the base set; that its gauge is the larger one needs no
    #    sample, since the base set's gauge is the zero closed form of step 1
    def monotone():
        radius = sampling.random_positive_ecrv(rng)
        u, inner = base.base_set(radius), Ball((Weighted(ONE),), radius)
        return contains(u, sample_member(inner, rng)), {}

    # 3. M is a proper closed submodule, so the topology is not trivial:
    #    each point outside M is excluded from some base set, and each
    #    point of M lies in the closure of {0}
    def proper():
        separation = closure_membership(base, sampling.random_nonzero_tail_ecrv(rng)).separation
        inside = sampling.random_finite_support_ecrv(rng)
        closed = closure_membership(base, inside).member
        return separation.excluded and closed, {
            "example_point": separation.point,
            "example_epsilon": separation.epsilon,
            "example_inside": inside,
        }

    # 4. gluing leaves the base sets: finitely supported pieces, escaping glue
    def escaping():
        failure = concatenation.cc_failure_witness(sampling.random_positive_ecrv(rng))
        return failure.valid, {"example_radius": failure.radius, "example_glue": failure.glue}

    return [
        _sampled_step(
            "gauge_degeneracy", samples, degenerate,
            "every gauge certificate verifies against the zero closed form",
            "{held}/{samples} certificates verify",
            tolerance=str(DEFAULT_TOLERANCE),
            probe_atoms=f"{DEFAULT_PROBE_ATOMS[0]}..{DEFAULT_PROBE_ATOMS[-1]}",
        ),
        _sampled_step(
            "gauge_monotonicity", samples, monotone,
            "the order ball B_eps lies in M + B_eps; its gauge is the larger, "
            "since gauge_degeneracy gives M + B_eps the zero closed form",
            "{held}/{samples} sample checks pass",
        ),
        _sampled_step(
            "proper_closed_submodule", samples, proper,
            "every point outside M is excluded from some base set, so the "
            "closure of {0} and of M is exactly M",
            "{held}/{samples} draws pass: outsider excluded with evidence, "
            "member of M in the closure of {{0}}",
        ),
        _sampled_step(
            "concatenation_failure", samples, escaping,
            "single-atom pieces stay in the base set while their glue escapes",
            "{held}/{samples} witnesses valid",
        ),
    ]
