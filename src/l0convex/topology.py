"""Neighborhood-base machinery and the seminorm-induction verdict.

A base is anything whose `base_set(radius)` puts the radius into one set
shape: the balls of a finite family of seminorms, or the degenerate sets
M + B_eps whose gauges vanish identically.  The closure of {0} (a point
outside it comes with its `SeparationWitness`, one inside with None),
the Hausdorff property and the verdict itself are decided from that
shape, never from the base's type.  The verdict operation builds every
step of the verify-counterexample report, each sampled fact checked by
one step; for a degenerate base they rule out any inducing family of
seminorms.  Every evidence step is re-checkable from membership tests
and order comparisons alone.

The four steps of the NotInduced argument, the contradiction they end
in (`zero_family_contradiction`), and the gauge certificates that the
first of them (`gauge_degeneracy`) builds, live in the private module
`_not_induced`, which the verdict imports only on a degenerate base: the
Induced verify and `check base` never compile them, nor do the commands
that load `sets` for a single question (`eval`, `check cc`).
"""

from __future__ import annotations

from .l0 import EcRv, ONE, divide, emin, _from_ratios, _make, _reduced
from .seminorms import Seminorm
from .sets import MPlusBall, contains, core_point, excluding_radius, gauge_closed_form
from .sets import _positive, _scaled
from . import sampling
from ._common import (  # re-exported: the records live in the leaf module
    CounterexampleFamily,
    EvidenceStep,
    FromSeminorms,
    NeighborhoodBase,
    UsageError,
    record,
)

# -- base axioms -----------------------------------------------------------


def base_axiom_witnesses(
    base: NeighborhoodBase, eps: EcRv, delta: EcRv, samples: int, seed: int
) -> sampling.Tally:
    """Witness sets for the three neighborhood-base inclusions.

    U(eps ^ delta) lies in U(eps) and U(delta); U(eps/2) + U(eps/2) lies
    in U(eps); eps * U(delta/eps) lies in U(delta).  Each inclusion is
    sample-verified through the membership test, as the checks `meet`,
    `sum` and `scaling`; the example holds their radii (`meet_witness`,
    `sum_witness`, `scaling_witness`) and the points drawn from them.

    When every base set is an M + B, membership reads the tail alone, so
    each check tests the drawn members' tails (`sampling._member_parts`)
    as constant elements, and the members are built only for the example
    the tally keeps.  Other base sets get whole members.
    """
    for r in (eps, delta):
        if not _positive(r):
            raise UsageError("radii must be strictly positive everywhere")
    meet = emin(eps, delta)
    half = _scaled(eps, 1, 2)
    ratio = divide(delta, eps)
    rng = sampling.make_rng(seed)
    u_eps, u_delta = base.base_set(eps), base.base_set(delta)
    u_half = base.base_set(half)
    members = base.base_set(meet), u_half, u_half, base.base_set(ratio)
    tails = all(isinstance(u, MPlusBall) for u in (u_eps, u_delta, *members))

    draw_member = sampling._member_parts if tails else sampling.sample_member

    def draw():
        drawn = [draw_member(u, rng) for u in members]
        x, a, b, y = map(_tail, drawn) if tails else drawn

        def example():
            x, a, b, y = (_from_ratios(*parts) for parts in drawn) if tails else drawn
            return {
                "meet_witness": meet,
                "sum_witness": half,
                "scaling_witness": ratio,
                "meet_point": x,
                "sum_points": (a, b),
                "scaling_point": y,
            }

        checks = {
            "meet": contains(u_eps, x) and contains(u_delta, x),
            "sum": contains(u_eps, a + b),
            "scaling": contains(u_delta, eps * y),
        }
        return checks, example

    return sampling.tally(samples, draw)


def _tail(parts) -> EcRv:
    """The tail of the member of `sampling._member_parts`, as a constant."""
    p, q = parts[1]
    return _reduced(q, {}, p)


def base_axioms_step(
    base: NeighborhoodBase,
    samples: int,
    seed: int,
    eps: EcRv | None = None,
    delta: EcRv | None = None,
) -> EvidenceStep:
    """The base_axioms step at radii `eps` and `delta`, by default 1 and 1/2."""
    eps = ONE if eps is None else eps
    delta = _make(2, {}, 1) if delta is None else delta  # 1/2
    report = base_axiom_witnesses(base, eps, delta, samples, seed)
    return report.step(
        "base_axioms",
        "meet, sum and scaling inclusions hold on all samples",
        "witnesses ({example[meet_witness]!r}, {example[sum_witness]!r}, "
        "{example[scaling_witness]!r}); failures: {failures[meet]}, "
        "{failures[sum]}, {failures[scaling]}",
        epsilon=repr(eps),
        delta=repr(delta),
    )


# -- separation and closure ------------------------------------------------


@record
class SeparationWitness:
    """A radius eps with point not in U(eps), from `sets.excluding_radius`."""

    point: EcRv
    epsilon: EcRv
    excluded: bool  # re-checked: contains(U(epsilon), point) is False


def closure_membership(base: NeighborhoodBase, x: EcRv) -> SeparationWitness | None:
    """None when x lies in the closure of {0} under the base, and
    otherwise the separation witness that keeps it out.

    Each base set puts its radius into one set shape, and the closure is
    what that shape holds at every radius: M for the degenerate base (as
    is the closure of M), the family's common kernel for a seminorm base.
    """
    eps = excluding_radius(base.base_set(ONE), x)
    if eps is None:
        return None
    return SeparationWitness(x, eps, not contains(base.base_set(eps), x))


# -- Hausdorff diagnosis ----------------------------------------------------


def hausdorff_report(base: NeighborhoodBase, samples: int, seed: int) -> sampling.Tally:
    """Not Hausdorff iff the base-set shape has a nonzero core point, which
    sampled base sets then hold; else sampled pairs are separated.  The
    example's `witness` is that core point, or None on a Hausdorff base."""
    rng = sampling.make_rng(seed)
    unit = base.base_set(ONE)
    witness = core_point(unit)

    def held_by_base_set():
        radius = sampling.random_positive_ecrv(rng)
        inside = contains(base.base_set(radius), witness)
        return {"contains_witness": inside}, {"witness": witness, "radius": radius}

    def separated():
        x = sampling.random_ecrv(rng)
        y = sampling.random_ecrv(rng)
        while y == x:
            y = sampling.random_ecrv(rng)
        separation = closure_membership(base, x - y)
        example = {"witness": None, "x": x, "y": y, "epsilon": separation.epsilon}
        return {"separated": separation.excluded}, example

    return sampling.tally(samples, separated if witness is None else held_by_base_set)


def _hausdorff_step(base: NeighborhoodBase, samples: int, seed: int) -> EvidenceStep:
    report = hausdorff_report(base, samples, seed)
    witness = report.example["witness"]
    if witness is None:
        return report.step(
            "hausdorff_diagnosis",
            "distinct sampled points are separated by some base set",
            "{held}/{samples} sampled pairs separated",
        )
    return report.step(
        "hausdorff_diagnosis",
        "a nonzero point lies in every sampled base set",
        "non-Hausdorff, nonzero witness {example[witness]!r} in "
        "{held}/{samples} sampled base sets",
        witness=repr(witness),
    )


# -- the induction verdict ---------------------------------------------------


@record
class EvidenceReport:
    verdict: str  # "induced" | "not_induced"
    family: tuple[Seminorm, ...] | None
    steps: tuple[EvidenceStep, ...]

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)


def seminorm_induction_verdict(
    base: NeighborhoodBase,
    seed: int,
    samples: int,
    epsilon: EcRv | None = None,
    delta: EcRv | None = None,
) -> EvidenceReport:
    """Every step of the verify-counterexample report, in report order.

    The verdict is the paper's argument, read off U(1) = base_set(1).
    Every L0-seminorm has p(x) = |x|*p(1) and any inducing one lies below
    the gauge of some base set, so if that gauge vanishes at 1 while some
    base set excludes 1, every inducing seminorm is zero and no family
    induces the topology.  On both set shapes neither fact depends on the
    radius, so U(1) decides them.  `excluding_radius` raises
    `UnsupportedShape` on every shape but a ball and M + B_eps, which is
    degenerate, so otherwise U(1) is a ball whose seminorms induce the base.

    `epsilon` and `delta` are the base-axiom radii (default 1 and 1/2).
    With no samples every step would pass without checking anything, so
    `samples` must be at least 1.
    """
    sampling.require_samples(samples)
    unit = base.base_set(ONE)
    degenerate = excluding_radius(unit, ONE) is not None and gauge_closed_form(unit, ONE).is_zero()
    steps = [base_axioms_step(base, samples, seed, epsilon, delta)]
    if degenerate:
        from . import _not_induced

        return _not_induced._not_induced_report(base, seed, samples, steps)
    roundtrip = sampling.roundtrip_check(unit, samples, seed).step(
        "gauge_membership_roundtrip",
        "membership in a base ball agrees with gauge <= 1",
        "{failed} mismatches",
        ball_radius=repr(ONE),
    )
    steps += roundtrip, _hausdorff_step(base, samples, seed)
    return EvidenceReport("induced", unit.seminorms, tuple(steps))
