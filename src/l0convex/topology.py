"""Neighborhood-base machinery and the seminorm-induction verdict.

A base is anything whose `base_set(radius)` puts the radius into one
set shape: the balls of a finite family of seminorms, or the degenerate
sets M + B_eps whose gauges vanish identically.  The closure of {0},
the Hausdorff property and the verdict itself are decided from that
shape, never from the base's type.  The verdict operation builds every
step of the verify-counterexample report, each sampled fact checked by
one step; for a degenerate base they rule out any inducing family of
seminorms.  Every evidence step is re-checkable from membership tests
and order comparisons alone.

The gauge certificates live here, next to the one step that builds
them (`gauge_degeneracy`), and not in `sets`: the commands that load
`sets` for a single question (`eval`, `check cc`) never compile them.
"""

from __future__ import annotations

from .l0 import (
    EcRv,
    ONE,
    classify,
    divide,
    emax,
    emin,
    reciprocal,
    _coerce,
    _from_ratios,
    _make,
)
from . import concatenation
from .seminorms import Seminorm, Weighted
from .sets import (
    Ball,
    Intersect,
    MPlusBall,
    Scale,
    SetDescriptor,
    Translate,
    contains,
    core_point,
    excluding_radius,
    gauge_closed_form,
    _scaled,
)
from . import sampling
from ._common import (  # re-exported: the records live in the leaf module
    CounterexampleFamily,
    EvidenceStep,
    FromSeminorms,
    NeighborhoodBase,
    UnsupportedShape,
    UsageError,
    _check_atom,
    ratio_text,
    record,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from fractions import Fraction


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
    """
    for r in (eps, delta):
        if not classify(r).in_L0_plusplus:
            raise UsageError("radii must be strictly positive everywhere")
    meet = emin(eps, delta)
    half = _scaled(eps, 1, 2)
    ratio = divide(delta, eps)
    rng = sampling.make_rng(seed)
    u_eps, u_delta = base.base_set(eps), base.base_set(delta)
    u_meet, u_half, u_ratio = (
        base.base_set(meet),
        base.base_set(half),
        base.base_set(ratio),
    )

    def draw():
        x = sampling.sample_member(u_meet, rng)
        a, b = sampling.sample_member(u_half, rng), sampling.sample_member(u_half, rng)
        y = sampling.sample_member(u_ratio, rng)
        checks = {
            "meet": contains(u_eps, x) and contains(u_delta, x),
            "sum": contains(u_eps, a + b),
            "scaling": contains(u_delta, eps * y),
        }
        return checks, {
            "meet_witness": meet,
            "sum_witness": half,
            "scaling_witness": ratio,
            "meet_point": x,
            "sum_points": (a, b),
            "scaling_point": y,
        }

    return sampling.tally(samples, draw)


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


@record(frozen=True)
class SeparationWitness:
    """A radius eps with point not in U(eps), from `sets.excluding_radius`."""

    point: EcRv
    epsilon: EcRv
    excluded: bool  # re-checked: contains(U(epsilon), point) is False


@record(frozen=True)
class ClosureResult:
    member: bool
    separation: SeparationWitness | None = None


def closure_membership(base: NeighborhoodBase, x: EcRv) -> ClosureResult:
    """Membership of x in the closure of {0} under the base.

    Each base set puts its radius into one set shape, and the closure is
    what that shape holds at every radius: M for the degenerate base (as
    is the closure of M), the family's common kernel for a seminorm
    base.  A point outside carries a separation witness.
    """
    eps = excluding_radius(base.base_set(ONE), x)
    if eps is None:
        return ClosureResult(True)
    return ClosureResult(False, SeparationWitness(x, eps, not contains(base.base_set(eps), x)))


# -- Hausdorff diagnosis ----------------------------------------------------


def hausdorff_report(
    base: NeighborhoodBase, samples: int = 100, seed: int = 0
) -> sampling.Tally:
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
        separation = closure_membership(base, x - y).separation
        example = {"witness": None, "x": x, "y": y, "epsilon": separation.epsilon}
        return {"separated": separation.excluded}, example

    return sampling.tally(samples, separated if witness is None else held_by_base_set)


def _hausdorff_step(base: NeighborhoodBase, samples: int, seed: int) -> EvidenceStep:
    report = hausdorff_report(base, samples=samples, seed=seed)
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


# -- gauge certificates -------------------------------------------------------

# The default certificate tolerance, the constant element 2**-20, and the
# default probe atoms.
DEFAULT_TOLERANCE = _make(2**20, {}, 1)
DEFAULT_PROBE_ATOMS = tuple(range(1, 33))


@record(frozen=True)
class GaugeCertificate:
    """A re-checkable upper bound on the gauge of `point` in `target_set`.

    The witness is strictly positive, `point in witness * target_set`
    holds by the membership test alone, and at every probe atom the
    witness does not exceed the claimed bound by more than tolerance, a
    positive constant element.
    """

    target_set: SetDescriptor
    point: EcRv
    witness: EcRv
    probe_atoms: tuple[int, ...]
    claimed_bound: EcRv
    tolerance: EcRv


def verify_certificate(cert: GaugeCertificate) -> bool:
    if not classify(cert.witness).in_L0_plusplus:
        return False
    if not contains(Scale(cert.witness, cert.target_set), cert.point):
        return False
    return _leq_at(cert.witness, cert.claimed_bound, cert.probe_atoms, cert.tolerance)


def gauge_upper_certificate(
    s: SetDescriptor,
    x: EcRv,
    probe_atoms: Iterable[int] = DEFAULT_PROBE_ATOMS,
    tol: EcRv | int | Fraction = DEFAULT_TOLERANCE,
) -> GaugeCertificate:
    """A certificate for the gauge of x in s; `tol` is a positive rational
    or constant element, kept as a constant element."""
    probes = tuple(probe_atoms)
    tol = _coerce(tol)
    if tol._n or tol._t <= 0:
        raise ValueError("tolerance must be a positive constant")
    bound = gauge_closed_form(s, x)
    witness = _certificate_witness(s, x, probes, tol)
    return GaugeCertificate(s, x, witness, probes, bound, tol)


def _certificate_witness(
    s: SetDescriptor, x: EcRv, probes: tuple[int, ...], tol: EcRv
) -> EcRv:
    """The witness of a certificate for the constant tolerance `tol`."""
    if x.is_zero():
        return _scaled(tol, 1, 2)
    if isinstance(s, MPlusBall):
        # membership only constrains the tail; the probe atoms can sit
        # at the tolerance because finite excursions are absorbed by M
        # the tail is max(1, |tail(x)| / tail(radius)), on the integer numerators
        p, q = _abs_tail_ratio(x, s.radius)
        ratio = (tol._t, tol._d)
        over = dict.fromkeys(map(_check_atom, probes), ratio)
        return _from_ratios(over, (p, q) if p > q else (1, 1))
    if isinstance(s, Scale):
        return _certificate_witness(s.inner, reciprocal(s.factor) * x, probes, tol)
    if isinstance(s, Translate) and s.offset.is_zero():
        return _certificate_witness(s.inner, x, probes, tol)
    if isinstance(s, Intersect):
        # the larger scaling holds x in every balanced member at once; on
        # ball members this is the intersection's closed form plus tol/2
        witness = _certificate_witness(s.members[0], x, probes, tol)
        for member in s.members[1:]:
            witness = emax(witness, _certificate_witness(member, x, probes, tol))
        return witness
    if isinstance(s, Ball):
        return gauge_closed_form(s, x) + _scaled(tol, 1, 2)
    raise UnsupportedShape(f"no gauge certificate for {type(s).__name__}")


def _leq_at(x: EcRv, y: EcRv, atoms, slack: EcRv) -> bool:
    """x(j) <= y(j) + slack at every atom j of `atoms`, for a constant slack."""
    dx, dy, p, q = x._d, y._d, slack._t, slack._d
    xn, yn, xt, yt = x._n, y._n, x._t, y._t
    # a/dx <= b/dy + p/q  iff  a*dy*q <= (b*q + p*dy)*dx, all denominators positive
    return all(xn.get(j, xt) * dy * q <= (yn.get(j, yt) * q + p * dy) * dx for j in atoms)


def _abs_tail_ratio(x: EcRv, y: EcRv) -> tuple[int, int]:
    """|tail(x)| / tail(y) as an (integer, positive integer) pair, for y
    with a positive tail; not reduced."""
    return abs(x._t) * y._d, y._t * x._d


# -- the induction verdict ---------------------------------------------------


@record
class EvidenceReport:
    verdict: str  # "induced" | "not_induced"
    family: tuple[Seminorm, ...] | None
    steps: list[EvidenceStep]
    seed: int

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)


def seminorm_induction_verdict(
    base: NeighborhoodBase,
    seed: int = 0,
    samples: int = 20,
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
        steps += _not_induced_steps(base, seed, samples)
    else:
        steps.append(
            sampling.roundtrip_check(unit, samples, seed).step(
                "gauge_membership_roundtrip",
                "membership in a base ball agrees with gauge <= 1",
                "{failed} mismatches",
                ball_radius=repr(ONE),
            )
        )
    steps.append(_hausdorff_step(base, samples, seed))
    if not degenerate:
        return EvidenceReport("induced", unit.seminorms, steps, seed)

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
    """One evidence step over `samples` draws of `sampling.tally`, with the
    example's values among its inputs; `observed` is a `Tally.step`
    template."""
    report = sampling.tally(samples, draw)
    example = {k: repr(v) for k, v in report.example.items()}
    return report.step(name, expected, observed, **inputs, **example)


def _not_induced_steps(base: NeighborhoodBase, seed: int, samples: int) -> list[EvidenceStep]:
    rng = sampling.make_rng(seed)

    # 1. every base-set gauge collapses to zero: the certificate checks,
    #    by membership alone, a witness within tolerance of the closed form
    #    on the default probe atoms; the witness takes the tolerance itself
    #    (half of it at zero) there, so neither default can change the flag
    def degenerate():
        u = base.base_set(sampling.random_positive_ecrv(rng))
        cert = gauge_upper_certificate(u, sampling.random_ecrv(rng))
        return {"verifies": verify_certificate(cert)}, {"example_witness": cert.witness}

    # 2. gauges shrink under inclusion: the order ball of the same radius
    #    lies in the base set; that its gauge is the larger one needs no
    #    sample, since the base set's gauge is the zero closed form of step 1
    def monotone():
        radius = sampling.random_positive_ecrv(rng)
        u, inner = base.base_set(radius), Ball((Weighted(ONE),), radius)
        return {"contained": contains(u, sampling.sample_member(inner, rng))}, {}

    # 3. M is a proper closed submodule, so the topology is not trivial:
    #    each point outside M is excluded from some base set, and each
    #    point of M lies in the closure of {0}
    def proper():
        separation = closure_membership(base, sampling.random_nonzero_tail_ecrv(rng)).separation
        inside = sampling.random_finite_support_ecrv(rng)
        closed = closure_membership(base, inside).member
        return {"excluded": separation.excluded, "closed": closed}, {
            "example_point": separation.point,
            "example_epsilon": separation.epsilon,
            "example_inside": inside,
        }

    # 4. gluing leaves the base sets: finitely supported pieces, escaping glue
    def escaping():
        radius = sampling.random_positive_ecrv(rng)
        failure = concatenation.cc_failure_witness(base.base_set(radius), radius)
        example = {"example_radius": failure.radius, "example_glue": failure.glue}
        return {"valid": failure.valid}, example

    return [
        _sampled_step(
            "gauge_degeneracy", samples, degenerate,
            "every gauge certificate verifies against the zero closed form",
            "{held}/{samples} certificates verify",
            tolerance=ratio_text(DEFAULT_TOLERANCE._t, DEFAULT_TOLERANCE._d),
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
