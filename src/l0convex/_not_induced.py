"""The NotInduced argument: the four steps that rule out any inducing family.

`topology.seminorm_induction_verdict` imports this module only when the
base is degenerate (its gauges vanish while a base set excludes 1), so
the Induced verify and `check base` never compile it.  It holds the
steps `gauge_degeneracy`, `gauge_monotonicity`, `proper_closed_submodule`
and `concatenation_failure`, the report that ends them with
`zero_family_contradiction`, and the gauge certificates that the first
of them builds and re-checks: `GaugeCertificate`,
`gauge_upper_certificate`, `verify_certificate`, their witness and the
constants they hold to, `TOLERANCE` and `PROBE_ATOMS`.

The package functions it calls go through their module objects, so a
caller that rebinds one there (`sets.contains`, say) reaches these steps.
"""

from __future__ import annotations

from . import concatenation, l0, sampling, sets, topology
from .l0 import EcRv, ONE, _from_ratios, _make
from .seminorms import Weighted
from .sets import Ball, Intersect, MPlusBall, Scale, SetDescriptor, Translate, _scaled
from ._common import EvidenceStep, NeighborhoodBase, UnsupportedShape, ratio_text, record


# -- gauge certificates -------------------------------------------------------

# The certificate tolerance, the constant element 2**-20, and the probe
# atoms; a witness takes half the tolerance at the zero point, and an
# M + B witness takes the tolerance itself at each probe atom.
TOLERANCE = _make(2**20, {}, 1)
PROBE_ATOMS = tuple(range(1, 33))
_HALF_TOLERANCE = _scaled(TOLERANCE, 1, 2)
_PROBE_PAIRS = dict.fromkeys(PROBE_ATOMS, (TOLERANCE._t, TOLERANCE._d))


@record
class GaugeCertificate:
    """A re-checkable upper bound on the gauge of `point` in `target_set`.

    The witness is strictly positive, `point in witness * target_set`
    holds by the membership test alone, and at every atom of
    `PROBE_ATOMS` the witness does not exceed the claimed bound by more
    than `TOLERANCE`.
    """

    target_set: SetDescriptor
    point: EcRv
    witness: EcRv
    claimed_bound: EcRv


def verify_certificate(cert: GaugeCertificate) -> bool:
    if not sets._positive(cert.witness):
        return False
    if not sets.contains(Scale(cert.witness, cert.target_set), cert.point):
        return False
    return _leq_at(cert.witness, cert.claimed_bound, PROBE_ATOMS, TOLERANCE)


def gauge_upper_certificate(s: SetDescriptor, x: EcRv) -> GaugeCertificate:
    """A certificate for the gauge of x in s."""
    bound = sets.gauge_closed_form(s, x)
    return GaugeCertificate(s, x, _certificate_witness(s, x), bound)


def _certificate_witness(s: SetDescriptor, x: EcRv) -> EcRv:
    """The witness of a certificate."""
    if x.is_zero():
        return _HALF_TOLERANCE
    if isinstance(s, MPlusBall):
        # membership only constrains the tail; the probe atoms can sit
        # at the tolerance because finite excursions are absorbed by M
        # the tail is max(1, |tail(x)| / tail(radius)), on the integer numerators
        r = s.radius
        p, q = abs(x._t) * r._d, r._t * x._d
        return _from_ratios(_PROBE_PAIRS, (p, q) if p > q else (1, 1))
    if isinstance(s, Scale):
        return _certificate_witness(s.inner, l0.reciprocal(s.factor) * x)
    if isinstance(s, Translate) and s.offset.is_zero():
        return _certificate_witness(s.inner, x)
    if isinstance(s, Intersect):
        # the larger scaling holds x in every balanced member at once; on
        # ball members this is the intersection's closed form plus half the tolerance
        witness = _certificate_witness(s.members[0], x)
        for member in s.members[1:]:
            witness = l0.emax(witness, _certificate_witness(member, x))
        return witness
    if isinstance(s, Ball):
        return sets.gauge_closed_form(s, x) + _HALF_TOLERANCE
    raise UnsupportedShape(f"no gauge certificate for {type(s).__name__}")


def _leq_at(x: EcRv, y: EcRv, atoms, slack: EcRv) -> bool:
    """x(j) <= y(j) + slack at every atom j of `atoms`, for a constant slack."""
    dx, dy, p, q = x._d, y._d, slack._t, slack._d
    xn, yn, xt, yt = x._n, y._n, x._t, y._t
    # a/dx <= b/dy + p/q  iff  a*dy*q <= (b*q + p*dy)*dx, all denominators positive
    return all(xn.get(j, xt) * dy * q <= (yn.get(j, yt) * q + p * dy) * dx for j in atoms)


# -- the NotInduced steps -----------------------------------------------------

_ORDER_FAMILY = (Weighted(ONE),)  # the family of the order balls B_eps


def _sampled_step(
    name: str, samples: int, draw, expected: str, observed: str, **inputs
) -> EvidenceStep:
    """One evidence step over `samples` draws of `sampling.tally`, with the
    example's values among its inputs; `observed` is a `Tally.step`
    template."""
    report = sampling.tally(samples, draw)
    example = {k: repr(v) for k, v in report.example.items()}
    return report.step(name, expected, observed, **inputs, **example)


def _not_induced_report(
    base: NeighborhoodBase, seed: int, samples: int, prior: list[EvidenceStep]
) -> topology.EvidenceReport:
    """The NotInduced report: the `prior` steps, the four steps of the
    argument, the Hausdorff diagnosis and the contradiction they give."""
    steps = [*prior, *_not_induced_steps(base, seed, samples)]
    step = topology._hausdorff_step(base, samples, seed)
    if "witness" not in step.inputs:  # the argument needs M in the closure of {0}
        expected = "a nonzero point of M lies in every sampled base set"
        step = EvidenceStep(step.name, step.inputs, expected, step.observed, False)
    steps.append(step)
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
    return topology.EvidenceReport("not_induced", None, tuple(steps))


def _not_induced_steps(base: NeighborhoodBase, seed: int, samples: int) -> list[EvidenceStep]:
    rng = sampling.make_rng(seed)

    # 1. every base-set gauge collapses to zero: the certificate checks,
    #    by membership alone, a witness within tolerance of the closed form
    #    on the probe atoms; the witness takes the tolerance itself (half of
    #    it at zero) there, so neither constant can change the flag
    def degenerate():
        u = base.base_set(sampling.random_positive_ecrv(rng))
        cert = gauge_upper_certificate(u, sampling.random_ecrv(rng))
        return {"verifies": verify_certificate(cert)}, {"example_witness": cert.witness}

    # 2. gauges shrink under inclusion: the order ball of the same radius
    #    lies in the base set; that its gauge is the larger one needs no
    #    sample, since the base set's gauge is the zero closed form of step 1.
    #    Every base set here is an M + B (a ball is never degenerate), whose
    #    membership reads the tail alone, so the member's tail decides.
    def monotone():
        radius = sampling.random_positive_ecrv(rng)
        u = base.base_set(radius)
        parts = sampling._member_parts(Ball(_ORDER_FAMILY, radius), rng)
        return {"contained": sets.contains(u, topology._tail(parts))}, {}

    # 3. M is a proper closed submodule, so the topology is not trivial:
    #    each point outside M is excluded from some base set, and each
    #    point of M lies in the closure of {0}
    def proper():
        point = sampling.random_nonzero_tail_ecrv(rng)
        separation = topology.closure_membership(base, point)
        inside = sampling.random_finite_support_ecrv(rng)
        closed = topology.closure_membership(base, inside) is None
        return {"excluded": separation.excluded, "closed": closed}, {
            "example_point": separation.point,
            "example_epsilon": separation.epsilon,
            "example_inside": inside,
        }

    # 4. gluing leaves the base sets: finitely supported pieces, escaping glue
    def escaping():
        radius = sampling.random_positive_ecrv(rng)
        entry = concatenation.cc_failure_witness(base.base_set(radius), radius)
        example = {"example_radius": radius, "example_glue": entry.glue}
        return {"valid": entry.counterexample}, example

    return [
        _sampled_step(
            "gauge_degeneracy", samples, degenerate,
            "every gauge certificate verifies against the zero closed form",
            "{held}/{samples} certificates verify",
            tolerance=ratio_text(TOLERANCE._t, TOLERANCE._d),
            probe_atoms=f"{PROBE_ATOMS[0]}..{PROBE_ATOMS[-1]}",
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
