"""The NotInduced argument: the four steps that rule out any inducing family.

`topology.seminorm_induction_verdict` imports this module only when the
base is degenerate (its gauges vanish while a base set excludes 1), so
the Induced verify and `check base` never compile it.  It holds the
steps `gauge_degeneracy`, `gauge_monotonicity`, `proper_closed_submodule`
and `concatenation_failure`, the report that ends them with
`zero_family_contradiction`, and the gauge certificates that the first
of them builds and re-checks: `GaugeCertificate`,
`gauge_upper_certificate`, `verify_certificate`, their witness and the
defaults `DEFAULT_TOLERANCE` and `DEFAULT_PROBE_ATOMS`.

The package functions it calls go through their module objects, so a
caller that rebinds one there (`sets.contains`, say) reaches these steps.
"""

from __future__ import annotations

from . import concatenation, l0, sampling, sets, topology
from .l0 import EcRv, ONE, _coerce, _from_ratios, _make
from .seminorms import Weighted
from .sets import Ball, Intersect, MPlusBall, Scale, SetDescriptor, Translate, _scaled
from ._common import EvidenceStep, NeighborhoodBase, UnsupportedShape, _check_atom
from ._common import ratio_text, record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from fractions import Fraction


# -- gauge certificates -------------------------------------------------------

# The default certificate tolerance, the constant element 2**-20, and the
# default probe atoms.
DEFAULT_TOLERANCE = _make(2**20, {}, 1)
DEFAULT_PROBE_ATOMS = tuple(range(1, 33))


@record
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
    if not sets._positive(cert.witness):
        return False
    if not sets.contains(Scale(cert.witness, cert.target_set), cert.point):
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
    bound = sets.gauge_closed_form(s, x)
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
        if probes is not DEFAULT_PROBE_ATOMS:  # the defaults are valid atoms
            probes = map(_check_atom, probes)
        over = dict.fromkeys(probes, ratio)
        return _from_ratios(over, (p, q) if p > q else (1, 1))
    if isinstance(s, Scale):
        return _certificate_witness(s.inner, l0.reciprocal(s.factor) * x, probes, tol)
    if isinstance(s, Translate) and s.offset.is_zero():
        return _certificate_witness(s.inner, x, probes, tol)
    if isinstance(s, Intersect):
        # the larger scaling holds x in every balanced member at once; on
        # ball members this is the intersection's closed form plus tol/2
        witness = _certificate_witness(s.members[0], x, probes, tol)
        for member in s.members[1:]:
            witness = l0.emax(witness, _certificate_witness(member, x, probes, tol))
        return witness
    if isinstance(s, Ball):
        return sets.gauge_closed_form(s, x) + _scaled(tol, 1, 2)
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
    steps.append(topology._hausdorff_step(base, samples, seed))
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
    #    on the default probe atoms; the witness takes the tolerance itself
    #    (half of it at zero) there, so neither default can change the flag
    def degenerate():
        u = base.base_set(sampling.random_positive_ecrv(rng))
        cert = gauge_upper_certificate(u, sampling.random_ecrv(rng))
        return {"verifies": verify_certificate(cert)}, {"example_witness": cert.witness}

    # 2. gauges shrink under inclusion: the order ball of the same radius
    #    lies in the base set; that its gauge is the larger one needs no
    #    sample, since the base set's gauge is the zero closed form of step 1.
    #    Membership in M + B reads the tail alone, so the member's tail decides.
    def monotone():
        radius = sampling.random_positive_ecrv(rng)
        u, inner = base.base_set(radius), Ball(_ORDER_FAMILY, radius)
        parts = sampling._member_parts(inner, rng)
        x = topology._tail(parts) if isinstance(u, MPlusBall) else sampling._member(parts)
        return {"contained": sets.contains(u, x)}, {}

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
