"""A closed grammar of vector-valued seminorms with exact evaluation.

Every seminorm here is ||x|| = c * |x| for one fixed nonnegative EcRv c,
its `coefficient`: 0 for `Zero`, the weight for `Weighted`, the
indicator of the event for `Localized`, and the pointwise maximum of the
members' coefficients for `FiniteSup`, since max_i(c_i * t) is
(max_i c_i) * t for t >= 0.  Evaluation is one multiply, so homogeneity
||s*x|| = |s|*||x|| and the triangle inequality hold by construction.
The randomized checker exists to validate test fixtures and any future
grammar extension, not to establish the axioms for the shipped shapes.
"""

from __future__ import annotations

from functools import cached_property, reduce

from ._record import record
from .l0 import EcRv, ZERO, classify, combine, emax, indicator, leq_everywhere
from .measure import EventSet
from . import sampling

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable


@record(frozen=True)
class Zero:
    """The zero seminorm."""

    @property
    def coefficient(self) -> EcRv:
        return ZERO


@record(frozen=True)
class Weighted:
    """||x|| = weight * |x| with a nonnegative weight."""

    weight: EcRv

    def __post_init__(self):
        if not classify(self.weight).in_L0_plus:
            raise ValueError("weight must be nonnegative everywhere")

    @property
    def coefficient(self) -> EcRv:
        return self.weight


@record(frozen=True)
class Localized:
    """||x|| = |x| on the event, 0 off it."""

    event: EventSet

    @cached_property
    def coefficient(self) -> EcRv:
        return indicator(self.event)


@record(frozen=True)
class FiniteSup:
    """Pointwise maximum of finitely many seminorms."""

    members: tuple["Seminorm", ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("FiniteSup needs at least one member")

    @cached_property
    def coefficient(self) -> EcRv:
        return _sup_coefficient(self.members)


Seminorm = Zero | Weighted | Localized | FiniteSup

_SHAPES = (Zero, Weighted, Localized, FiniteSup)


def _coefficient(s: Seminorm) -> EcRv:
    if isinstance(s, _SHAPES):
        return s.coefficient
    raise TypeError(f"not a seminorm descriptor: {s!r}")


def _sup_coefficient(family) -> EcRv:
    return reduce(emax, map(_coefficient, family))


def evaluate(s: Seminorm, x: EcRv) -> EcRv:
    """||x|| = coefficient * |x|: one multiply."""
    return combine("mul", _coefficient(s), abs(x))


def sup_evaluate(family, x: EcRv) -> EcRv:
    """Pointwise maximum of a finite family of seminorms at x."""
    family = tuple(family)
    if not family:
        raise ValueError("sup_evaluate needs at least one seminorm")
    return combine("mul", _sup_coefficient(family), abs(x))


def axioms_check(
    s: Seminorm | Callable[[EcRv], EcRv], sample_count: int, seed: int
) -> sampling.Tally:
    """Check homogeneity and the triangle inequality on random samples.

    Accepts either a grammar descriptor or a bare evaluator callable so
    deliberately broken fixtures can be probed.  Failures are counted per
    check, `homogeneity` and `triangle`, not raised; the example holds
    the draw's `scalar`, `x` and `y`.
    """
    ev = s if callable(s) else (lambda x: evaluate(s, x))
    rng = sampling.make_rng(seed)

    def draw():
        scalar, x, y = (sampling.random_ecrv(rng) for _ in range(3))
        return {
            "homogeneity": ev(combine("mul", scalar, x)) == combine("mul", abs(scalar), ev(x)),
            "triangle": leq_everywhere(ev(x + y), ev(x) + ev(y)),
        }, {"scalar": scalar, "x": x, "y": y}

    report = sampling.tally(sample_count, draw)
    # a nonzero offset at the origin is the cheapest homogeneity breaker,
    # and the simplest example of one
    if ev(ZERO) != ZERO:
        report.failures["homogeneity"] += 1
        report.example = {"scalar": ZERO, "x": ZERO, "y": ZERO}
    return report
