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
from typing import Callable, Union

from ._record import field, record
from .l0 import EcRv, ZERO, classify, combine, emax, indicator, leq_everywhere
from .measure import EventSet
from . import sampling


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


Seminorm = Union[Zero, Weighted, Localized, FiniteSup]

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


@record
class AxiomsReport:
    samples: int
    homogeneity_failures: int = 0
    triangle_failures: int = 0
    witnesses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.homogeneity_failures == 0 and self.triangle_failures == 0


def axioms_check(
    s: Seminorm | Callable[[EcRv], EcRv], sample_count: int, seed: int
) -> AxiomsReport:
    """Check homogeneity and the triangle inequality on random samples.

    Accepts either a grammar descriptor or a bare evaluator callable so
    deliberately broken fixtures can be probed.  Failures are collected
    as witness triples, not raised.
    """
    sampling.require_samples(sample_count)
    ev = s if callable(s) else (lambda x: evaluate(s, x))
    rng = sampling.make_rng(seed)
    report = AxiomsReport(samples=sample_count)
    for _ in range(sample_count):
        scalar = sampling.random_ecrv(rng)
        x = sampling.random_ecrv(rng)
        y = sampling.random_ecrv(rng)
        if ev(combine("mul", scalar, x)) != combine("mul", abs(scalar), ev(x)):
            report.homogeneity_failures += 1
            report.witnesses.append(("homogeneity", scalar, x))
        if not leq_everywhere(ev(x + y), ev(x) + ev(y)):
            report.triangle_failures += 1
            report.witnesses.append(("triangle", x, y))
    # a nonzero offset at the origin is the cheapest homogeneity breaker
    if ev(ZERO) != ZERO:
        report.homogeneity_failures += 1
        report.witnesses.append(("homogeneity", ZERO, ZERO))
    return report
