"""A closed grammar of vector-valued seminorms with exact evaluation.

Every seminorm here is ||x|| = c * |x| for one fixed nonnegative EcRv c,
its `coefficient`: 0 for `Zero`, the weight for `Weighted`, the
indicator of the event for `Localized`, and the pointwise maximum of the
members' coefficients for `FiniteSup`, since max_i(c_i * t) is
(max_i c_i) * t for t >= 0.  Evaluation is one multiply, so homogeneity
||s*x|| = |s|*||x|| and the triangle inequality hold by construction.
The randomized checker `axioms_check` samples both axioms of one
descriptor through `evaluate`, so it guards the grammar against a broken
evaluator rather than establishing the axioms for the shipped shapes; it
lives in `_cli_check`, with `check axioms`, the one command that calls it.
"""

from __future__ import annotations

from functools import cached_property, reduce

from .l0 import EcRv, ZERO, classify, combine, emax, indicator
from ._common import EventSet, record


@record
class Zero:
    """The zero seminorm."""

    @property
    def coefficient(self) -> EcRv:
        return ZERO


@record
class Weighted:
    """||x|| = weight * |x| with a nonnegative weight."""

    weight: EcRv

    def __post_init__(self):
        if not classify(self.weight).in_L0_plus:
            raise ValueError("weight must be nonnegative everywhere")

    @property
    def coefficient(self) -> EcRv:
        return self.weight


@record
class Localized:
    """||x|| = |x| on the event, 0 off it."""

    event: EventSet

    @cached_property
    def coefficient(self) -> EcRv:
        return indicator(self.event)


@record
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
