"""The (eps, lambda) neighborhoods of a seminorm family: no command reaches them.

`sup_evaluate` evaluates the pointwise maximum of a seminorm family, and
`epslambda_membership` decides membership in an (eps, lambda)
neighborhood.  The package exports both (`l0convex.sup_evaluate`), and
this module runs only when library code asks for one of them.
"""

from __future__ import annotations

from fractions import Fraction

from . import l0, seminorms
from ._common import EventSet
from .measure import CANONICAL, DiscreteSpace


def sup_evaluate(family, x: l0.EcRv) -> l0.EcRv:
    """Pointwise maximum of a finite family of seminorms at x."""
    family = tuple(family)
    if not family:
        raise ValueError("sup_evaluate needs at least one seminorm")
    return l0.combine("mul", seminorms._sup_coefficient(family), abs(x))


def epslambda_membership(
    family,
    eps: Fraction,
    lam: Fraction,
    x: l0.EcRv,
    space: DiscreteSpace = CANONICAL,
) -> bool:
    """Is P(sup-seminorm of x < eps) > 1 - lambda, computed exactly?

    The event is finite or cofinite: the overridden atoms below eps, and
    every other atom too when the tail is below eps."""
    eps, lam = Fraction(eps), Fraction(lam)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not 0 < lam < 1:
        raise ValueError("lambda must lie strictly between 0 and 1")
    norm = sup_evaluate(family, x)
    overrides = norm.overrides
    below = {j for j, value in overrides.items() if value < eps}
    if norm.tail < eps:
        event = EventSet.cofinite_excluding(overrides.keys() - below)
    else:
        event = EventSet.finite(below)
    return space.probability(event) > 1 - lam
