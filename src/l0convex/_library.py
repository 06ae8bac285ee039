"""The (eps, lambda) neighborhoods of a seminorm family: no command reaches them.

`epslambda_membership` decides membership in an (eps, lambda)
neighborhood, from the pointwise maximum of the family,
`seminorms.evaluate(FiniteSup(family), x)`.  The package exports it
(`l0convex.epslambda_membership`), and this module runs only when
library code asks for it.
"""

from __future__ import annotations

from fractions import Fraction

from . import l0, seminorms
from ._common import EventSet
from .measure import CANONICAL, DiscreteSpace


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
    norm = seminorms.evaluate(seminorms.FiniteSup(tuple(family)), x)
    overrides = norm.overrides
    below = {j for j, value in overrides.items() if value < eps}
    if norm.tail < eps:
        event = EventSet.cofinite_excluding(overrides.keys() - below)
    else:
        event = EventSet.finite(below)
    return space.probability(event) > 1 - lam
