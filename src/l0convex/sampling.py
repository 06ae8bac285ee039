"""Seeded random generators for the checker machinery and the test suite.

Defaults follow the reproducibility contract: at most 8 overrides on
atoms 1..16, numerators and denominators bounded by 2**16, and every
stream derived from an explicit seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .measure import EventSet

MAX_OVERRIDES = 8
ATOM_SPAN = 16
BOUND = 2**16


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def require_samples(samples: int) -> None:
    """Reject a sample count below 1: a check over no samples passes vacuously."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def random_fraction(rng: random.Random, lo: int = -BOUND, hi: int = BOUND) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, BOUND))


def random_positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, BOUND), rng.randint(1, BOUND))


def random_unit_fraction(rng: random.Random) -> Fraction:
    """Uniform-ish rational in [0, 1]."""
    d = rng.randint(1, BOUND)
    return Fraction(rng.randint(0, d), d)


def _random_atoms(rng: random.Random, span: int = ATOM_SPAN) -> list[int]:
    count = rng.randint(0, MAX_OVERRIDES)
    return rng.sample(range(1, span + 1), min(count, span))


def random_ecrv(rng: random.Random, value=random_fraction):
    from .l0 import EcRv

    return EcRv({j: value(rng) for j in _random_atoms(rng)}, value(rng))


def random_nonnegative_ecrv(rng: random.Random):
    return random_ecrv(rng, value=lambda r: abs(random_fraction(r)))


def random_positive_ecrv(rng: random.Random):
    """An element of the strictly positive cone, e.g. a radius."""
    return random_ecrv(rng, value=random_positive_fraction)


def random_unit_interval_ecrv(rng: random.Random):
    """Values in [0, 1]: a convex-combination coefficient."""
    return random_ecrv(rng, value=random_unit_fraction)


def random_balanced_factor(rng: random.Random):
    """Values in [-1, 1]: a balancing multiplier."""
    return random_ecrv(
        rng, value=lambda r: random_unit_fraction(r) * r.choice((-1, 1))
    )


def random_finite_support_ecrv(rng: random.Random):
    """A member of M: zero tail, random overrides."""
    from .l0 import EcRv

    return EcRv({j: random_fraction(rng) for j in _random_atoms(rng)}, 0)


def random_nonzero_tail_ecrv(rng: random.Random):
    """An element outside M: the tail is forced nonzero."""
    from .l0 import EcRv

    tail = Fraction(0)
    while tail == 0:
        tail = random_fraction(rng)
    return EcRv({j: random_fraction(rng) for j in _random_atoms(rng)}, tail)


def random_event(rng: random.Random, span: int = ATOM_SPAN) -> EventSet:
    return EventSet(_random_atoms(rng, span), cofinite=rng.random() < 0.5)


def random_seminorm(rng: random.Random, depth: int = 1):
    from . import seminorms

    kinds = ["weighted", "localized"] + (["sup"] if depth > 0 else [])
    kind = rng.choice(kinds)
    if kind == "weighted":
        return seminorms.Weighted(random_nonnegative_ecrv(rng))
    if kind == "localized":
        return seminorms.Localized(random_event(rng))
    members = tuple(
        random_seminorm(rng, depth - 1) for _ in range(rng.randint(1, 3))
    )
    return seminorms.FiniteSup(members)
