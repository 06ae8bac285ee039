"""Seeded random generators for the checker machinery and the test suite.

Defaults follow the reproducibility contract: at most 8 overrides on
atoms 1..16, numerators and denominators bounded by 2**16, and every
stream derived from an explicit seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ._common import UsageError
from .measure import EventSet

MAX_OVERRIDES = 8
ATOM_SPAN = 16
BOUND = 2**16


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def require_samples(samples: int) -> None:
    """Reject a sample count below 1: a check over no samples passes vacuously."""
    if samples < 1:
        raise UsageError(f"samples must be at least 1, got {samples}")


def _randint(rng: random.Random, a: int, b: int) -> int:
    """`rng.randint(a, b)`: the same value and the same rng state after it,
    from `Random._randbelow`'s own rejection loop over `getrandbits`,
    without the `randint -> randrange -> _randbelow` calls."""
    n = b - a + 1
    if n < 1:  # getrandbits could never draw below n
        raise ValueError(f"empty range in randint({a}, {b})")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return a + r


def _ratio(rng: random.Random) -> tuple[int, int]:
    return _randint(rng, -BOUND, BOUND), _randint(rng, 1, BOUND)


def _positive_ratio(rng: random.Random) -> tuple[int, int]:
    return _randint(rng, 1, BOUND), _randint(rng, 1, BOUND)


def _unit_ratio(rng: random.Random) -> tuple[int, int]:
    d = _randint(rng, 1, BOUND)
    return _randint(rng, 0, d), d


def random_positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(*_positive_ratio(rng))


def random_unit_fraction(rng: random.Random) -> Fraction:
    """Uniform-ish rational in [0, 1]."""
    return Fraction(*_unit_ratio(rng))


def _random_atoms(rng: random.Random, span: int = ATOM_SPAN) -> list[int]:
    count = _randint(rng, 0, MAX_OVERRIDES)
    return rng.sample(range(1, span + 1), min(count, span))


# The element samplers draw (numerator, denominator) pairs, not Fractions,
# and the kernel builds the element from them over one common denominator.


def random_ecrv(rng: random.Random, draw=_ratio):
    """Random overrides, then the tail, each value drawn as a pair by `draw`."""
    from .l0 import _from_ratios

    return _from_ratios({j: draw(rng) for j in _random_atoms(rng)}, draw(rng))


def _nonnegative_ratio(rng: random.Random) -> tuple[int, int]:
    p, q = _ratio(rng)
    return abs(p), q


def random_nonnegative_ecrv(rng: random.Random):
    return random_ecrv(rng, draw=_nonnegative_ratio)


def random_positive_ecrv(rng: random.Random):
    """An element of the strictly positive cone, e.g. a radius."""
    return random_ecrv(rng, draw=_positive_ratio)


def random_unit_interval_ecrv(rng: random.Random):
    """Values in [0, 1]: a convex-combination coefficient."""
    return random_ecrv(rng, draw=_unit_ratio)


def _balanced_ratio(rng: random.Random) -> tuple[int, int]:
    p, q = _unit_ratio(rng)
    return p * rng.choice((-1, 1)), q


def random_balanced_factor(rng: random.Random):
    """Values in [-1, 1]: a balancing multiplier."""
    return random_ecrv(rng, draw=_balanced_ratio)


def random_finite_support_ecrv(rng: random.Random):
    """A member of M: zero tail, random overrides."""
    from .l0 import _from_ratios

    return _from_ratios({j: _ratio(rng) for j in _random_atoms(rng)}, (0, 1))


def random_nonzero_tail_ecrv(rng: random.Random):
    """An element outside M: the tail is forced nonzero."""
    from .l0 import _from_ratios

    tail = (0, 1)
    while tail[0] == 0:
        tail = _ratio(rng)
    return _from_ratios({j: _ratio(rng) for j in _random_atoms(rng)}, tail)


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
        random_seminorm(rng, depth - 1) for _ in range(_randint(rng, 1, 3))
    )
    return seminorms.FiniteSup(members)
