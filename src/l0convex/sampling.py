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
    """The generator of a seeded check.  A negative seed is rejected:
    `random.Random` seeds by its absolute value, so -5 would alias 5."""
    if seed < 0:
        raise UsageError(f"seed must be at least 0, got {seed}")
    return random.Random(seed)


def require_samples(samples: int) -> None:
    """Reject a sample count below 1: a check over no samples passes vacuously."""
    if samples < 1:
        raise UsageError(f"samples must be at least 1, got {samples}")


# Every draw below reproduces a `random.Random` method on `getrandbits`:
# `_randbelow(n)` draws n.bit_length() bits until the value is below n,
# and `randint`, `sample` and `choice` are that loop plus an offset or an
# index.  Values and the generator's state after each draw are the
# method's own, without its layers of calls.


def _randint(rng: random.Random, a: int, b: int) -> int:
    """`rng.randint(a, b)`, for the bounds that vary from draw to draw."""
    n = b - a + 1
    if n < 1:  # getrandbits could never draw below n
        raise ValueError(f"empty range in randint({a}, {b})")
    k = n.bit_length()
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return a + r


_SPAN = 2 * BOUND + 1  # the numerators -BOUND..BOUND
_SPAN_BITS = _SPAN.bit_length()
_BOUND_BITS = BOUND.bit_length()


def _ratio(rng: random.Random) -> tuple[int, int]:
    """`(randint(-BOUND, BOUND), randint(1, BOUND))`."""
    getrandbits = rng.getrandbits
    p = getrandbits(_SPAN_BITS)
    while p >= _SPAN:
        p = getrandbits(_SPAN_BITS)
    q = getrandbits(_BOUND_BITS)
    while q >= BOUND:
        q = getrandbits(_BOUND_BITS)
    return p - BOUND, q + 1


def _positive_ratio(rng: random.Random) -> tuple[int, int]:
    """`(randint(1, BOUND), randint(1, BOUND))`."""
    getrandbits = rng.getrandbits
    p = getrandbits(_BOUND_BITS)
    while p >= BOUND:
        p = getrandbits(_BOUND_BITS)
    q = getrandbits(_BOUND_BITS)
    while q >= BOUND:
        q = getrandbits(_BOUND_BITS)
    return p + 1, q + 1


def _unit_ratio(rng: random.Random) -> tuple[int, int]:
    """A ratio p/q in [0, 1]: q = randint(1, BOUND), then p = randint(0, q)."""
    d = _randint(rng, 1, BOUND)
    return _randint(rng, 0, d), d


def _sign(rng: random.Random) -> int:
    """`rng.choice((-1, 1))`: `_randbelow(2)` draws two bits at a time."""
    getrandbits = rng.getrandbits
    r = getrandbits(2)
    while r >= 2:
        r = getrandbits(2)
    return 2 * r - 1


def random_positive_fraction(rng: random.Random) -> Fraction:
    return Fraction(*_positive_ratio(rng))


def _random_atoms(rng: random.Random) -> list[int]:
    """`rng.sample(range(1, ATOM_SPAN + 1), randint(0, MAX_OVERRIDES))`.

    On a population of at most 21, `sample` draws each pick from a pool
    of the atoms not yet picked and moves the pool's last atom into the
    vacancy; this is that loop.
    """
    count = _randint(rng, 0, MAX_OVERRIDES)
    getrandbits = rng.getrandbits
    pool = list(range(1, ATOM_SPAN + 1))
    picked = []
    for n in range(ATOM_SPAN, ATOM_SPAN - count, -1):
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        picked.append(pool[j])
        pool[j] = pool[n - 1]
    return picked


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
    return p * _sign(rng), q


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


def random_event(rng: random.Random) -> EventSet:
    return EventSet(_random_atoms(rng), cofinite=rng.random() < 0.5)


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
