"""Seeded random generators for the checker machinery.

Defaults follow the reproducibility contract: at most 8 overrides on
atoms 1..16, numerators and denominators bounded by 2**16, and every
stream derived from an explicit seed.

The members of a set (`sample_member`) and the gauge/membership
roundtrip are drawn here too: only the sampled commands call them, and
every one of those loads this module, where `eval` and `check cc`,
which load `sets`, never call them.  They reach the set shapes through
the `sets` module object, so loading this module runs no set code.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import reduce

from . import l0, seminorms, sets  # bound lazily: `sets` runs when a member is drawn
from ._common import EvidenceStep, UsageError, record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .l0 import EcRv
    from .sets import SetDescriptor

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


@record
class Tally:
    """What `tally` saw over `samples` draws."""

    samples: int
    failures: Counter  # check name -> the number of draws that failed it
    held: int  # the number of draws that held every check
    example: dict  # the first failing draw's example, or the last draw's

    @property
    def passed(self) -> bool:
        return not any(self.failures.values())

    def step(self, name: str, expected: str, observed: str, **inputs) -> EvidenceStep:
        """The evidence step these draws decide: it passes iff no check
        failed, and its inputs are `samples` plus `inputs`.  `observed` is
        a `str.format` template over the fields, and `failed`, the number
        of draws that failed some check: "{failures[meet]}",
        "{example[witness]!r}" or "{failed} mismatches"."""
        return EvidenceStep(
            name,
            {"samples": self.samples, **inputs},
            expected,
            observed.format(**vars(self), failed=self.samples - self.held),
            self.passed,
        )


def tally(samples: int, draw) -> Tally:
    """Call `draw()` `samples` times and count what its checks found.

    A draw returns its checks, a dict from each check's name to whether
    it held, and its example, a dict of the values that describe the
    draw.  Every sampled check of the package is one call of this loop,
    and every sampled report step is the `step` of its tally.
    """
    require_samples(samples)
    failures = Counter()
    held = 0
    first = None
    for _ in range(samples):
        checks, example = draw()
        for name, ok in checks.items():
            failures[name] += not ok
        if all(checks.values()):
            held += 1
        elif first is None:
            first = example
    return Tally(samples, failures, held, example if first is None else first)


# Every draw below reproduces a `random.Random` method on `getrandbits`:
# `_below` is `_randbelow`, and `randint`, `sample` and `choice` are it
# plus an offset or an index.  Values and the generator's state after
# each draw are the method's own, without its layers of calls.


def _below(rng: random.Random, n: int) -> int:
    """`rng.randrange(n)`: n.bit_length() bits, drawn until below n."""
    k = n.bit_length()
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _ratio(rng: random.Random) -> tuple[int, int]:
    """`(randint(-BOUND, BOUND), randint(1, BOUND))`."""
    return _below(rng, 2 * BOUND + 1) - BOUND, _below(rng, BOUND) + 1


def _positive_ratio(rng: random.Random) -> tuple[int, int]:
    """`(randint(1, BOUND), randint(1, BOUND))`."""
    return _below(rng, BOUND) + 1, _below(rng, BOUND) + 1


def _unit_ratio(rng: random.Random) -> tuple[int, int]:
    """A ratio p/q in [0, 1]: q = randint(1, BOUND), then p = randint(0, q)."""
    d = _below(rng, BOUND) + 1
    return _below(rng, d + 1), d


def _sign(rng: random.Random) -> int:
    """`rng.choice((-1, 1))`."""
    return 2 * _below(rng, 2) - 1


def _random_atoms(rng: random.Random) -> list[int]:
    """`rng.sample(range(1, ATOM_SPAN + 1), randint(0, MAX_OVERRIDES))`.

    On a population of at most 21, `sample` draws each pick from a pool
    of the atoms not yet picked and moves the pool's last atom into the
    vacancy; this is that loop.
    """
    count = _below(rng, MAX_OVERRIDES + 1)
    pool = list(range(1, ATOM_SPAN + 1))
    picked = []
    for n in range(ATOM_SPAN, ATOM_SPAN - count, -1):
        j = _below(rng, n)
        picked.append(pool[j])
        pool[j] = pool[n - 1]
    return picked


# The element samplers draw (numerator, denominator) pairs, not Fractions,
# and the kernel builds the element from them over one common denominator.


def random_ecrv(rng: random.Random, draw=_ratio):
    """Random overrides, then the tail, each value drawn as a pair by `draw`."""
    return l0._from_ratios({j: draw(rng) for j in _random_atoms(rng)}, draw(rng))


def random_positive_ecrv(rng: random.Random):
    """An element of the strictly positive cone, e.g. a radius."""
    return random_ecrv(rng, draw=_positive_ratio)


def random_finite_support_ecrv(rng: random.Random):
    """A member of M: zero tail, random overrides."""
    return l0._from_ratios({j: _ratio(rng) for j in _random_atoms(rng)}, (0, 1))


def random_nonzero_tail_ecrv(rng: random.Random):
    """An element outside M: the tail is forced nonzero."""
    tail = (0, 1)
    while tail[0] == 0:
        tail = _ratio(rng)
    return l0._from_ratios({j: _ratio(rng) for j in _random_atoms(rng)}, tail)


# -- members of a set, and the gauge/membership roundtrip --------------------


def sample_member(s: SetDescriptor, rng: random.Random) -> EcRv:
    """A random element of the set, boundary included for ball shapes."""
    if isinstance(s, sets.Ball):
        x = random_ecrv(rng)
        g = sets.gauge_closed_form(s, x)
        if rng.random() < 0.25 and l0.classify(g).in_L0_plusplus:
            return x * l0.reciprocal(g)  # gauge exactly one: a boundary point
        p, q = _unit_ratio(rng)  # x scaled by p/q in [0, 1]
        return sets._scaled(x, p, q) * l0.reciprocal(l0.ONE + g)
    if isinstance(s, sets.MPlusBall):
        x = random_ecrv(rng)
        p, q = _unit_ratio(rng)
        r = s.radius  # the tail is +-p/q times the radius's tail
        return sets._with_tail(x, _sign(rng) * p * r._t, q * r._d)
    if isinstance(s, sets.Scale):
        return s.factor * sample_member(s.inner, rng)
    if isinstance(s, sets.Translate):
        return s.offset + sample_member(s.inner, rng)
    if isinstance(s, sets.Intersect):
        # halving any candidate eventually lands in a balanced absorbent set
        candidate = sample_member(s.members[0], rng)
        for _ in range(128):
            if sets.contains(s, candidate):
                return candidate
            candidate = sets._scaled(candidate, 1, 2)
        if sets.contains(s, l0.ZERO):
            return l0.ZERO
        raise ValueError(f"could not sample a member of {s!r}")
    raise TypeError(f"not a set descriptor: {s!r}")


def roundtrip_check(target, samples: int, seed: int) -> Tally:
    """Check that gauges and membership determine each other.

    For a ball of seminorms (a seminorm p stands for its unit ball): the
    gauge closed form equals the family's own evaluation, the max of
    ||x||_p over the radius, so a wrong `Ball.coefficient` is caught.
    For every set: membership agrees with gauge <= 1 everywhere, and
    gauge < 1 at every atom forces membership.  The checks are `gauge`,
    `membership` and `strict`; the example is the drawn point `x`.
    """
    rng = make_rng(seed)
    one = l0.ONE
    ball = target if isinstance(target, sets.SetDescriptor) else sets.Ball((target,), one)
    # alternate free points with members so the boundary gets exercised
    members = itertools.cycle((False, True))

    def draw():
        x = sample_member(ball, rng) if next(members) else random_ecrv(rng)
        g = sets.gauge_closed_form(ball, x)
        reproduced = not isinstance(ball, sets.Ball) or g == l0.divide(
            reduce(l0.emax, (seminorms.evaluate(p, x) for p in ball.seminorms)), ball.radius
        )
        member = sets.contains(ball, x)
        checks = {
            "gauge": reproduced,
            "membership": member == l0.leq_everywhere(g, one),
            "strict": not (l0.lt_everywhere(g, one) and not member),
        }
        return checks, {"x": x}

    return tally(samples, draw)
