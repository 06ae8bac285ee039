"""Seeded random generators for the checker machinery.

Defaults follow the reproducibility contract: at most 8 overrides on
atoms 1..16, numerators and denominators bounded by 2**16, and every
stream derived from an explicit seed.

Every value is drawn as `random.Random`'s `randint`, `sample`, `choice`
or `random` draws it, in the same order, so a seed gives the same
stream on every supported Python version.  An element is drawn in one
pass of integer draws (`_draw`) and built over one lcm; a ball or M + B
member is built from the drawn point's integer pairs, one value per
atom, and reduced once, with no element in between.  Those pairs are
also available unbuilt (`_member_parts`), in `_draw`'s form: the
member's pair at each atom it may name and its tail pair, so a check
that reads only its tail (membership in M + B) never builds it, and
`l0._from_ratios` builds it for a kept example.
The test reference `tests/reference.py` composes the same samplers from
kernel operations, and the tests hold the two equal, draw for draw.

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
from types import MappingProxyType

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
    """What `tally` saw over `samples` draws.  `failures` and `example`
    are read-only mappings over copies of the given ones."""

    samples: int
    failures: Counter  # check name -> the number of draws that failed it
    held: int  # the number of draws that held every check
    example: dict  # the first failing draw's example, or the last draw's

    def __post_init__(self):
        self.__dict__.update(
            failures=MappingProxyType(self.failures.copy()),
            example=MappingProxyType(self.example.copy()),
        )

    def __reduce__(self):  # copies and pickles rebuild through the constructor
        return Tally, (self.samples, self.failures.copy(), self.held, self.example.copy())

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
    draw, or a function of no arguments that returns that dict: it is
    called once, for the draw the tally keeps, so a draw can leave
    unbuilt the values that no kept example reads.  Every sampled check
    of the package is one call of this loop, and every sampled report
    step is the `step` of its tally.
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
    example = example if first is None else first
    return Tally(samples, failures, held, example() if callable(example) else example)


# Every draw below reproduces `random.Random`'s methods on `getrandbits`:
# `_below` is `_randbelow`, and `randint`, `sample` and `choice` are it
# plus an offset or an index; `_draw` runs its loop inline.  Values and
# the generator's state after each draw are the method's own, without
# its layers of calls.


def _below(rng: random.Random, n: int) -> int:
    """`rng.randrange(n)`: n.bit_length() bits, drawn until below n."""
    k = n.bit_length()
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _unit_ratio(rng: random.Random) -> tuple[int, int]:
    """A ratio p/q in [0, 1]: q = randint(1, BOUND), then p = randint(0, q)."""
    d = _below(rng, BOUND) + 1
    return _below(rng, d + 1), d


def _draw(rng: random.Random, positive=False, tail=None) -> tuple:
    """An element's draws in one pass, `_below`'s loop inlined: its
    overrides, atom -> (numerator, denominator) in the order drawn, and
    its tail pair.  An override equal to the tail is left out, as the
    element leaves it out; `l0._from_ratios` builds the element.

    In order: the override count `randint(0, MAX_OVERRIDES)`; its atoms,
    `sample(range(1, ATOM_SPAN + 1), count)`, which on so small a
    population draws each pick from a pool of the atoms not yet picked
    and moves the pool's last atom into the vacancy; then a pair per atom
    and one for the tail, unless `tail` gives that pair.  A numerator is
    `randint(-BOUND, BOUND)`, or `randint(1, BOUND)` when `positive`, and
    a denominator `randint(1, BOUND)`.
    """
    count = _below(rng, MAX_OVERRIDES + 1)
    getrandbits = rng.getrandbits
    pool = list(range(1, ATOM_SPAN + 1))
    atoms = []
    for n in range(ATOM_SPAN, ATOM_SPAN - count, -1):
        k = n.bit_length()
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        atoms.append(pool[i])
        pool[i] = pool[n - 1]
    span, shift = (BOUND, -1) if positive else (2 * BOUND + 1, BOUND)
    k, kq = span.bit_length(), BOUND.bit_length()
    pairs = []
    for _ in range(count + (tail is None)):
        p = getrandbits(k)
        while p >= span:
            p = getrandbits(k)
        q = getrandbits(kq)
        while q >= BOUND:
            q = getrandbits(kq)
        pairs.append((p - shift, q + 1))
    tp, tq = tail = pairs.pop() if tail is None else tail
    return {j: (p, q) for j, (p, q) in zip(atoms, pairs) if p * tq != tp * q}, tail


def random_ecrv(rng: random.Random) -> EcRv:
    """Random overrides, then the tail."""
    return l0._from_ratios(*_draw(rng))


def random_positive_ecrv(rng: random.Random) -> EcRv:
    """An element of the strictly positive cone, e.g. a radius."""
    return l0._from_ratios(*_draw(rng, positive=True))


def random_finite_support_ecrv(rng: random.Random) -> EcRv:
    """A member of M: zero tail, random overrides."""
    return l0._from_ratios(*_draw(rng, tail=(0, 1)))


def random_nonzero_tail_ecrv(rng: random.Random) -> EcRv:
    """An element outside M: the tail, drawn first until nonzero, then
    random overrides."""
    p = 0
    while not p:  # `(randint(-BOUND, BOUND), randint(1, BOUND))`
        p, q = _below(rng, 2 * BOUND + 1) - BOUND, _below(rng, BOUND) + 1
    return l0._from_ratios(*_draw(rng, tail=(p, q)))


# -- members of a set, and the gauge/membership roundtrip --------------------


def _member_parts(s, rng):
    """The draws of a ball or M + B member, as `sample_member` makes them:
    its (numerator, denominator) pair at each atom it may name, and the
    pair of its tail, unreduced.  None, with nothing drawn, for any other
    shape."""
    if isinstance(s, sets.Ball):
        # x * (p/q) / (h + g) at each atom, for a random point x = a/b and
        # its gauge g = c|x|/r, over the integers of the largest coefficient
        # c and the radius r: h = 1 and a drawn p/q in [0, 1] inside, and
        # on a quarter of the draws where g is strictly positive h = 0 and
        # p/q = 1, the boundary point x/g of gauge exactly one; p and h are
        # taken over c's denominator
        over, tail = _draw(rng)
        c, r = s.coefficient, s.radius
        if (
            rng.random() < 0.25
            and sets._positive(c)
            and tail[0]
            and all(a for a, _ in over.values())
        ):
            p, q, h = c._d, 1, 0
        else:
            (p, q), h = _unit_ratio(rng), c._d
            p *= c._d

        def at(j):  # x = a/b, c = k/c._d and r = m/r._d at the atom j, or the tail for None
            (a, b), k, m = over.get(j, tail), c._n.get(j, c._t), r._n.get(j, r._t)
            return a * m * p, q * (h * b * m + k * abs(a) * r._d)

        # x's atoms, then the coefficient's and the radius's, in the order
        # the kernel's operations on them would keep
        return {j: at(j) for j in {**over, **c._n, **r._n}}, at(None)
    if isinstance(s, sets.MPlusBall):
        # x's overrides, and in place of its tail +-p/q times the radius's tail
        over, _ = _draw(rng)
        p, q = _unit_ratio(rng)
        # the sign is `choice((-1, 1))`
        return over, ((2 * _below(rng, 2) - 1) * p * s.radius._t, q * s.radius._d)


def sample_member(s: SetDescriptor, rng: random.Random) -> EcRv:
    """A random element of the set, boundary included for ball shapes.

    A ball or M + B member is built from the drawn point's pairs in one
    `l0._from_ratios`, with no element in between."""
    if parts := _member_parts(s, rng):
        return l0._from_ratios(*parts)
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
