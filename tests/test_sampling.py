"""The samplers' integer draws follow `random.Random.randint`'s stream exactly."""

import random

import pytest

from l0convex import sampling
from l0convex.sampling import BOUND, MAX_OVERRIDES, _randint

# every bound pair a sampler draws from; (0, d) for the unit ratio's d
BOUNDS = [(-BOUND, BOUND), (1, BOUND), (0, MAX_OVERRIDES), (1, 3), (0, 0), (5, 6)]
BOUNDS += [(0, d) for d in (1, 2, 3, 7, 8, 255, 256, 257, 4097, BOUND - 1, BOUND)]


@pytest.mark.parametrize("a, b", BOUNDS)
def test_draws_match_randint_and_leave_the_same_state(a, b):
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert _randint(ours, a, b) == theirs.randint(a, b)
            assert ours.getstate() == theirs.getstate()


def test_interleaved_unit_ratio_stream():
    """The unit ratio draws its numerator bound from the previous draw."""
    for seed in range(300):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(4):
            d = theirs.randint(1, BOUND)
            assert sampling._unit_ratio(ours) == (theirs.randint(0, d), d)
            assert ours.getstate() == theirs.getstate()


def test_empty_range_raises_instead_of_looping():
    for a, b in ((1, 0), (0, -5)):
        with pytest.raises(ValueError, match="empty range"):
            _randint(random.Random(0), a, b)
