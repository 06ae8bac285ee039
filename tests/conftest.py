import random
from fractions import Fraction

from hypothesis import strategies as st

from l0convex import EcRv, EventSet, sampling, seminorms
from l0convex.sampling import _below
from reference import _random_atoms, _ratio, random_ecrv

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=64)
atoms = st.integers(min_value=1, max_value=16)

ecrvs = st.builds(
    EcRv, st.dictionaries(atoms, rationals, max_size=8), rationals
)
nonnegative_ecrvs = st.builds(
    EcRv,
    st.dictionaries(atoms, rationals.map(abs), max_size=8),
    rationals.map(abs),
)
positive_fracs = st.fractions(min_value=Fraction(1, 64), max_value=50, max_denominator=64)
positive_ecrvs = st.builds(
    EcRv, st.dictionaries(atoms, positive_fracs, max_size=8), positive_fracs
)
events = st.builds(
    lambda a, c: EventSet(a, cofinite=c), st.frozensets(atoms, max_size=8), st.booleans()
)


def values_upto(x: EcRv, horizon: int):
    """Pointwise readout oracle: the trajectory on atoms 1..horizon."""
    return [x.value_at(j) for j in range(1, horizon + 1)]


def prob_by_summation(space, event, horizon=64):
    """Independent probability route: explicit partial sums plus the exact
    geometric remainder (valid once horizon covers all listed atoms)."""
    assert all(j <= horizon for j in event.atoms)
    total = sum(
        (space.atom_mass(j) for j in range(1, horizon + 1) if j in event), Fraction(0)
    )
    if event.cofinite:
        total += space.mass_from(horizon + 1)  # mass of {j : j > horizon}
    return total


def blind_weight(rng):
    """A nonnegative seeded weight that is zero at some of the atoms 1..7,
    and in the tail on some draws: a seminorm blind where it is zero."""
    w = abs(sampling.random_ecrv(rng))
    zeros = dict.fromkeys(rng.sample(range(1, 8), rng.randint(0, 3)), 0)
    return EcRv({**w.overrides, **zeros}, w.tail if rng.random() < 0.7 else 0)


# The samplers only the tests draw from, on the package's own draws, so
# every seeded test keeps the stream it had when they lived in `sampling`.


def _randint(rng: random.Random, a: int, b: int) -> int:
    """`rng.randint(a, b)`, for the bounds that vary from draw to draw."""
    if b < a:  # `_below(rng, 0)` would never return
        raise ValueError(f"empty range in randint({a}, {b})")
    return a + _below(rng, b - a + 1)


def _nonnegative_ratio(rng: random.Random) -> tuple[int, int]:
    p, q = _ratio(rng)
    return abs(p), q


def random_nonnegative_ecrv(rng: random.Random):
    return random_ecrv(rng, draw=_nonnegative_ratio)


def random_event(rng: random.Random) -> EventSet:
    return EventSet(_random_atoms(rng), cofinite=rng.random() < 0.5)


def random_seminorm(rng: random.Random, depth: int = 1):
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
