from fractions import Fraction

from hypothesis import strategies as st

from l0convex import EcRv, EventSet, sampling

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
