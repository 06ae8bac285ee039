import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from l0convex import (
    EcRv,
    EventSet,
    NotInvertible,
    ZERO,
    ONE,
    classify,
    combine,
    emax,
    emin,
    indicator_mul,
    leq_everywhere,
    lt_everywhere,
    order_compare,
    reciprocal,
)
from l0convex import sampling
from l0convex.l0 import (
    _abs_tail_leq,
    _from_ratios,
    _half_abs_or_one,
    _leq_at,
    _scaled,
    _single_atom,
    _takes_zero,
    _with_tail,
)

from conftest import atoms, ecrvs, events, rationals, values_upto

OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "min": min,
    "max": max,
}


def random_ec(rng):
    over = {
        rng.randint(1, 16): Fraction(rng.randint(-2**16, 2**16), rng.randint(1, 2**16))
        for _ in range(rng.randint(0, 8))
    }
    return EcRv(over, Fraction(rng.randint(-2**16, 2**16), rng.randint(1, 2**16)))


class TestCombine:
    def test_add_example(self):
        x, y = EcRv({1: 3}, 0), EcRv({2: 1}, 2)
        z = combine("add", x, y)
        assert z == EcRv({1: 5, 2: 1}, 2)
        assert values_upto(z, 8) == [
            a + b for a, b in zip(values_upto(x, 8), values_upto(y, 8))
        ]

    def test_min_example(self):
        x, y = EcRv({1: 3}, 0), EcRv({2: 1}, 2)
        z = combine("min", x, y)
        assert z == EcRv({1: 2}, 0)
        assert values_upto(z, 8) == [
            min(a, b) for a, b in zip(values_upto(x, 8), values_upto(y, 8))
        ]

    def test_mul_identity(self):
        y = EcRv({3: -7}, Fraction(1, 2))
        assert combine("mul", ONE, y) == y

    def test_homomorphism_on_random_pairs(self):
        rng = random.Random(2027)
        for _ in range(1000):
            op = rng.choice(list(OPS))
            x, y = random_ec(rng), random_ec(rng)
            z = combine(op, x, y)
            for j in range(1, 65):
                assert z.value_at(j) == OPS[op](x.value_at(j), y.value_at(j))


class TestCanonicalForm:
    def test_redundant_override_dropped(self):
        assert EcRv({1: 5}, 5) == EcRv.constant(5)
        assert EcRv({1: 5}, 5).overrides == {}

    @given(ecrvs, ecrvs)
    def test_equality_is_pointwise(self, x, y):
        agree = x.tail == y.tail and all(
            x.value_at(j) == y.value_at(j)
            for j in set(x.overrides) | set(y.overrides)
        )
        assert (x == y) == agree

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            EcRv({0: 1}, 0)


class TestImmutability:
    def test_overrides_read_only(self):
        x = EcRv({1: 3}, 0)
        with pytest.raises(TypeError):
            x.overrides[1] = 2
        assert x == EcRv({1: 3}, 0)

    @given(ecrvs)
    def test_equal_values_hash_equal(self, x):
        # rebuilt in reverse insertion order, and through the kernel
        rebuilt = EcRv(dict(reversed(list(x.overrides.items()))), x.tail)
        assert rebuilt == x
        assert hash(rebuilt) == hash(x)
        assert hash(x + ZERO) == hash(x)

    @pytest.mark.parametrize(
        "x",
        [ONE, ZERO, sampling.random_ecrv(sampling.make_rng(5)), EcRv({2: 3}, 1) * ONE],
        ids=["ONE", "ZERO", "sampled", "kernel-built"],
    )
    def test_attributes_reject_assignment_and_deletion(self, x):
        before = repr(x)
        for name in ("tail", "overrides", "_hash", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, EcRv.constant(5))
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert repr(x) == before
        assert repr(ONE) == "{|1}"

    def test_copies_rebuild_through_the_constructor(self):
        x = EcRv({1: 3, 4: Fraction(1, 2)}, 7)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            with pytest.raises(AttributeError):
                y.tail = 0

    def test_hash_stable_after_use_as_key(self):
        x = EcRv({1: 3, 4: Fraction(1, 2)}, 7)
        table = {x: "x"}
        before = hash(x)
        assert x + x == EcRv({1: 6, 4: 1}, 14)
        assert hash(x) == before
        assert table[EcRv({4: Fraction(1, 2), 1: 3}, 7)] == "x"


def assert_canonical(r):
    """The invariant every kernel result must satisfy, whether or not it
    went through the checking constructor."""
    assert type(r.tail) is Fraction
    for j, v in r.overrides.items():
        assert type(j) is int and j >= 1
        assert type(v) is Fraction
        assert v != r.tail
    assert r == EcRv(dict(r.overrides), r.tail)
    with pytest.raises(TypeError):
        r.overrides[1] = r.tail


class TestKernelInvariant:
    @given(ecrvs, ecrvs)
    def test_combine(self, x, y):
        for op in OPS:
            assert_canonical(combine(op, x, y))
        assert_canonical(x + y)
        assert_canonical(x - y)
        assert_canonical(x * y)

    @given(ecrvs, events)
    def test_unary(self, x, e):
        assert_canonical(-x)
        assert_canonical(abs(x))
        assert_canonical(indicator_mul(e, x))
        assert_canonical(indicator_mul(e, EcRv(x.overrides, 0)))
        if all(v != 0 for v in x.values()):
            assert_canonical(reciprocal(x))

    @given(ecrvs, rationals)
    def test_scalar_multiples(self, x, c):
        assert_canonical(x * c)
        assert_canonical(c * x)
        assert_canonical(x * int(c))
        assert_canonical(EcRv.constant(c))

    @given(ecrvs, ecrvs)
    def test_order_checks_match_order_compare(self, x, y):
        for a, b in ((x, y), (y, x), (x, x), (x, x + abs(y)), (x, x + abs(y) + 1)):
            report = order_compare(a, b)
            assert leq_everywhere(a, b) == report.leq_everywhere
            assert lt_everywhere(a, b) == (report.strict_set == EventSet.full())


class TestLattice:
    @given(ecrvs, ecrvs)
    def test_commutative(self, x, y):
        assert emin(x, y) == emin(y, x)
        assert emax(x, y) == emax(y, x)

    @given(ecrvs, ecrvs, ecrvs)
    def test_associative(self, x, y, z):
        assert emin(emin(x, y), z) == emin(x, emin(y, z))
        assert emax(emax(x, y), z) == emax(x, emax(y, z))

    @given(ecrvs, ecrvs)
    def test_absorption(self, x, y):
        assert emin(x, emax(x, y)) == x
        assert emax(x, emin(x, y)) == x


class TestAbs:
    def test_examples(self):
        assert abs(EcRv({2: -5}, -1)) == EcRv({2: 5}, 1)
        assert abs(ZERO) == ZERO

    @given(ecrvs)
    def test_idempotent_on_nonnegative(self, x):
        assert abs(abs(x)) == abs(x)

    @given(ecrvs, ecrvs)
    def test_multiplicative_and_subadditive(self, x, y):
        assert abs(x * y) == abs(x) * abs(y)
        assert leq_everywhere(abs(x + y), abs(x) + abs(y))


class TestIndicator:
    def test_finite(self):
        assert indicator_mul(EventSet.finite({1, 2}), EcRv.constant(7)) == EcRv(
            {1: 7, 2: 7}, 0
        )

    def test_cofinite(self):
        assert indicator_mul(
            EventSet.cofinite_excluding({1}), EcRv.constant(7)
        ) == EcRv({1: 0}, 7)

    @given(ecrvs)
    def test_full_event_is_identity(self, x):
        assert indicator_mul(EventSet.full(), x) == x

    @given(events, ecrvs)
    def test_pointwise(self, e, x):
        y = indicator_mul(e, x)
        for j in range(1, 33):
            assert y.value_at(j) == (x.value_at(j) if j in e else 0)


class TestReciprocal:
    def test_example(self):
        assert reciprocal(EcRv({1: 2}, 4)) == EcRv({1: Fraction(1, 2)}, Fraction(1, 4))

    def test_unit(self):
        assert reciprocal(ONE) == ONE

    def test_zero_value_rejected(self):
        with pytest.raises(NotInvertible):
            reciprocal(EcRv({3: 0}, 1))

    @given(ecrvs)
    def test_involution(self, x):
        if any(v == 0 for v in x.values()):
            with pytest.raises(NotInvertible):
                reciprocal(x)
        else:
            assert reciprocal(reciprocal(x)) == x


class TestOrder:
    def test_example(self):
        report = order_compare(ZERO, EcRv({1: 0}, 1))
        assert report.leq_everywhere
        assert report.strict_set == EventSet.cofinite_excluding({1})
        assert report.equal_set == EventSet.finite({1})

    @given(ecrvs)
    def test_reflexive(self, x):
        report = order_compare(x, x)
        assert report.leq_everywhere
        assert report.equal_set == EventSet.full()
        assert report.strict_set == EventSet.empty()

    def test_violation(self):
        assert not order_compare(EcRv({1: 5}, 0), ONE).leq_everywhere

    @given(ecrvs, ecrvs)
    def test_strict_and_equal_partition_the_pointwise_relation(self, x, y):
        report = order_compare(x, y)
        assert report.strict_set.isdisjoint(report.equal_set)
        for j in range(1, 33):
            assert (j in report.strict_set) == (x.value_at(j) < y.value_at(j))
            assert (j in report.equal_set) == (x.value_at(j) == y.value_at(j))
        if report.leq_everywhere:
            assert (report.strict_set | report.equal_set) == EventSet.full()


class TestClassify:
    def test_examples(self):
        c = classify(EcRv({3: 5}, 0))
        assert c.in_M and c.in_L0_plus and not c.in_L0_plusplus
        c = classify(ONE)
        assert not c.in_M and c.in_L0_plusplus
        assert classify(ZERO).in_M

    @given(ecrvs)
    def test_m_membership_is_finite_support(self, x):
        # a finite combination of single-atom indicators has finite support,
        # and conversely any finite-support element is such a combination
        support_finite = x.tail == 0
        assert classify(x).in_M == support_finite

    @given(ecrvs, ecrvs)
    def test_m_is_a_submodule(self, x, scalar):
        m = EcRv(x.overrides, 0)  # chop the tail: a member of M
        assert classify(m).in_M
        assert classify(m + EcRv(scalar.overrides, 0)).in_M
        assert classify(scalar * m).in_M

    def test_m_is_proper(self):
        assert not classify(ONE).in_M


# -- the integer kernel against a plain-Fraction pointwise reference ---------

ATOMS = range(1, 21)  # covers every override atom (1..16) and some tail atoms
pointwise = st.tuples(st.dictionaries(atoms, rationals, max_size=8), rationals)


def reference(spec):
    """The values of EcRv(*spec) on ATOMS, read from the input itself."""
    over, tail = spec
    return [Fraction(over.get(j, tail)) for j in ATOMS]


def readout(x):
    return [x.value_at(j) for j in ATOMS]


def assert_integer_form(x):
    """The representation invariant of every EcRv, however it was built."""
    assert type(x._d) is int and x._d > 0
    assert type(x._t) is int and all(type(v) is int for v in x._n.values())
    assert math.gcd(x._d, x._t, *x._n.values()) == 1
    assert x._t not in x._n.values()
    assert all(type(j) is int and j >= 1 for j in x._n)
    assert x.tail == Fraction(x._t, x._d)


class TestIntegerKernel:
    @given(pointwise, pointwise)
    def test_combine_ops(self, a, b):
        x, y = EcRv(*a), EcRv(*b)
        for op, f in OPS.items():
            z = combine(op, x, y)
            assert_integer_form(z)
            assert readout(z) == [f(u, v) for u, v in zip(reference(a), reference(b))]
            assert z.tail == f(Fraction(a[1]), Fraction(b[1]))

    @given(pointwise, events)
    def test_unary_ops(self, a, e):
        x, ref = EcRv(*a), reference(a)
        for z, expected in (
            (-x, [-v for v in ref]),
            (abs(x), [abs(v) for v in ref]),
            (indicator_mul(e, x), [v if j in e else 0 for j, v in zip(ATOMS, ref)]),
        ):
            assert_integer_form(z)
            assert readout(z) == expected
        assert indicator_mul(e, x).tail == (x.tail if e.cofinite else 0)

    @given(pointwise)
    def test_reciprocal(self, a):
        x = EcRv(*a)
        values = [Fraction(v) for v in (*a[0].values(), a[1])]
        if 0 in values:
            with pytest.raises(NotInvertible):
                reciprocal(x)
            return
        z = reciprocal(x)
        assert_integer_form(z)
        assert readout(z) == [1 / v for v in reference(a)]
        assert z.tail == 1 / Fraction(a[1])

    @given(pointwise, pointwise)
    def test_order_checks(self, a, b):
        x, y = EcRv(*a), EcRv(*b)
        pairs = list(zip(reference(a), reference(b)))
        assert leq_everywhere(x, y) == all(u <= v for u, v in pairs)
        assert lt_everywhere(x, y) == all(u < v for u, v in pairs)

    @given(pointwise)
    def test_classify(self, a):
        ref = reference(a)
        c = classify(EcRv(*a))
        assert c.in_L0_plus == all(v >= 0 for v in ref)
        assert c.in_L0_plusplus == all(v > 0 for v in ref)
        assert c.in_M == (a[1] == 0)

    @given(pointwise, rationals, st.integers(-50, 50))
    def test_constants_and_scalar_coercion(self, a, c, k):
        x, ref = EcRv(*a), reference(a)
        for value in (c, k):
            const = EcRv.constant(value)
            assert_integer_form(const)
            assert readout(const) == [value] * len(ATOMS) and not const.overrides
            for z, expected in (
                (x * value, [v * value for v in ref]),
                (value * x, [value * v for v in ref]),
                (x + value, [v + value for v in ref]),
                (value - x, [value - v for v in ref]),
            ):
                assert_integer_form(z)
                assert readout(z) == expected

    @given(pointwise, pointwise)
    def test_equality_and_hash(self, a, b):
        x, y = EcRv(*a), EcRv(*b)
        assert (x == y) == (reference(a) == reference(b))
        # the same function, built through the kernel and reversed
        same = EcRv(dict(reversed(list(a[0].items()))), a[1])
        kernel_built = x + ZERO
        for twin in (same, kernel_built, combine("max", x, x)):
            assert twin == x and hash(twin) == hash(x)
        assert_integer_form(x)

    @given(pointwise)
    def test_copy_and_pickle_round_trips(self, a):
        x = EcRv(*a) * Fraction(3, 7)  # a kernel result: views not built yet
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert_integer_form(y)
            assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
            assert list(y.overrides.items()) == list(x.overrides.items())

    @given(
        st.dictionaries(atoms, st.tuples(st.integers(-99, 99), st.integers(1, 99)), max_size=8),
        st.tuples(st.integers(-99, 99), st.integers(1, 99)),
    )
    def test_built_from_integer_ratios(self, over, tail):
        x = _from_ratios(over, tail)
        assert_integer_form(x)
        assert x == EcRv({j: Fraction(p, q) for j, (p, q) in over.items()}, Fraction(*tail))

    @given(pointwise, pointwise, rationals, st.frozensets(st.integers(1, 20), max_size=6))
    def test_caller_shortcuts(self, a, b, c, probes):
        """The private integer shortcuts that sets and topology use in place
        of reading the Fraction views, against the same reference."""
        x, y, ref_x, ref_y = EcRv(*a), EcRv(*b), reference(a), reference(b)
        for k in (1, 3):  # the tail need not come reduced
            with_tail = _with_tail(x, k * c.numerator, k * c.denominator)
            assert_integer_form(with_tail)
            assert with_tail == EcRv(x.overrides, c)  # the call sample_member makes
            scaled = _scaled(x, k * c.numerator, k * c.denominator)
            assert_integer_form(scaled)
            assert scaled == x * c
        assert _scaled(x, 0, 7) is ZERO  # p == 0 keeps no override equal to the tail
        halved = _half_abs_or_one(x)
        assert_integer_form(halved)
        assert readout(halved) == [abs(v) / 2 if v != 0 else 1 for v in ref_x]
        assert _abs_tail_leq(x, y) == (abs(Fraction(a[1])) <= Fraction(b[1]))
        assert _takes_zero(x) == (0 in ref_x)  # ATOMS reach past every override
        if a[1] != 0:  # x as the scale factor: |tail(y)| / |tail(x)| <= tail(c)
            assert _abs_tail_leq(y, EcRv.constant(c), x) == (
                abs(Fraction(b[1])) / abs(Fraction(a[1])) <= c
            )
        for j in (*probes, 1, 17):
            piece = _single_atom(x, j)
            assert_integer_form(piece)
            assert piece == indicator_mul(EventSet.finite({j}), x)
        slack = abs(c)
        assert _leq_at(x, y, probes, slack) == all(
            ref_x[j - 1] <= ref_y[j - 1] + slack for j in probes
        )
