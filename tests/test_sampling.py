"""The samplers' integer draws follow the streams of `random.Random`'s
`randint`, `sample`, `choice` and `random` exactly, and the elements built
from them are those of Fraction-based references on the stdlib draws.  The
one-pass members are also those that `tests/reference.py` composes from
kernel operations, override order included."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from l0convex import CounterexampleFamily, concatenation, l0, sampling, topology
from l0convex._common import EvidenceStep, UsageError
from l0convex.concatenation import Diagonal
from l0convex.l0 import ONE, ZERO, EcRv, classify, reciprocal
from l0convex.measure import EventSet, SingletonTail
from l0convex.sampling import ATOM_SPAN, BOUND, MAX_OVERRIDES, _below, sample_member
from l0convex.seminorms import FiniteSup, Localized, Weighted
from l0convex.sets import (
    Ball,
    Intersect,
    MPlusBall,
    Scale,
    Translate,
    contains,
    gauge_closed_form,
)
from l0convex.topology import seminorm_induction_verdict

import reference
from conftest import _randint, blind_weight, random_event, random_seminorm


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, BOUND, 2 * BOUND + 1])
def test_below_matches_randrange_and_leaves_the_same_state(n):
    """`_below` is the one rejection loop every draw is built on."""
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert _below(ours, n) == theirs.randrange(n)
        assert ours.getstate() == theirs.getstate()


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


# -- the fixed-bound draws, against the `random.Random` methods they reproduce


def _same_stream(ours, theirs, seeds=range(200), draws=5):
    for seed in seeds:
        a, b = random.Random(seed), random.Random(seed)
        for _ in range(draws):
            assert ours(a) == theirs(b)
            assert a.getstate() == b.getstate()


def test_ratio_draws_match_randint():
    _same_stream(reference._ratio, lambda r: (r.randint(-BOUND, BOUND), r.randint(1, BOUND)))
    _same_stream(reference._positive_ratio, lambda r: (r.randint(1, BOUND), r.randint(1, BOUND)))


def test_sign_matches_choice():
    _same_stream(reference._sign, lambda r: r.choice((-1, 1)), draws=20)


def test_atoms_match_sample():
    def theirs(r):
        return r.sample(range(1, ATOM_SPAN + 1), r.randint(0, MAX_OVERRIDES))

    _same_stream(reference._random_atoms, theirs, seeds=range(400))


# -- today's elements, against Fraction-based references on the stdlib draws


def reference_overrides(rng, low=-BOUND):
    atoms = rng.sample(range(1, ATOM_SPAN + 1), rng.randint(0, MAX_OVERRIDES))
    return {j: Fraction(rng.randint(low, BOUND), rng.randint(1, BOUND)) for j in atoms}


def reference_random_ecrv(rng):
    over = reference_overrides(rng)
    return EcRv(over, Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND)))


def reference_positive_ecrv(rng):
    over = reference_overrides(rng, low=1)
    return EcRv(over, Fraction(rng.randint(1, BOUND), rng.randint(1, BOUND)))


def reference_finite_support_ecrv(rng):
    return EcRv(reference_overrides(rng), 0)


def reference_nonzero_tail_ecrv(rng):
    tail = 0
    while not tail:  # the tail first, drawn again while it is zero
        tail = Fraction(rng.randint(-BOUND, BOUND), rng.randint(1, BOUND))
    return EcRv(reference_overrides(rng), tail)


def reference_unit_fraction(rng):
    d = rng.randint(1, BOUND)
    return Fraction(rng.randint(0, d), d)


def reference_sample_member(s, rng):
    """`sampling.sample_member` on Fractions, `randint`, `sample` and `choice`."""
    if isinstance(s, Ball):
        x = reference_random_ecrv(rng)
        g = gauge_closed_form(s, x)
        if rng.random() < 0.25 and classify(g).in_L0_plusplus:
            return x * reciprocal(g)
        return reference_unit_fraction(rng) * x * reciprocal(ONE + g)
    if isinstance(s, MPlusBall):
        x = reference_random_ecrv(rng)
        rho = reference_unit_fraction(rng) * rng.choice((-1, 1))
        return EcRv(x.overrides, rho * s.radius.tail)
    if isinstance(s, Scale):
        return s.factor * reference_sample_member(s.inner, rng)
    if isinstance(s, Translate):
        return s.offset + reference_sample_member(s.inner, rng)
    candidate = reference_sample_member(s.members[0], rng)
    while not contains(s, candidate):
        candidate = candidate * Fraction(1, 2)
    return candidate


def in_order(sampler):
    """`sampler`'s element and its override atoms in insertion order."""

    def draw(rng):
        x = sampler(rng)
        return x, list(x.overrides)

    return draw


def test_random_ecrv_matches_the_reference():
    _same_stream(in_order(sampling.random_ecrv), in_order(reference_random_ecrv), seeds=range(300))


@pytest.mark.parametrize(
    "ours, theirs",
    [
        (sampling.random_positive_ecrv, reference_positive_ecrv),
        (sampling.random_finite_support_ecrv, reference_finite_support_ecrv),
        (sampling.random_nonzero_tail_ecrv, reference_nonzero_tail_ecrv),
    ],
    ids=["positive", "finite_support", "nonzero_tail"],
)
def test_element_samplers_match_the_reference(ours, theirs):
    _same_stream(in_order(ours), in_order(theirs), seeds=range(300))


def _sets(rng):
    radius = sampling.random_positive_ecrv(rng)
    ball = Ball((random_seminorm(rng), Weighted(ONE)), radius)
    m_plus = MPlusBall(radius)
    factor = sampling.random_positive_ecrv(rng)
    return {
        "m_plus_ball": m_plus,
        "ball": ball,
        "scale_m_plus_ball": Scale(factor, m_plus),
        "scale_ball": Scale(factor, ball),
        "translate": Translate(sampling.random_ecrv(rng), m_plus),
        "intersect": Intersect((m_plus, ball)),
        "intersect_balls": Intersect((ball, Ball((Weighted(factor),), ONE))),
    }


@pytest.mark.parametrize("shape", list(_sets(random.Random(0))))
def test_sample_member_matches_the_reference(shape):
    for seed in range(200):
        s = _sets(random.Random(seed))[shape]
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sample_member(s, ours) == reference_sample_member(s, theirs)
            assert ours.getstate() == theirs.getstate()


# -- the one-pass members, against the members composed from kernel operations


def _fused_shapes(rng):
    """A set of each shape whose members `sample_member` builds in one pass,
    or reaches through one: balls with a strictly positive coefficient (the
    boundary branch), with zero coefficients at some atoms or in the tail,
    and over every seminorm shape."""
    radius = sampling.random_positive_ecrv(rng)
    positive = Weighted(sampling.random_positive_ecrv(rng))
    blind = Weighted(blind_weight(rng))  # zero at some atoms
    localized = Localized(random_event(rng))  # zero off the event
    ball = Ball((FiniteSup((positive, localized)), blind), radius)
    m_plus = MPlusBall(radius)
    return {
        "ball_weighted": Ball((positive,), radius),
        "ball_blind": Ball((blind,), radius),
        "ball_localized": Ball((localized,), radius),
        "ball_sup": ball,
        "m_plus_ball": m_plus,
        "scale": Scale(sampling.random_positive_ecrv(rng), ball),
        "translate": Translate(sampling.random_ecrv(rng), m_plus),
        "intersect": Intersect((m_plus, Ball((blind,), radius))),
    }


@pytest.mark.parametrize("shape", list(_fused_shapes(random.Random(0))))
def test_one_pass_members_match_the_composed_reference(shape):
    """5,000 draws per shape, 100 on each of 50 seeded sets: the same
    element, its overrides in the same order, and the same generator state
    after every draw.  Where the coefficient is strictly positive, a
    quarter of the draws take the boundary branch, of gauge exactly one."""
    boundary = 0
    for seed in range(50):
        s = _fused_shapes(random.Random(seed))[shape]
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(100):
            x, y = sample_member(s, ours), reference.sample_member(s, theirs)
            assert (x, list(x.overrides)) == (y, list(y.overrides))
            assert ours.getstate() == theirs.getstate()
            if shape in ("ball_weighted", "ball_sup"):
                boundary += gauge_closed_form(s, x) == ONE
    if shape in ("ball_weighted", "ball_sup"):
        assert 1000 < boundary < 1500


@pytest.mark.parametrize(
    "shape",
    [
        name
        for name, s in _fused_shapes(random.Random(0)).items()
        if isinstance(s, (Ball, MPlusBall))
    ],
)
def test_member_parts_are_pairs_whose_tail_is_the_members(shape):
    """2,000 draws per shape, 50 on each of 40 seeded sets: the parts of a
    ball or M + B member are integer pairs and nothing callable, and the
    tail read from them is the tail of the member they build."""
    for seed in range(40):
        s = _fused_shapes(random.Random(seed))[shape]
        rng = random.Random(seed)
        for _ in range(50):
            parts = sampling._member_parts(s, rng)
            over, tail = parts
            assert type(over) is dict
            for pair in (tail, *over.values()):
                assert type(pair) is tuple and [type(v) for v in pair] == [int, int]
            member = l0._from_ratios(*parts)
            assert topology._tail(parts) == EcRv.constant(member.tail)


class Scripted(random.Random):
    """A generator whose `getrandbits` and `random` return given values."""

    def __init__(self, bits, floats=()):
        super().__init__(0)
        self.bits, self.floats = iter(bits), iter(floats)

    def getrandbits(self, k):
        return next(self.bits)

    def random(self):
        return next(self.floats)


@pytest.mark.parametrize(
    "s, floats",
    [
        (MPlusBall(EcRv({3: 5}, 2)), ()),
        # the coefficient names atom 5 before atom 3, so where atom 3 goes shows
        (Ball((Weighted(EcRv({5: 3, 3: 2}, 1)),), EcRv({3: 3}, 1)), (0.9,)),
    ],
    ids=["m_plus_ball", "ball"],
)
def test_an_override_equal_to_the_tail_is_left_out(s, floats):
    """One override at atom 3, drawn as 2/3, and the tail 4/6: the point
    takes its tail there, so the member's value and its place in the
    override order are those of the tail, as in the composed member."""
    # count 1, atom 3, the pairs (2, 3) and (4, 6), then p/q = 7/10 and a sign
    bits = [1, 2, BOUND + 2, 2, BOUND + 4, 5, 9, 7, 1]
    if isinstance(s, Ball):
        bits.pop()  # a ball member draws no sign
    ours, theirs = Scripted(bits, floats), Scripted(bits, floats)
    x, y = sample_member(s, ours), reference.sample_member(s, theirs)
    assert (x, list(x.overrides)) == (y, list(y.overrides))
    assert next(ours.bits, None) is next(theirs.bits, None) is None


def test_sample_member_of_an_intersection_no_halving_enters():
    """After 128 halvings outside the intersection the sampler falls back
    to zero when the set holds it, and raises when it does not."""
    near_one = Translate(ONE, Ball((Weighted(ONE),), EcRv.constant(Fraction(1, 4))))
    small = Ball((Weighted(ONE),), EcRv.constant(Fraction(1, 8)))
    with pytest.raises(ValueError, match="could not sample a member"):
        sample_member(Intersect((near_one, small)), random.Random(1))  # empty
    tiny = Ball((Weighted(ONE),), EcRv.constant(Fraction(1, 2**200)))
    for seed in range(5):
        rng = random.Random(seed)
        first = sample_member(Ball((Weighted(ONE),), ONE), random.Random(seed))
        assert not contains(tiny, first * Fraction(1, 2**128))  # no halving enters
        assert sample_member(Intersect((Ball((Weighted(ONE),), ONE), tiny)), rng) == ZERO


# -- the gluing pieces on a singleton-tail partition with prefix cells


def _pieces_by_sequence_element(s, seq, part):
    explicit = part.prefix_count + 32
    return all(
        contains(s, concatenation.sequence_element(seq, part, n))
        for n in range(1, explicit + 1)
    ) and concatenation._late_pieces_in_set(
        s, seq.value, part.tail_start + 32
    )


def test_pieces_agree_with_sequence_element():
    part = SingletonTail((EventSet.finite({1, 3}), EventSet.finite({2, 4, 5})), 6)
    sets = [
        Ball((Weighted(ONE),), EcRv({2: 5}, 2)),
        Ball((Localized(EventSet.finite({1, 2, 3, 4, 5})),), ONE),
        MPlusBall(ONE),
        Translate(EcRv.constant(Fraction(1, 2)), MPlusBall(ONE)),
        Translate(EcRv({7: 9}, 0), MPlusBall(ONE)),
    ]
    values = [
        EcRv({}, 1),  # every piece inside the balls
        EcRv({3: 4}, 1),  # a failing prefix piece
        EcRv({4: 4}, 1),  # inside only where the radius is 5
        EcRv({10: 3}, 1),  # a failing single-atom piece within the horizon
        EcRv({60: 3}, 1),  # a failing piece past the horizon only
        EcRv({7: 9, 8: 1}, 0),
        EcRv({}, 3),
    ]
    outcomes = set()
    for s in sets:
        for value in values:
            seq = Diagonal(value)
            expected = _pieces_by_sequence_element(s, seq, part)
            assert concatenation._elements_in_set(s, seq, part) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


# -- seeds


def test_negative_seed_is_a_usage_error():
    assert sampling.make_rng(0).getstate() == random.Random(0).getstate()
    with pytest.raises(UsageError, match="seed must be at least 0, got -5"):
        sampling.make_rng(-5)


class TestTally:
    """`sampling.tally` is the one loop of every sampled check."""

    @staticmethod
    def draws(outcomes):
        """A draw whose n-th call (from 1) returns the checks `outcomes[n - 1]`."""
        calls = []

        def draw():
            calls.append(len(calls) + 1)
            return outcomes[calls[-1] - 1], {"call": calls[-1]}

        return draw

    def test_counts_each_check_and_the_draws_that_held_all(self):
        outcomes = [
            {"a": True, "b": True},
            {"a": False, "b": True},
            {"a": False, "b": False},
            {"a": True, "b": True},
            {"a": True, "b": False},
        ]
        result = sampling.tally(5, self.draws(outcomes))
        assert result.samples == 5
        assert result.failures == {"a": 2, "b": 2}
        assert result.held == 2
        assert not result.passed

    def test_keeps_the_first_failing_example(self):
        outcomes = [{"a": True}, {"a": False}, {"a": True}, {"a": False}]
        assert sampling.tally(4, self.draws(outcomes)).example == {"call": 2}

    @pytest.mark.parametrize(
        "outcomes, kept", [([True, False, True, False], 2), ([True, True, True], 3)]
    )
    def test_an_example_function_runs_once_for_the_kept_draw(self, outcomes, kept):
        runs = []

        def draw():
            n = len(runs) + 1
            runs.append([])

            def example():
                runs[n - 1].append(n)
                return {"call": n}

            return {"a": outcomes[n - 1]}, example

        result = sampling.tally(len(outcomes), draw)
        assert [len(r) for r in runs] == [int(n == kept) for n in range(1, len(outcomes) + 1)]
        assert result.example == {"call": kept}

    def test_keeps_the_last_example_when_every_draw_held(self):
        result = sampling.tally(3, self.draws([{"a": True, "b": True}] * 3))
        assert result.passed
        assert result.held == 3
        assert result.failures == {"a": 0, "b": 0}
        assert result.example == {"call": 3}

    def test_draws_exactly_samples_times(self):
        draw = self.draws([{"a": True}] * 10)
        sampling.tally(7, draw)
        assert draw() == ({"a": True}, {"call": 8})

    def test_reports_cannot_be_changed_after_the_fact(self):
        """A step's inputs and a tally's counts and example are read-only,
        so a report prints what its checks found; the JSON entry is a dict."""
        report = seminorm_induction_verdict(CounterexampleFamily(), seed=1, samples=2)
        with pytest.raises(TypeError):
            report.steps[0].inputs["samples"] = 0
        assert report.steps[0].to_json()["inputs"]["samples"] == 2
        assert type(report.steps[0].to_json()["inputs"]) is dict
        result = sampling.tally(1, lambda: ({"a": True}, {"x": 1}))
        with pytest.raises(TypeError):
            result.failures["a"] = 5
        with pytest.raises(TypeError):
            result.example["x"] = 2
        assert result.passed and result.failures == {"a": 0}
        with pytest.raises(TypeError, match="unhashable"):
            hash(report)

    def test_reports_copy_and_pickle(self):
        """The read-only mappings are rebuilt through the constructors."""
        report = seminorm_induction_verdict(CounterexampleFamily(), seed=1, samples=2)
        result = sampling.tally(2, lambda: ({"a": True}, {"x": ONE}))
        for value in (report, result):
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin == value
        twin = pickle.loads(pickle.dumps(report))
        assert type(twin.steps[0].inputs) is type(report.steps[0].inputs)
        assert type(pickle.loads(pickle.dumps(result)).failures["b"]) is int  # a Counter behind it

    def test_nested_step_inputs_cannot_be_changed_after_the_fact(self):
        """Every value reachable from a step's inputs is read-only, and a
        copy of the given ones, so a `check cc` entry cannot be forged;
        the report entry and copies give plain dicts and lists back."""
        given = {"entries": [{"glue": "{|1}"}], "pair": ([1], 2)}
        step = EvidenceStep("r", given, "e", "o", True)
        given["entries"][0]["glue"] = "changed"
        with pytest.raises(TypeError):
            step.inputs["entries"][0]["glue"] = "forged"
        with pytest.raises(AttributeError):
            step.inputs["entries"].append({"glue": "forged"})
        with pytest.raises(AttributeError):
            step.inputs["pair"][0].append(3)
        plain = {"entries": [{"glue": "{|1}"}], "pair": [[1], 2]}
        entry = step.to_json()["inputs"]
        assert entry == plain
        assert type(entry["entries"]) is list and type(entry["entries"][0]) is dict
        for twin in (copy.copy(step), copy.deepcopy(step), pickle.loads(pickle.dumps(step))):
            assert twin == step and twin.to_json()["inputs"] == plain

    def test_a_tally_copies_what_it_is_given(self):
        failures, example = Counter(a=1), {"x": 1}
        result = sampling.Tally(1, failures, 0, example)
        failures["a"], example["x"] = 0, 2
        assert (result.failures, result.example, result.passed) == ({"a": 1}, {"x": 1}, False)
        assert result.failures["b"] == 0  # a Counter still, behind the view

    @pytest.mark.parametrize("samples", [0, -1])
    def test_fewer_than_one_sample_rejected_before_any_draw(self, samples):
        def draw():
            raise AssertionError("drew")

        with pytest.raises(UsageError, match="at least 1"):
            sampling.tally(samples, draw)
