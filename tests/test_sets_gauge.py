import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from l0convex import (
    Ball,
    EcRv,
    EventSet,
    FiniteSup,
    Intersect,
    Localized,
    MPlusBall,
    Scale,
    Translate,
    UnsupportedShape,
    Weighted,
    ZERO,
    ONE,
    classify,
    contains,
    divide,
    emax,
    emin,
    evaluate,
    gauge_closed_form,
    indicator_mul,
    gauge_upper_certificate,
    leq_everywhere,
    reciprocal,
    roundtrip_check,
    sample_member,
    verify_certificate,
)
from l0convex import sampling
from l0convex.sets import core_point, excluding_radius
from l0convex._not_induced import PROBE_ATOMS, GaugeCertificate, _certificate_witness
from l0convex.syntax import parse_set

from conftest import blind_weight, ecrvs, positive_ecrvs, random_seminorm
from reference import StructuralFlags, confirm_structural_flags, order_compare, structural_flags

UNIT_BALL = Ball((Weighted(ONE),), ONE)
TOL = Fraction(1, 2**20)


def decompose_into_m_plus_ball(x, radius):
    """Constructive membership oracle: clamp into the ball, absorb the
    rest into a finite-support part.  Returns (m, y) or None."""
    y = EcRv(
        {j: max(-radius.value_at(j), min(x.value_at(j), radius.value_at(j)))
         for j in set(x.overrides) | set(radius.overrides)},
        max(-radius.tail, min(x.tail, radius.tail)),
    )
    m = x - y
    if m.tail != 0:
        return None
    assert m + y == x
    assert leq_everywhere(abs(y), radius)
    return m, y


class TestContains:
    def test_m_plus_ball_absorbs_finite_violation(self):
        target = MPlusBall(ONE)
        x = EcRv({1: 2}, 0)
        assert contains(target, x)
        m, y = decompose_into_m_plus_ball(x, ONE)
        assert classify(m).in_M

    def test_ball_rejects_pointwise_violation(self):
        assert not contains(UNIT_BALL, EcRv({1: 2}, 0))

    def test_zero_in_origin_shapes(self):
        for target in (
            UNIT_BALL,
            MPlusBall(ONE),
            Scale(EcRv.constant(2), UNIT_BALL),
            Intersect((UNIT_BALL, MPlusBall(ONE))),
        ):
            assert contains(target, ZERO)

    @given(ecrvs, positive_ecrvs)
    def test_m_plus_ball_matches_decomposition_oracle(self, x, radius):
        assert contains(MPlusBall(radius), x) == (
            decompose_into_m_plus_ball(x, radius) is not None
        )

    @given(ecrvs)
    def test_translate_shifts_membership(self, x):
        y = EcRv({2: 3}, Fraction(1, 2))
        assert contains(Translate(y, UNIT_BALL), x + y) == contains(UNIT_BALL, x)

    def test_scale_coherence_on_random_factors(self):
        rng = sampling.make_rng(31)
        for _ in range(200):
            factor = sampling.random_positive_ecrv(rng)
            x = sampling.random_ecrv(rng)
            assert contains(Scale(factor, UNIT_BALL), x) == contains(
                UNIT_BALL, reciprocal(factor) * x
            )

    def test_scaled_m_plus_ball_decided_on_the_tails(self):
        """x in f * (M + B_r) is read off the tails; it agrees with testing
        x / f against M + B_r, for factors of either sign on each atom."""
        rng = sampling.make_rng(37)
        outcomes = set()
        for i in range(400):
            factor = sampling.random_ecrv(rng)
            if any(v == 0 for v in factor.values()):
                continue
            if i % 3 == 0:
                factor = -abs(factor)
            radius = sampling.random_positive_ecrv(rng)
            x = sampling.random_ecrv(rng)
            fast = contains(Scale(factor, MPlusBall(radius)), x)
            assert fast == contains(MPlusBall(radius), reciprocal(factor) * x)
            outcomes.add(fast)
        assert outcomes == {True, False}

    def test_zero_factor_message(self):
        message = r"^scale factor must be invertible \(no zero value\)$"
        for factor in (EcRv({1: 0}, 1), EcRv({2: 3}, 0), ZERO):
            with pytest.raises(ValueError, match=message):
                Scale(factor, MPlusBall(ONE))

    def test_ball_decides_with_its_largest_coefficient(self):
        """A ball's one comparison against the largest coefficient agrees
        with comparing every seminorm against the radius; the coefficient
        is evaluated once and cannot be assigned."""
        rng = sampling.make_rng(43)
        outcomes = set()
        for _ in range(300):
            family = tuple(random_seminorm(rng) for _ in range(rng.randint(1, 3)))
            ball = Ball(family, sampling.random_positive_ecrv(rng))
            assert ball.coefficient == evaluate(FiniteSup(family), ONE)
            assert ball.coefficient is ball.coefficient
            x = sampling.random_ecrv(rng)
            if rng.random() < 0.5:  # near the boundary: x scaled to the largest seminorm
                x = divide(x, emax(evaluate(FiniteSup(family), ONE), ONE))
            inside = all(leq_everywhere(evaluate(p, x), ball.radius) for p in family)
            assert contains(ball, x) == inside
            outcomes.add(inside)
        assert outcomes == {True, False}
        with pytest.raises(AttributeError):
            UNIT_BALL.coefficient = ZERO

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            MPlusBall(ZERO)
        with pytest.raises(ValueError):
            Ball((Weighted(ONE),), EcRv({1: 0}, 1))
        with pytest.raises(ValueError):
            Scale(EcRv({1: 0}, 1), UNIT_BALL)


ALL_THREE = StructuralFlags(l0_convex=True, l0_absorbent=True, l0_balanced=True)


class TestStructuralFlags:
    def test_m_plus_ball_all_three(self):
        assert structural_flags(MPlusBall(ONE)) == ALL_THREE
        confirmation = confirm_structural_flags(MPlusBall(ONE), 1000, seed=11)
        assert confirmation.passed

    def test_ball_all_three(self):
        assert structural_flags(UNIT_BALL) == ALL_THREE
        assert confirm_structural_flags(UNIT_BALL, 300, seed=13).passed

    def test_translate_breaks_balance(self):
        shifted = Translate(ONE, UNIT_BALL)
        flags = structural_flags(shifted)
        assert flags.l0_convex and not flags.l0_balanced
        # witness: negating a member leaves the translate
        member = ONE  # the center itself
        assert contains(shifted, member)
        assert not contains(shifted, -1 * member)

    def test_intersect_preserves(self):
        both = Intersect((UNIT_BALL, MPlusBall(ONE)))
        assert structural_flags(both) == ALL_THREE

    def test_intersect_with_m_plus_ball_absorbs(self):
        """The intersection's witness is the larger of its members'
        witnesses, which holds every point in both balanced members."""
        for members in ((UNIT_BALL, MPlusBall(ONE)), (MPlusBall(ONE), UNIT_BALL)):
            assert confirm_structural_flags(Intersect(members), 200, seed=17).passed

    def test_translate_at_origin_absorbs(self):
        at_origin = Translate(ZERO, MPlusBall(ONE))
        assert structural_flags(at_origin) == ALL_THREE
        assert confirm_structural_flags(at_origin, 200, seed=19).passed

    def test_scale_preserves(self):
        assert structural_flags(Scale(EcRv.constant(-3), MPlusBall(ONE))) == ALL_THREE


class TestGaugeClosedForm:
    def test_ball_example_with_bracket(self):
        target = Ball((Weighted(ONE),), EcRv.constant(2))
        x = EcRv.constant(3)
        g = gauge_closed_form(target, x)
        assert g == EcRv.constant(Fraction(3, 2))
        # bracket: the bound plus a sliver admits x, a dent below does not
        assert contains(Scale(g + TOL, target), x)
        dented = EcRv({1: g.value_at(1) * (1 - TOL)}, g.tail)
        assert not contains(Scale(dented, target), x)

    def test_m_plus_ball_gauge_is_zero(self):
        rng = sampling.make_rng(17)
        for _ in range(100):
            radius = sampling.random_positive_ecrv(rng)
            x = sampling.random_ecrv(rng)
            assert gauge_closed_form(MPlusBall(radius), x) == ZERO

    def test_zero_point(self):
        for target in (UNIT_BALL, MPlusBall(ONE)):
            assert gauge_closed_form(target, ZERO) == ZERO

    @given(positive_ecrvs, ecrvs)
    def test_ball_bracket_oracle(self, radius, x):
        target = Ball((Weighted(ONE), Localized(EventSet.finite({2}))), radius)
        g = gauge_closed_form(target, x)
        assert contains(Scale(g + TOL, target), x)
        # lowering the bound at any atom where it is positive breaks membership
        lifted = g + TOL
        for j in list(g.overrides) + [17]:
            if g.value_at(j) > 0:
                dent = EcRv({**lifted.overrides, j: g.value_at(j) / 2}, lifted.tail)
                assert not contains(Scale(dent, target), x)
                break

    def test_scale_recursion(self):
        target = Scale(EcRv.constant(2), Ball((Weighted(ONE),), ONE))
        assert gauge_closed_form(target, EcRv.constant(3)) == EcRv.constant(
            Fraction(3, 2)
        )

    def test_intersect_of_balls(self):
        target = Intersect(
            (
                Ball((Weighted(ONE),), EcRv.constant(2)),
                Ball((Localized(EventSet.finite({1})),), ONE),
            )
        )
        g = gauge_closed_form(target, EcRv.constant(3))
        assert g == EcRv({1: 3}, Fraction(3, 2))

    def test_unsupported_shapes(self):
        with pytest.raises(UnsupportedShape):
            gauge_closed_form(Translate(ONE, UNIT_BALL), ZERO)
        with pytest.raises(UnsupportedShape):
            gauge_closed_form(Intersect((UNIT_BALL, MPlusBall(ONE))), ONE)

    @given(positive_ecrvs, ecrvs, ecrvs)
    def test_gauge_is_homogeneous_and_subadditive(self, radius, x, y):
        target = Ball((Weighted(ONE),), radius)
        gx, gy = gauge_closed_form(target, x), gauge_closed_form(target, y)
        assert gauge_closed_form(target, x + y) is not None
        assert leq_everywhere(gauge_closed_form(target, x + y), gx + gy)
        scalar = EcRv({3: -2}, Fraction(1, 2))
        assert gauge_closed_form(target, scalar * x) == abs(scalar) * gx

    def test_gauge_monotone_under_inclusion(self):
        rng = sampling.make_rng(23)
        for _ in range(200):
            radius = sampling.random_positive_ecrv(rng)
            smaller = Ball((Weighted(ONE),), radius)  # the order ball
            larger = MPlusBall(radius)  # contains it
            probe = sample_member(smaller, rng)
            assert contains(larger, probe)
            x = sampling.random_ecrv(rng)
            assert leq_everywhere(
                gauge_closed_form(larger, x), gauge_closed_form(smaller, x)
            )


class TestAtomicInfimum:
    def test_pointwise_min_is_the_lattice_infimum_of_finite_families(self):
        # brute force: the pointwise min is a lower bound, and no lower
        # bound beats it at any probed atom
        rng = sampling.make_rng(41)
        for _ in range(200):
            family = [sampling.random_ecrv(rng) for _ in range(rng.randint(1, 6))]
            low = family[0]
            for member in family[1:]:
                low = emin(low, member)
            for member in family:
                assert leq_everywhere(low, member)
            bound = emin(low, sampling.random_ecrv(rng))  # an arbitrary lower bound
            assert leq_everywhere(bound, low)
            for j in range(1, 65):
                assert low.value_at(j) == min(m.value_at(j) for m in family)


class TestCertificates:
    def test_m_plus_ball_example(self):
        cert = gauge_upper_certificate(MPlusBall(ONE), EcRv.constant(5))
        assert cert.witness == EcRv(dict.fromkeys(PROBE_ATOMS, TOL), 5)
        assert verify_certificate(cert)

    def test_ball_example(self):
        cert = gauge_upper_certificate(Ball((Weighted(ONE),), EcRv.constant(2)), EcRv.constant(3))
        assert cert.witness == EcRv.constant(Fraction(3, 2) + Fraction(1, 2**21))
        assert verify_certificate(cert)

    def test_zero_point_certificate(self):
        for target in (UNIT_BALL, MPlusBall(ONE)):
            cert = gauge_upper_certificate(target, ZERO)
            assert cert.witness == EcRv.constant(TOL / 2)
            assert verify_certificate(cert)

    @settings(max_examples=50)
    @given(positive_ecrvs, ecrvs)
    def test_certificates_reverify_without_closed_form(self, radius, x):
        for target in (MPlusBall(radius), Ball((Weighted(ONE),), radius)):
            cert = gauge_upper_certificate(target, x)
            assert classify(cert.witness).in_L0_plusplus
            assert contains(Scale(cert.witness, target), x)
            for j in PROBE_ATOMS:
                assert cert.witness.value_at(j) <= cert.claimed_bound.value_at(j) + TOL

    def test_ball_like_intersection_witness_is_the_closed_form(self):
        """On ball-like intersections the larger of the members' witnesses
        is exactly the intersection's closed-form gauge plus half the
        tolerance."""
        rng = sampling.make_rng(29)
        for _ in range(100):
            radii = [sampling.random_positive_ecrv(rng) for _ in range(3)]
            s = Intersect((
                Ball((Weighted(ONE), Localized(EventSet.finite({1, 3}))), radii[0]),
                Scale(sampling.random_positive_ecrv(rng), Ball((Weighted(radii[1]),), ONE)),
                Intersect((Ball((Localized(EventSet.cofinite_excluding({2})),), radii[2]),)),
            ))
            x = sampling.random_ecrv(rng)
            assert _certificate_witness(s, x) == gauge_closed_form(s, x) + TOL / 2
            assert verify_certificate(gauge_upper_certificate(s, x))

    def test_a_witness_that_misses_the_point_is_rejected(self):
        cert = gauge_upper_certificate(UNIT_BALL, EcRv.constant(5))
        assert verify_certificate(cert)
        half = EcRv.constant(Fraction(1, 2))  # strictly positive, below the bound: 5 is not in half the ball
        forged = GaugeCertificate(cert.target_set, cert.point, half, cert.claimed_bound)
        assert not contains(Scale(half, UNIT_BALL), cert.point)
        assert not verify_certificate(forged)

    @pytest.mark.parametrize("atom, verifies", [(32, False), (33, True)])
    def test_a_witness_over_tolerance_is_rejected_on_the_probe_atoms_only(self, atom, verifies):
        """A witness twice the tolerance above the zero bound fails the
        certificate at the last probe atom and passes it one atom beyond;
        the point stays a member either way."""
        target, x = MPlusBall(ONE), EcRv.constant(5)
        cert = gauge_upper_certificate(target, x)
        raised = EcRv({**cert.witness.overrides, atom: 2 * TOL}, cert.witness.tail)
        forged = GaugeCertificate(target, x, raised, cert.claimed_bound)
        assert contains(Scale(raised, target), x)
        assert verify_certificate(forged) is verifies

    def test_a_translate_by_a_nonzero_offset_has_no_certificate(self):
        """`translate({|1}; m_plus_ball({|1}))` is refused, not certified:
        it has neither a closed form nor a witness."""
        s = parse_set("translate({|1}; m_plus_ball({|1}))")
        with pytest.raises(UnsupportedShape, match="for Translate"):
            gauge_upper_certificate(s, ONE)
        with pytest.raises(UnsupportedShape, match="no gauge certificate for Translate"):
            _certificate_witness(s, ONE)

    def test_m_plus_ball_witness_matches_the_fraction_formula(self):
        """The witness tail is max(1, |tail(x)| / tail(radius)), whatever the
        sign of tail(x) and on both sides of the radius; each probe atom
        takes the tolerance."""
        rng = sampling.make_rng(23)
        cases = [
            (ONE, EcRv({1: 3}, 0)),  # zero tail
            (EcRv.constant(2), EcRv.constant(-2)),  # on the radius
            (EcRv({2: 5}, Fraction(1, 3)), EcRv({4: 1}, Fraction(-7, 3))),
        ]
        cases += [
            (sampling.random_positive_ecrv(rng), sampling.random_ecrv(rng)) for _ in range(300)
        ]
        seen = set()
        for radius, x in cases:
            cert = gauge_upper_certificate(MPlusBall(radius), x)
            tail = max(Fraction(1), abs(x.tail) / radius.tail)
            assert cert.witness == EcRv(dict.fromkeys(PROBE_ATOMS, TOL), tail)
            seen.add((x.tail < 0, abs(x.tail) < radius.tail))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestRoundtrip:
    def test_seminorm_reproduced_exactly(self):
        report = roundtrip_check(Localized(EventSet.finite({1})), 500, seed=29)
        assert report.passed
        assert report.failures["gauge"] == 0

    def test_boundary_point_is_member(self):
        assert gauge_closed_form(UNIT_BALL, ONE) == ONE
        assert contains(UNIT_BALL, ONE)

    def test_interior_point(self):
        x = EcRv.constant(Fraction(1, 2))
        g = gauge_closed_form(UNIT_BALL, x)
        assert g == x
        assert order_compare(g, ONE).strict_set == EventSet.full()
        assert contains(UNIT_BALL, x)

    def test_ball_membership_agreement(self):
        report = roundtrip_check(UNIT_BALL, 500, seed=37)
        assert report.passed
        assert report.failures["membership"] == 0
        assert report.failures["strict"] == 0

    @given(ecrvs)
    def test_weighted_family_roundtrip(self, x):
        s = Weighted(EcRv({2: 3}, Fraction(1, 4)))
        ball = Ball((s,), ONE)
        assert gauge_closed_form(ball, x) == evaluate(s, x)


# radii 2**-k, k = 0..40: every nonzero value of a sampled point, and of
# a seminorm value at one, is at least 2**-32, so the ladder gets below it
LADDER = tuple(EcRv.constant(Fraction(1, 2**k)) for k in range(41))


def at_radius(s, radius):
    return Ball(s.seminorms, radius) if isinstance(s, Ball) else MPlusBall(radius)


def held_at_every_rung(s, x):
    return all(contains(at_radius(s, r), x) for r in LADDER)


def random_shape(rng):
    if rng.random() < 0.5:
        return MPlusBall(sampling.random_positive_ecrv(rng))
    family = (Weighted(blind_weight(rng)), Localized(EventSet.finite(rng.sample(range(1, 8), 2))))
    return Ball(family[: rng.randint(1, 2)], sampling.random_positive_ecrv(rng))


def blind_part(s, x):
    """x cut down to where the shape of s cannot see it."""
    if isinstance(s, MPlusBall):
        return EcRv(x.overrides, 0)
    c = evaluate(FiniteSup(s.seminorms), ONE)  # the largest coefficient
    zeros = {j for j, v in c.overrides.items() if v == 0}
    if c.tail == 0:
        return indicator_mul(EventSet.cofinite_excluding(set(c.overrides) - zeros), x)
    return indicator_mul(EventSet.finite(zeros), x)


class TestCore:
    def test_excluding_radius_agrees_with_membership_on_a_ladder(self):
        rng = sampling.make_rng(41)
        seen = set()
        for i in range(400):
            s = random_shape(rng)
            x = sampling.random_ecrv(rng)
            if i % 2:
                x = blind_part(s, x)
            eps = excluding_radius(s, x)
            assert (eps is None) == held_at_every_rung(s, x), (s, x)
            if eps is not None:
                assert classify(eps).in_L0_plusplus
                assert not contains(at_radius(s, eps), x), (s, x)
            seen.add((type(s), eps is None))
        assert seen == {(kind, held) for kind in (Ball, MPlusBall) for held in (True, False)}

    def test_radius_examples(self):
        assert excluding_radius(MPlusBall(ONE), EcRv({1: 0}, 1)) == EcRv({1: 1}, Fraction(1, 2))
        ball = Ball((Weighted(EcRv({1: 0, 2: 4}, 1)),), ONE)
        assert excluding_radius(ball, EcRv({2: 1}, -6)) == EcRv({1: 1, 2: 2}, 3)
        assert excluding_radius(ball, EcRv({1: 7}, 0)) is None
        assert excluding_radius(MPlusBall(ONE), EcRv({3: -2}, 0)) is None

    def test_core_point_is_an_atom_held_at_every_radius(self):
        rng = sampling.make_rng(43)
        seen = set()
        for _ in range(300):
            s = random_shape(rng)
            # the named atoms lie in 1..16, so an atom below 20 is held if any is
            held = [EcRv({j: 1}, 0) for j in range(1, 20)]
            held = [x for x in held if held_at_every_rung(s, x)]
            point = core_point(s)
            assert (point in held) if held else (point is None), s
            seen.add(point is None)
        assert seen == {True, False}

    @pytest.mark.parametrize(
        "s, point",
        [
            (MPlusBall(EcRv({1: 4}, 1)), EcRv({1: 1}, 0)),
            (Ball((Localized(EventSet.finite({1})),), ONE), EcRv({2: 1}, 0)),
            (Ball((Weighted(EcRv({1: 0}, 1)),), ONE), EcRv({1: 1}, 0)),
            (Ball((Localized(EventSet.finite({1, 2, 3})), Weighted(EcRv({3: 0}, 1))), ONE), None),
            (UNIT_BALL, None),
        ],
    )
    def test_core_point_examples(self, s, point):
        assert core_point(s) == point

    def test_other_shapes_are_refused(self):
        for s in (Scale(ONE, UNIT_BALL), Translate(ZERO, UNIT_BALL), Intersect((UNIT_BALL,))):
            with pytest.raises(UnsupportedShape):
                excluding_radius(s, ONE)
            with pytest.raises(UnsupportedShape):
                core_point(s)
