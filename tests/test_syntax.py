from fractions import Fraction

import pytest

from l0convex import (
    Ball,
    Diagonal,
    EcRv,
    EventSet,
    EventuallyConstantSeq,
    FinitePartition,
    FiniteSup,
    Intersect,
    Localized,
    MPlusBall,
    Scale,
    SingletonTail,
    Translate,
    Weighted,
    Zero,
)
from l0convex.config import ConfigError, parse_config
from l0convex.syntax import (
    ParseError,
    format_partition,
    format_seminorm,
    format_sequence,
    format_set,
    parse_ecrv,
    parse_event,
    parse_partition,
    parse_rational,
    parse_seminorm,
    parse_sequence,
    parse_set,
)


class TestLiterals:
    def test_rational(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-1/2") == Fraction(-1, 2)
        assert parse_rational("7") == 7

    def test_ecrv_forms(self):
        assert parse_ecrv("{1:3, 2:-1/2 | 0}") == EcRv({1: 3, 2: Fraction(-1, 2)}, 0)
        assert parse_ecrv("{|5}") == EcRv.constant(5)
        assert parse_ecrv("{5}") == EcRv.constant(5)
        assert parse_ecrv("{ 1 : 3 | 1/4 }") == EcRv({1: 3}, Fraction(1, 4))

    def test_ecrv_roundtrip(self):
        for x in (EcRv({1: 3, 2: Fraction(-1, 2)}, 0), EcRv.constant(0), EcRv({7: 1}, 1)):
            assert parse_ecrv(repr(x)) == x

    def test_event_forms(self):
        assert parse_event("{1,3}") == EventSet.finite({1, 3})
        assert parse_event("~{2}") == EventSet.cofinite_excluding({2})
        assert parse_event("{}") == EventSet.empty()
        assert parse_event("~{}") == EventSet.full()
        assert parse_event(repr(EventSet.cofinite_excluding({4, 9}))) == EventSet.cofinite_excluding({4, 9})

    def test_parse_errors_carry_location(self):
        with pytest.raises(ParseError) as err:
            parse_ecrv("{1:3, 2:x | 0}")
        assert err.value.line == 1
        assert err.value.column == 9

    def test_bad_atom(self):
        with pytest.raises(ParseError):
            parse_ecrv("{0:1 | 0}")
        with pytest.raises(ParseError):
            parse_event("{0}")


class TestDescriptors:
    def test_seminorms(self):
        assert parse_seminorm("zero") == Zero()
        assert parse_seminorm("weighted({|2})") == Weighted(EcRv.constant(2))
        assert parse_seminorm("localized({2})") == Localized(EventSet.finite({2}))
        sup = parse_seminorm("sup[zero, weighted({|1})]")
        assert sup == FiniteSup((Zero(), Weighted(EcRv.constant(1))))

    def test_sets(self):
        assert parse_set("m_plus_ball({|1})") == MPlusBall(EcRv.constant(1))
        ball = parse_set("ball(weighted({|1}), localized({1}); {|2})")
        assert ball == Ball(
            (Weighted(EcRv.constant(1)), Localized(EventSet.finite({1}))),
            EcRv.constant(2),
        )
        assert parse_set("scale({|2}; m_plus_ball({|1}))") == Scale(
            EcRv.constant(2), MPlusBall(EcRv.constant(1))
        )
        assert parse_set("translate({1:1|0}; ball(zero; {|1}))") == Translate(
            EcRv({1: 1}, 0), Ball((Zero(),), EcRv.constant(1))
        )
        both = parse_set("intersect[m_plus_ball({|1}), ball(zero; {|1})]")
        assert isinstance(both, Intersect) and len(both.members) == 2

    def test_invalid_radius_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_set("m_plus_ball({|0})")

    def test_sequences(self):
        assert parse_sequence("diag({|2})") == Diagonal(EcRv.constant(2))
        seq = parse_sequence("ec[{|3}, {|5} | {|0}]")
        assert seq == EventuallyConstantSeq(
            (EcRv.constant(3), EcRv.constant(5)), EcRv.constant(0)
        )
        assert parse_sequence("ec[| {|7}]") == EventuallyConstantSeq((), EcRv.constant(7))

    def test_partitions(self):
        assert parse_partition("finite[{1}, ~{1}]") == FinitePartition(
            (EventSet.finite({1}), EventSet.cofinite_excluding({1}))
        )
        assert parse_partition("singletons_from(3; {1}, {2})") == SingletonTail(
            (EventSet.finite({1}), EventSet.finite({2})), 3
        )
        assert parse_partition("singletons_from(1)") == SingletonTail((), 1)

    def test_format_roundtrips(self):
        objects = [
            (parse_seminorm, format_seminorm, "sup[zero, localized(~{3})]"),
            (parse_set, format_set, "scale({|2}; ball(weighted({|1}); {1:4 | 1}))"),
            (parse_sequence, format_sequence, "ec[{|3} | {|0}]"),
            (parse_sequence, format_sequence, "diag({1:8 | 2})"),
            (parse_partition, format_partition, "singletons_from(2; {1})"),
            (parse_partition, format_partition, "finite[{1}, ~{1}]"),
        ]
        for parse, fmt, text in objects:
            value = parse(text)
            assert parse(fmt(value)) == value


class TestConfig:
    def test_defaults(self):
        config = parse_config("")
        assert config.seed == 42
        assert config.samples == 200
        assert not hasattr(config, "horizon") and not hasattr(config, "tolerance")

    def test_full_config(self):
        text = """
        # a comment
        seed = 7
        samples = 50          # trailing comment
        space.explicit = [[1, "1/3"]]
        space.tail_coefficient = 4/3
        base = from_seminorms[weighted({|1}), zero]
        seminorm = localized({1})
        set = m_plus_ball({|1})
        seq.diag = {|2}
        seq.ec = [{|1} | {|0}]
        part.singletons_from = 1
        epsilon = {|1}
        delta = {1:4 | 1}
        expect = fail
        """
        config = parse_config(text)
        assert config.seed == 7
        assert config.samples == 50
        assert config.space.atom_mass(1) == Fraction(1, 3)
        assert len(config.base.family) == 2
        assert config.seminorm == Localized(EventSet.finite({1}))
        assert isinstance(config.set_descriptor, MPlusBall)
        assert len(config.sequences) == 2
        assert config.partition() == SingletonTail((), 1)
        assert config.expect == "fail"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed = 1\nbogus = 2\n")
        assert "line 2" in str(err.value)

    def test_parse_error_location_in_config(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed = 1\nepsilon = {1:| 0}\n")
        assert "line 2" in str(err.value)

    def test_partition_variants(self):
        config = parse_config("part.finite = [{1}, ~{1}]")
        assert config.partition() == FinitePartition(
            (EventSet.finite({1}), EventSet.cofinite_excluding({1}))
        )
        config = parse_config("part.finite = [{1}]\npart.singletons_from = 2")
        assert config.partition() == SingletonTail((EventSet.finite({1}),), 2)

    def test_bad_space_rejected(self):
        with pytest.raises(ConfigError):
            parse_config('space.explicit = [[1, "1/2"]]\nspace.tail_coefficient = 2')

    @pytest.mark.parametrize(
        "body",
        ["[{|3} | {|5}]", "[{1:2 | 0}, {|4} | {|5}]", "[| {|5}]"],
        ids=["one", "two", "empty_prefix"],
    )
    def test_config_ec_list_matches_sequence_literal(self, body):
        (sequence,) = parse_config(f"seq.ec = {body}").sequences
        assert sequence == parse_sequence(f"ec{body}")

    def test_expect_validated(self):
        with pytest.raises(ConfigError):
            parse_config("expect = maybe")
