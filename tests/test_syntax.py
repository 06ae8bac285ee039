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
from l0convex._common import Ratio
from l0convex.config import _KEYS, ConfigError, RunConfig, parse_config
from l0convex.syntax import (
    MAX_NESTING,
    ParseError,
    Parser,
    format_seminorm,
    parse_ecrv,
    parse_event,
    parse_rational,
    parse_seminorm,
    parse_set,
)
from l0convex._syntax_extra import (
    FullParser,
    format_partition,
    format_sequence,
    format_set,
    parse_partition,
    parse_sequence,
)


class TestLiterals:
    def test_rational(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-1/2") == Fraction(-1, 2)
        assert parse_rational("7") == 7

    def test_rationals_are_read_as_integer_pairs(self):
        """The parser reads (numerator, positive denominator) in lowest
        terms; the public `parse_rational` still returns a Fraction."""
        assert Parser("6/-4").rational() == Ratio(-3, 2)
        assert Parser("6/-4").rational().denominator == 2  # read by EcRv as a Fraction's
        assert Parser("0/-5").rational() == Ratio(0, 1)
        assert FullParser("'3'").quoted_rational() == Ratio(3, 1)
        assert repr(Ratio(-3, 2)) == "Ratio(numerator=-3, denominator=2)"
        with pytest.raises(AttributeError):
            Ratio(1, 2).numerator = 3
        assert type(parse_rational("6/4")) is Fraction and parse_rational("6/4") == Fraction(3, 2)

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

    @pytest.mark.parametrize(
        "parse, text, message, column",
        [
            (parse_seminorm, "norm({|1})", "unknown seminorm 'norm'", 7),
            (parse_set, "sup[zero]", "unknown set 'sup'", 6),
            (parse_sequence, "seq[{|1}]", "unknown sequence 'seq'", 6),
            (parse_partition, "cells[{1}]", "unknown partition 'cells'", 8),
            (parse_ecrv, "{1, 2}", "expected ':' or '|' in element literal", 5),
        ],
        ids=["seminorm", "set", "sequence", "partition", "element"],
    )
    def test_unknown_names_are_located(self, parse, text, message, column):
        """Each error is located on the line it sits on: here the second,
        after two spaces."""
        with pytest.raises(ParseError) as err:
            parse("\n  " + text)
        assert (err.value.message, err.value.line, err.value.column) == (message, 2, column)
        assert str(err.value) == f"{message} (line 2, column {column})"

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


# A literal nested `levels` deep: its innermost literal sits inside that
# many seminorm and set literals.
NESTED = {
    "sup": (
        parse_seminorm,
        format_seminorm,
        lambda levels: "sup[" * levels + "zero" + "]" * levels,
    ),
    "ball": (
        parse_set,
        format_set,
        lambda levels: "ball(" + "sup[" * (levels - 1) + "zero" + "]" * (levels - 1) + "; {|1})",
    ),
    "scale": (
        parse_set,
        format_set,
        lambda levels: "scale({|2}; " * levels + "m_plus_ball({|1})" + ")" * levels,
    ),
    "translate": (
        parse_set,
        format_set,
        lambda levels: "translate({|1}; " * levels + "m_plus_ball({|1})" + ")" * levels,
    ),
    "intersect": (
        parse_set,
        format_set,
        lambda levels: "intersect[" * levels + "m_plus_ball({|1})" + "]" * levels,
    ),
}


class TestNesting:
    """A seminorm or set literal sits inside at most MAX_NESTING others;
    one level deeper is a parse error at the innermost literal."""

    @pytest.mark.parametrize("parse, fmt, literal", NESTED.values(), ids=NESTED)
    def test_at_the_limit_the_literal_is_read(self, parse, fmt, literal):
        text = literal(MAX_NESTING)
        assert fmt(parse(text)) == text

    @pytest.mark.parametrize("parse, fmt, literal", NESTED.values(), ids=NESTED)
    def test_one_level_deeper_is_a_located_parse_error(self, parse, fmt, literal):
        text = literal(MAX_NESTING + 1)
        innermost = max(text.rfind("zero"), text.rfind("m_plus_ball"))
        with pytest.raises(ParseError) as caught:
            parse(text)
        assert caught.value.message == "a literal nested more than 64 levels deep"
        assert (caught.value.line, caught.value.column) == (1, innermost + 1)

    def test_the_depth_is_counted_per_literal(self):
        """Literals side by side do not add up: only nesting counts."""
        deep = NESTED["sup"][2](MAX_NESTING - 1)
        assert len(parse_seminorm(f"sup[{deep}, {deep}, {deep}]").members) == 3

    def test_a_config_value_is_limited_too(self):
        text = NESTED["sup"][2](MAX_NESTING + 1)
        with pytest.raises(ConfigError, match=r"64 levels deep \(line 2, column 261\)"):
            parse_config(f"# a comment\nseminorm = {text}\n")


class TestConfig:
    def test_defaults(self):
        config, _ = parse_config("")
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
        config, keys = parse_config(text)
        assert (keys["seed"], keys["expect"], len(keys)) == (3, 15, 13)  # line 1 is blank
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
        config, _ = parse_config("part.finite = [{1}, ~{1}]")
        assert config.partition() == FinitePartition(
            (EventSet.finite({1}), EventSet.cofinite_excluding({1}))
        )
        config, _ = parse_config("part.finite = [{1}]\npart.singletons_from = 2")
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
        (sequence,) = parse_config(f"seq.ec = {body}")[0].sequences
        assert sequence == parse_sequence(f"ec{body}")

    def test_expect_validated(self):
        with pytest.raises(ConfigError):
            parse_config("expect = maybe")

    # One valid value per config key, each set away from its default.
    ONE_VALUE_PER_KEY = {
        "seed": "7",
        "samples": "5",
        "space.explicit": '[[1, "1/2"]]',
        "space.tail_coefficient": "'1'",
        "base": "from_seminorms[zero]",
        "seminorm": "localized({1})",
        "set": "m_plus_ball({|1})",
        "seq.ec": "[{|3} | {|5}]",
        "seq.diag": "{|2}",
        "part.finite": "[{1}, ~{1}]",
        "part.singletons_from": "3",
        "epsilon": "{|1}",
        "delta": "{|1/2}",
        "expect": "fail",
    }

    @pytest.mark.parametrize("key", sorted(ONE_VALUE_PER_KEY))
    def test_every_key_has_a_reader(self, key):
        """Each key's reader, in `syntax.Parser` or in the full parser of
        `_syntax_extra`, reads a valid value into the key's field."""
        assert set(self.ONE_VALUE_PER_KEY) == set(_KEYS)
        config, lines = parse_config(f"{key} = {self.ONE_VALUE_PER_KEY[key]}\n")
        attr = _KEYS[key][0]
        assert lines == {key: 1}
        assert getattr(config, attr) != getattr(RunConfig(), attr)
