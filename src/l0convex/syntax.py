"""Textual literals for the CLI and config files.

Grammar (whitespace-insensitive):

    rational   3  -1/2
    ecrv       {1:3, 2:-1/2 | 0}   {|5}   {5}        (constant shorthand)
    event      {1,3}   ~{2}   {}   ~{}                (~ marks cofinite)
    seminorm   zero   weighted({|2})   localized({2})   sup[s1, s2]
    set        ball(s1, s2; {|1})   m_plus_ball({|1})
               scale({|2}; S)   translate({|1}; S)   intersect[S1, S2]
    base       counterexample   from_seminorms[s1, s2]
    sequence   ec[{|3}, {|5} | {|0}]   diag({|2})
    partition  finite[{1}, ~{1}]   singletons_from(3)
               singletons_from(3; {1}, {2})
    weights    [[1, "1/2"], [2, 1/4]]                 (explicit atom masses)

`Parser` reads the literals every parsing command reads: integers,
rationals, elements, events, seminorms, sets and bases, and
`format_seminorm` prints a seminorm.  The sequences, partitions and
space weights, which only gluing, partitions and a configured space
need, are read by the subclass `_syntax_extra.FullParser`.  Its module,
`_syntax_extra`, also holds `parse_sequence`, `parse_partition` and the
formatters of sets, sequences and partitions; only a command that reads
or prints such a literal loads it.

Parsing is exact: every number becomes a `Ratio`, a numerator over a
positive denominator in lowest terms (`parse_rational` gives it as
a Fraction), and parse errors carry a line and column.  An integer is
an optional '-' and then decimal digits, as a flag's integer is.  A
seminorm or set literal sits inside at most `MAX_NESTING` others.
"""

from __future__ import annotations

from math import gcd

from ._common import CounterexampleFamily, EventSet, FromSeminorms, NeighborhoodBase
from ._common import Ratio, ratio_text
from ._common import ParseError  # re-exported
from . import l0
from . import seminorms as sn
from . import sets as sd

TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


# How many seminorm and set literals one such literal may sit inside: the
# parser and every consumer of a descriptor recurse once per level.
MAX_NESTING = 64


def _nested(read):
    """The literal reader `read`, refusing a literal nested past MAX_NESTING."""

    def nested(parser):
        parser.skip_ws()  # an error points at the literal itself
        if parser.depth > MAX_NESTING:
            raise parser.error(f"a literal nested more than {MAX_NESTING} levels deep")
        parser.depth += 1
        try:
            return read(parser)
        finally:
            parser.depth -= 1

    return nested


class Parser:
    def __init__(self, text: str, line_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line_offset = line_offset
        self.depth = 0  # the seminorm and set literals open at `pos`

    def _location(self) -> tuple[int, int]:
        consumed = self.text[: self.pos]
        line = consumed.count("\n") + 1 + self.line_offset
        column = self.pos - (consumed.rfind("\n") + 1) + 1
        return line, column

    def error(self, message: str) -> ParseError:
        line, column = self._location()
        return ParseError(message, line, column)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def take(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

    def try_take(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a name")
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise self.error("expected an integer")
        return self._validated(int, self.text[start : self.pos])  # int() caps its digits

    def rational(self) -> Ratio:
        """`p` or `p/q`, as (numerator, positive denominator) in lowest terms."""
        num = self.integer()
        if not self.try_take("/"):
            return Ratio(num, 1)
        den = self.integer()
        if den == 0:
            raise self.error("zero denominator")
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        return Ratio(num // g, den // g)

    # -- composite literals --

    def ecrv(self) -> l0.EcRv:
        self.take("{")
        overrides: dict[int, Ratio] = {}
        if self.try_take("|"):
            tail = self.rational()
            self.take("}")
            return l0.EcRv({}, tail)
        first = self.rational()
        if self.try_take("}"):
            return l0.EcRv.constant(first)  # {5} shorthand
        if self.try_take(":"):
            overrides[self._atom(first)] = self.rational()
        else:
            raise self.error("expected ':' or '|' in element literal")
        while self.try_take(","):
            atom = self._once(self._atom(self.rational()), overrides)
            self.take(":")
            overrides[atom] = self.rational()
        self.take("|")
        tail = self.rational()
        self.take("}")
        return l0.EcRv(overrides, tail)

    def _atom(self, value: Ratio) -> int:
        p, q = value.numerator, value.denominator
        if q != 1 or p < 1:
            raise self.error(f"atom index must be a positive integer, got {ratio_text(p, q)}")
        return p

    def _once(self, atom: int, given: dict) -> int:
        """`atom`, just read, unless `given` already holds a value there."""
        if atom in given:
            raise self.error(f"atom {atom} is given twice")
        return atom

    def event(self) -> EventSet:
        cofinite = self.try_take("~")
        self.take("{")
        atoms = []
        if not self.try_take("}"):
            atoms = self.items(self.integer)
            self.take("}")
        return self._validated(EventSet, atoms, cofinite)

    @_nested
    def seminorm(self) -> sn.Seminorm:
        name = self.word()
        if name == "zero":
            return sn.Zero()
        if name == "weighted":
            return self._validated(sn.Weighted, *self.arguments(self.ecrv))
        if name == "localized":
            return sn.Localized(*self.arguments(self.event))
        if name == "sup":
            return sn.FiniteSup(tuple(self.bracket_list(self.seminorm)))
        raise self.error(f"unknown seminorm {name!r}")

    @_nested
    def set_descriptor(self) -> sd.SetDescriptor:
        name = self.word()
        if name == "ball":
            members, radius = self.arguments(lambda: self.items(self.seminorm), self.ecrv)
            return self._validated(sd.Ball, tuple(members), radius)
        if name == "m_plus_ball":
            return self._validated(sd.MPlusBall, *self.arguments(self.ecrv))
        if name == "scale":
            return self._validated(sd.Scale, *self.arguments(self.ecrv, self.set_descriptor))
        if name == "translate":
            return sd.Translate(*self.arguments(self.ecrv, self.set_descriptor))
        if name == "intersect":
            return sd.Intersect(tuple(self.bracket_list(self.set_descriptor)))
        raise self.error(f"unknown set {name!r}")

    def base(self) -> NeighborhoodBase:
        name = self.word()
        if name == "counterexample":
            return CounterexampleFamily()
        if name != "from_seminorms":
            raise ParseError(f"unknown base {name!r}", self.line_offset + 1, 1)
        return FromSeminorms(tuple(self.bracket_list(self.seminorm)))

    def items(self, item) -> list:
        """One or more `item()`s separated by commas."""
        items = [item()]
        while self.try_take(","):
            items.append(item())
        return items

    def arguments(self, *readers) -> list:
        """`(a)` or `(a; b)`: the value of each of one or two readers."""
        values = []
        for opening, read in zip("(;", readers):
            self.take(opening)
            values.append(read())
        self.take(")")
        return values

    def bracket_list(self, item) -> list:
        """`[a, b, ...]` with at least one `item()`."""
        self.take("[")
        items = self.items(item)
        self.take("]")
        return items

    def _validated(self, ctor, *args):
        try:
            return ctor(*args)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def finish(self):
        if not self.at_end():
            raise self.error("unexpected trailing input")


def _parse_one(method_name: str, text: str, line_offset: int = 0):
    """The one literal `text` holds, read by the parser method `method_name`:
    a `Parser` method, or one that only `_syntax_extra.FullParser` has,
    which loads that module."""
    parser_class = Parser
    if not hasattr(Parser, method_name):
        from ._syntax_extra import FullParser as parser_class
    parser = parser_class(text, line_offset)
    value = getattr(parser, method_name)()
    parser.finish()
    return value


def parse_rational(text: str) -> Fraction:
    from fractions import Fraction

    value = _parse_one("rational", text)
    return Fraction(value.numerator, value.denominator)


def parse_ecrv(text: str) -> l0.EcRv:
    return _parse_one("ecrv", text)


def parse_event(text: str) -> EventSet:
    return _parse_one("event", text)


def parse_seminorm(text: str) -> sn.Seminorm:
    return _parse_one("seminorm", text)


def parse_set(text: str) -> sd.SetDescriptor:
    return _parse_one("set_descriptor", text)


# -- canonical formatting (round-trips through the parsers) ------------------


def format_seminorm(s: sn.Seminorm) -> str:
    if isinstance(s, sn.Zero):
        return "zero"
    if isinstance(s, sn.Weighted):
        return f"weighted({s.weight!r})"
    if isinstance(s, sn.Localized):
        return f"localized({s.event!r})"
    return "sup[" + ", ".join(format_seminorm(m) for m in s.members) + "]"
