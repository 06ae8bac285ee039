"""Textual literals for the CLI and config files.

Grammar (whitespace-insensitive):

    rational   3  -1/2
    ecrv       {1:3, 2:-1/2 | 0}   {|5}   {5}        (constant shorthand)
    event      {1,3}   ~{2}   {}   ~{}                (~ marks cofinite)
    seminorm   zero   weighted({|2})   localized({2})   sup[s1, s2]
    set        ball(s1, s2; {|1})   m_plus_ball({|1})
               scale({|2}; S)   translate({|1}; S)   intersect[S1, S2]
    sequence   ec[{|3}, {|5} | {|0}]   diag({|2})
    partition  finite[{1}, ~{1}]   singletons_from(3)
               singletons_from(3; {1}, {2})

Parsing is exact: every number becomes a Fraction, and parse errors
carry a line and column.
"""

from __future__ import annotations

from fractions import Fraction

from .l0 import EcRv
from .measure import EventSet, FinitePartition, SingletonTail
from . import seminorms as sn
from . import sets as sd
from . import concatenation as cc


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class Parser:
    def __init__(self, text: str, line_offset: int = 0):
        self.text = text
        self.pos = 0
        self.line_offset = line_offset

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

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def rational(self) -> Fraction:
        num = self.integer()
        if self.try_take("/"):
            den = self.integer()
            if den == 0:
                raise self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    # -- composite literals --

    def ecrv(self) -> EcRv:
        self.take("{")
        overrides: dict[int, Fraction] = {}
        if self.try_take("|"):
            tail = self.rational()
            self.take("}")
            return EcRv({}, tail)
        first = self.rational()
        if self.try_take("}"):
            return EcRv.constant(first)  # {5} shorthand
        if self.try_take(":"):
            overrides[self._atom(first)] = self.rational()
        else:
            raise self.error("expected ':' or '|' in element literal")
        while self.try_take(","):
            atom = self._atom(self.rational())
            self.take(":")
            overrides[atom] = self.rational()
        self.take("|")
        tail = self.rational()
        self.take("}")
        return EcRv(overrides, tail)

    def _atom(self, value: Fraction) -> int:
        if value.denominator != 1 or value < 1:
            raise self.error(f"atom index must be a positive integer, got {value}")
        return int(value)

    def event(self) -> EventSet:
        cofinite = self.try_take("~")
        self.take("{")
        atoms = []
        if not self.try_take("}"):
            atoms = self.items(self.integer)
            self.take("}")
        try:
            return EventSet(atoms, cofinite=cofinite)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def seminorm(self) -> sn.Seminorm:
        name = self.word()
        if name == "zero":
            return sn.Zero()
        if name == "weighted":
            self.take("(")
            w = self.ecrv()
            self.take(")")
            return self._validated(sn.Weighted, w)
        if name == "localized":
            self.take("(")
            e = self.event()
            self.take(")")
            return sn.Localized(e)
        if name == "sup":
            members = self.bracket_list(self.seminorm)
            return sn.FiniteSup(tuple(members))
        raise self.error(f"unknown seminorm {name!r}")

    def set_descriptor(self) -> sd.SetDescriptor:
        name = self.word()
        if name == "ball":
            self.take("(")
            members = self.items(self.seminorm)
            self.take(";")
            radius = self.ecrv()
            self.take(")")
            return self._validated(sd.Ball, tuple(members), radius)
        if name == "m_plus_ball":
            self.take("(")
            radius = self.ecrv()
            self.take(")")
            return self._validated(sd.MPlusBall, radius)
        if name == "scale":
            self.take("(")
            factor = self.ecrv()
            self.take(";")
            inner = self.set_descriptor()
            self.take(")")
            return self._validated(sd.Scale, factor, inner)
        if name == "translate":
            self.take("(")
            offset = self.ecrv()
            self.take(";")
            inner = self.set_descriptor()
            self.take(")")
            return sd.Translate(offset, inner)
        if name == "intersect":
            members = self.bracket_list(self.set_descriptor)
            return sd.Intersect(tuple(members))
        raise self.error(f"unknown set {name!r}")

    def sequence(self) -> cc.SequenceSpec:
        name = self.word()
        if name == "ec":
            return self.ec_list()
        if name == "diag":
            self.take("(")
            value = self.ecrv()
            self.take(")")
            return cc.Diagonal(value)
        raise self.error(f"unknown sequence {name!r}")

    def partition(self):
        name = self.word()
        if name == "finite":
            cells = self.bracket_list(self.event)
            return self._validated(FinitePartition, tuple(cells))
        if name == "singletons_from":
            self.take("(")
            start = self.integer()
            cells = self.items(self.event) if self.try_take(";") else []
            self.take(")")
            return self._validated(SingletonTail, tuple(cells), start)
        raise self.error(f"unknown partition {name!r}")

    def items(self, item) -> list:
        """One or more `item()`s separated by commas."""
        items = [item()]
        while self.try_take(","):
            items.append(item())
        return items

    def bracket_list(self, item) -> list:
        """`[a, b, ...]` with at least one `item()`."""
        self.take("[")
        items = self.items(item)
        self.take("]")
        return items

    def ec_list(self) -> cc.EventuallyConstantSeq:
        """`[x1, x2 | tail]`, the body of an `ec[...]` sequence literal."""
        self.take("[")
        prefix = []
        if not self.try_take("|"):
            prefix = self.items(self.ecrv)
            self.take("|")
        tail = self.ecrv()
        self.take("]")
        return cc.EventuallyConstantSeq(tuple(prefix), tail)

    def _validated(self, ctor, *args):
        try:
            return ctor(*args)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def finish(self):
        if not self.at_end():
            raise self.error("unexpected trailing input")


def _parse_one(method_name: str, text: str, line_offset: int = 0):
    parser = Parser(text, line_offset)
    value = getattr(parser, method_name)()
    parser.finish()
    return value


def parse_rational(text: str, line_offset: int = 0) -> Fraction:
    return _parse_one("rational", text, line_offset)


def parse_ecrv(text: str, line_offset: int = 0) -> EcRv:
    return _parse_one("ecrv", text, line_offset)


def parse_event(text: str, line_offset: int = 0) -> EventSet:
    return _parse_one("event", text, line_offset)


def parse_seminorm(text: str, line_offset: int = 0) -> sn.Seminorm:
    return _parse_one("seminorm", text, line_offset)


def parse_set(text: str, line_offset: int = 0) -> sd.SetDescriptor:
    return _parse_one("set_descriptor", text, line_offset)


def parse_sequence(text: str, line_offset: int = 0) -> cc.SequenceSpec:
    return _parse_one("sequence", text, line_offset)


def parse_partition(text: str, line_offset: int = 0):
    return _parse_one("partition", text, line_offset)


# -- canonical formatting (round-trips through the parsers) ------------------


def format_seminorm(s: sn.Seminorm) -> str:
    if isinstance(s, sn.Zero):
        return "zero"
    if isinstance(s, sn.Weighted):
        return f"weighted({s.weight!r})"
    if isinstance(s, sn.Localized):
        return f"localized({s.event!r})"
    return "sup[" + ", ".join(format_seminorm(m) for m in s.members) + "]"


def format_set(s: sd.SetDescriptor) -> str:
    if isinstance(s, sd.Ball):
        inner = ", ".join(format_seminorm(p) for p in s.seminorms)
        return f"ball({inner}; {s.radius!r})"
    if isinstance(s, sd.MPlusBall):
        return f"m_plus_ball({s.radius!r})"
    if isinstance(s, sd.Scale):
        return f"scale({s.factor!r}; {format_set(s.inner)})"
    if isinstance(s, sd.Translate):
        return f"translate({s.offset!r}; {format_set(s.inner)})"
    return "intersect[" + ", ".join(format_set(m) for m in s.members) + "]"


def format_sequence(seq: cc.SequenceSpec) -> str:
    if isinstance(seq, cc.Diagonal):
        return f"diag({seq.value!r})"
    prefix = ", ".join(repr(x) for x in seq.prefix)
    return f"ec[{prefix}{' ' if prefix else ''}| {seq.tail_element!r}]"


def format_partition(part) -> str:
    if isinstance(part, FinitePartition):
        return "finite[" + ", ".join(repr(c) for c in part.cells) + "]"
    cells = "; " + ", ".join(repr(c) for c in part.prefix_cells) if part.prefix_cells else ""
    return f"singletons_from({part.tail_start}{cells})"
