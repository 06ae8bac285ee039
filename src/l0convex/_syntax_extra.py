"""The literals only some commands read or print.

`FullParser` is `syntax.Parser` plus the readers of sequences,
partitions and space weights (see the grammar in `syntax`); the
formatters here print sets, sequences and partitions.  Only the
commands that read or print such a literal load this module: `eval
glue`, `check cc`, `partition`, a config that sets `seq.ec`,
`part.finite` or a space key, and `check roundtrip` on a set.  Every other
command that parses reads its literals with `syntax.Parser` alone.
"""

from __future__ import annotations

from . import concatenation as cc, measure, sets as sd, syntax
from ._common import EventSet, Ratio


class FullParser(syntax.Parser):
    """Every literal of the grammar."""

    def sequence(self) -> cc.SequenceSpec:
        name = self.word()
        if name == "ec":
            return self.ec_list()
        if name == "diag":
            return cc.Diagonal(*self.arguments(self.ecrv))
        raise self.error(f"unknown sequence {name!r}")

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

    def partition(self):
        name = self.word()
        if name == "finite":
            return self._validated(measure.FinitePartition, self.event_list())
        if name == "singletons_from":
            self.take("(")
            start = self.integer()
            cells = self.items(self.event) if self.try_take(";") else []
            self.take(")")
            return self._validated(measure.SingletonTail, tuple(cells), start)
        raise self.error(f"unknown partition {name!r}")

    def event_list(self) -> tuple[EventSet, ...]:
        return tuple(self.bracket_list(self.event))

    def weights(self) -> dict[int, Ratio]:
        """`[[atom, weight], ...]`, possibly empty, each atom once."""
        weights: dict[int, Ratio] = {}
        self.take("[")
        if not self.try_take("]"):
            self.items(lambda: self._weight(weights))
            self.take("]")
        return weights

    def _weight(self, weights: dict[int, Ratio]):
        self.take("[")
        atom = self._once(self.integer(), weights)
        self.take(",")
        weights[atom] = self.quoted_rational()
        self.take("]")

    def quoted_rational(self) -> Ratio:
        """A rational, bare or in a pair of matching quotes."""
        quote = self.peek()
        if quote not in ("'", '"'):
            quote = ""  # unquoted: take("") matches at once
        self.take(quote)
        value = self.rational()
        self.take(quote)
        return value

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""


def parse_sequence(text: str) -> cc.SequenceSpec:
    return syntax._parse_one("sequence", text)


def parse_partition(text: str):
    return syntax._parse_one("partition", text)


# -- canonical formatting (round-trips through the parsers) ------------------


def format_set(s: sd.SetDescriptor) -> str:
    if isinstance(s, sd.Ball):
        inner = ", ".join(syntax.format_seminorm(p) for p in s.seminorms)
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
    if isinstance(part, measure.FinitePartition):
        return "finite[" + ", ".join(repr(c) for c in part.cells) + "]"
    cells = "; " + ", ".join(repr(c) for c in part.prefix_cells) if part.prefix_cells else ""
    return f"singletons_from({part.tail_start}{cells})"
