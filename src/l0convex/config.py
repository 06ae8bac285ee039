"""Plain-text key=value run configuration.

Example:

    # space defaults to the dyadic one
    seed = 7
    samples = 100
    base = counterexample
    seminorm = localized({1})
    set = m_plus_ball({|1})
    seq.diag = {|2}
    part.singletons_from = 1
    expect = fail

Unknown keys are rejected with the offending line number; every value
parses through the exact literal grammar.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import syntax
from ._common import CounterexampleFamily, FromSeminorms, NeighborhoodBase, ParseError
from ._record import field, record
from .measure import CANONICAL, DiscreteSpace, EventSet, FinitePartition, SingletonTail

if TYPE_CHECKING:
    from .concatenation import SequenceSpec
    from .l0 import EcRv
    from .seminorms import Seminorm
    from .sets import SetDescriptor


class ConfigError(ValueError):
    pass


@record
class RunConfig:
    space: DiscreteSpace = field(default_factory=lambda: CANONICAL)
    seed: int = 42
    samples: int = 200
    base: NeighborhoodBase = field(default_factory=CounterexampleFamily)
    seminorm: Optional[Seminorm] = None
    set_descriptor: Optional[SetDescriptor] = None
    sequences: list[SequenceSpec] = field(default_factory=list)
    prefix_cells: list[EventSet] = field(default_factory=list)
    singletons_from: Optional[int] = None
    epsilon: Optional[EcRv] = None
    delta: Optional[EcRv] = None
    expect: str = "pass"

    def partition(self):
        """Assemble the configured partition, if any."""
        if self.singletons_from is not None:
            return SingletonTail(tuple(self.prefix_cells), self.singletons_from)
        if self.prefix_cells:
            return FinitePartition(tuple(self.prefix_cells))
        return None


def _strip_quotes(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        return value[1:-1]
    return value


def _parse_space_explicit(value: str, line: int) -> dict[int, Fraction]:
    parser = syntax.Parser(value, line_offset=line - 1)

    def entry() -> tuple[int, Fraction]:
        parser.take("[")
        atom = parser.integer()
        parser.take(",")
        if parser.peek() in "'\"":
            quote = parser.text[parser.pos]
            parser.pos += 1
            weight = parser.rational()
            parser.take(quote)
        else:
            weight = parser.rational()
        parser.take("]")
        return atom, weight

    parser.take("[")
    weights: dict[int, Fraction] = {}
    if not parser.try_take("]"):
        weights = dict(parser.items(entry))
        parser.take("]")
    parser.finish()
    return weights


def _parse_ec_list(value: str, line: int):
    parser = syntax.Parser(value, line_offset=line - 1)
    sequence = parser.ec_list()
    parser.finish()
    return sequence


def parse_event_list(value: str, line: int) -> list[EventSet]:
    parser = syntax.Parser(value, line_offset=line - 1)
    cells = parser.bracket_list(parser.event)
    parser.finish()
    return cells


def _parse_base(value: str, line: int) -> NeighborhoodBase:
    value = value.strip()
    if value == "counterexample":
        return CounterexampleFamily()
    parser = syntax.Parser(value, line_offset=line - 1)
    name = parser.word()
    if name != "from_seminorms":
        raise ParseError(f"unknown base {name!r}", line, 1)
    members = parser.bracket_list(parser.seminorm)
    parser.finish()
    return FromSeminorms(tuple(members))


def _entries(text: str):
    """(line number, key, value) for each setting; comments and blank
    lines are skipped."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        yield line_no, key, value


def config_keys(text: str) -> list[str]:
    """The keys a config text sets, in order."""
    return [key for _, key, _ in _entries(text)]


def parse_config(text: str) -> RunConfig:
    config = RunConfig()
    explicit: dict[int, Fraction] = {}
    tail_coefficient: Optional[Fraction] = None
    for line_no, key, value in _entries(text):
        try:
            if key == "seed":
                config.seed = int(value)
            elif key == "samples":
                config.samples = int(value)
            elif key == "space.explicit":
                explicit = _parse_space_explicit(value, line_no)
            elif key == "space.tail_coefficient":
                tail_coefficient = Fraction(_strip_quotes(value))
            elif key == "base":
                config.base = _parse_base(value, line_no)
            elif key == "seminorm":
                config.seminorm = syntax.parse_seminorm(value, line_offset=line_no - 1)
            elif key == "set":
                config.set_descriptor = syntax.parse_set(value, line_offset=line_no - 1)
            elif key == "seq.ec":
                config.sequences.append(_parse_ec_list(value, line_no))
            elif key == "seq.diag":
                from .concatenation import Diagonal

                config.sequences.append(
                    Diagonal(syntax.parse_ecrv(value, line_offset=line_no - 1))
                )
            elif key == "part.finite":
                config.prefix_cells = parse_event_list(value, line_no)
            elif key == "part.singletons_from":
                config.singletons_from = int(value)
            elif key == "epsilon":
                config.epsilon = syntax.parse_ecrv(value, line_offset=line_no - 1)
            elif key == "delta":
                config.delta = syntax.parse_ecrv(value, line_offset=line_no - 1)
            elif key == "expect":
                if value not in ("pass", "fail"):
                    raise ConfigError(f"line {line_no}: expect must be pass or fail")
                config.expect = value
            else:
                raise ConfigError(f"line {line_no}: unknown key {key!r}")
        except ParseError as exc:
            raise ConfigError(str(exc)) from None
        except (ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"line {line_no}: {exc}") from None

    if explicit or tail_coefficient is not None:
        try:
            config.space = DiscreteSpace(
                explicit, tail_coefficient if tail_coefficient is not None else 1
            )
        except ValueError as exc:
            raise ConfigError(f"space: {exc}") from None
    return config
