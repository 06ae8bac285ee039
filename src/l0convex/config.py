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
from ._common import CounterexampleFamily, NeighborhoodBase, ParseError
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
        def literal(method: str):  # the value as one literal of that kind
            return syntax._parse_one(method, value, line_no - 1)

        try:
            if key == "seed":
                config.seed = int(value)
            elif key == "samples":
                config.samples = int(value)
            elif key == "space.explicit":
                explicit = literal("weights")
            elif key == "space.tail_coefficient":
                tail_coefficient = Fraction(_strip_quotes(value))
            elif key == "base":
                config.base = literal("base")
            elif key == "seminorm":
                config.seminorm = literal("seminorm")
            elif key == "set":
                config.set_descriptor = literal("set_descriptor")
            elif key == "seq.ec":
                config.sequences.append(literal("ec_list"))
            elif key == "seq.diag":
                from .concatenation import Diagonal

                config.sequences.append(Diagonal(literal("ecrv")))
            elif key == "part.finite":
                config.prefix_cells = literal("event_list")
            elif key == "part.singletons_from":
                config.singletons_from = int(value)
            elif key == "epsilon":
                config.epsilon = literal("ecrv")
            elif key == "delta":
                config.delta = literal("ecrv")
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
