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

Unknown keys and a key set twice are rejected with the offending line
number; only `seq.ec` and `seq.diag` may repeat, each line adding one
sequence.  Every value parses through the exact literal grammar of
`syntax`: integers for `seed`, `samples` and `part.singletons_from`,
a rational `p/q`, bare or quoted, for `space.tail_coefficient`.  The
keys `seq.ec`, `part.finite`, `space.explicit` and
`space.tail_coefficient` load `_syntax_extra`, whose parser reads their
values; no other key does.
"""

from __future__ import annotations

from . import measure, syntax  # bound lazily: a space or a partition runs `measure`
from ._common import CounterexampleFamily, EventSet, NeighborhoodBase, ParseError, UsageError
from ._common import record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .concatenation import SequenceSpec
    from .l0 import EcRv
    from .measure import DiscreteSpace
    from .seminorms import Seminorm
    from .sets import SetDescriptor


class ConfigError(UsageError):
    pass


@record
class RunConfig:
    space: DiscreteSpace | None = None  # None: the dyadic space `measure.CANONICAL`
    seed: int = 42
    samples: int = 200
    base: NeighborhoodBase = CounterexampleFamily()
    seminorm: Seminorm | None = None
    set_descriptor: SetDescriptor | None = None
    sequences: tuple[SequenceSpec, ...] = ()
    prefix_cells: tuple[EventSet, ...] = ()
    singletons_from: int | None = None
    epsilon: EcRv | None = None
    delta: EcRv | None = None
    expect: str = "pass"

    def partition(self):
        """Assemble the configured partition, if any."""
        if self.singletons_from is not None:
            return measure.SingletonTail(self.prefix_cells, self.singletons_from)
        if self.prefix_cells:
            return measure.FinitePartition(self.prefix_cells)
        return None


# Each key: the `RunConfig` field it sets and the parser method that reads
# its value, a `syntax.Parser` method where that class has it, else one of
# `_syntax_extra.FullParser`.  A key is set once, but the `sequences` keys
# add one sequence per line; the two `space` keys together build the space.
_KEYS = {
    "seed": ("seed", "integer"),
    "samples": ("samples", "integer"),
    "space.explicit": ("space", "weights"),
    "space.tail_coefficient": ("space", "quoted_rational"),
    "base": ("base", "base"),
    "seminorm": ("seminorm", "seminorm"),
    "set": ("set_descriptor", "set_descriptor"),
    "seq.ec": ("sequences", "ec_list"),
    "seq.diag": ("sequences", "ecrv"),
    "part.finite": ("prefix_cells", "event_list"),
    "part.singletons_from": ("singletons_from", "integer"),
    "epsilon": ("epsilon", "ecrv"),
    "delta": ("delta", "ecrv"),
    "expect": ("expect", "word"),
}


def parse_config(text: str) -> tuple[RunConfig, dict[str, int]]:
    """The config `text` sets, and each key it sets with the line that
    first set it, in order.  Comments and blank lines are skipped."""
    values: dict = {}
    lines: dict[str, int] = {}
    space = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        attr, method = _KEYS[key]
        if key in lines and attr != "sequences":
            raise ConfigError(f"line {line_no}: {key!r} is already set on line {lines[key]}")
        lines.setdefault(key, line_no)
        if key == "expect" and value not in ("pass", "fail"):
            raise ConfigError(f"line {line_no}: expect must be pass or fail")
        try:
            value = syntax._parse_one(method, value, line_no - 1)
        except ParseError as exc:
            raise ConfigError(str(exc)) from None
        if key == "seq.diag":
            from .concatenation import Diagonal

            value = Diagonal(value)
        if attr == "sequences":
            values["sequences"] = (*values.get("sequences", ()), value)
        elif attr == "space":
            space[key] = value
        else:
            values[attr] = value

    if space:
        try:
            values["space"] = measure.DiscreteSpace(
                space.get("space.explicit", {}), space.get("space.tail_coefficient", 1)
            )
        except ValueError as exc:
            raise ConfigError(f"space: {exc}") from None
    return RunConfig(**values), lines
