"""The small records several modules and every command share.

The neighborhood-base kinds, the report step, the usage errors and the
default certificate tolerance live here so
that loading them costs only this module: `config` needs a default base
and every `check` and `partition` report builds an `EvidenceStep`,
neither of which should pull in `topology` or `sets`.  The modules that
use them (`topology`, `sets`) re-export each name, so
`l0convex.topology.EvidenceStep` and `l0convex.sets.UnsupportedShape`
are these same objects.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Union

from ._record import record

if TYPE_CHECKING:
    from .seminorms import Seminorm
    from .sets import Ball, MPlusBall
    from .l0 import EcRv

DEFAULT_TOLERANCE = Fraction(1, 2**20)


class UnsupportedShape(TypeError):
    """No gauge closed form for this descriptor."""


class UsageError(ValueError):
    """An input outside what a check accepts: a count below its limit, an
    atom index below 1, or inputs that do not fit together.  The CLI maps
    it to exit code 2; a plain ValueError from the library is a defect."""


@record(frozen=True)
class FromSeminorms:
    """Base sets are the balls of a finite seminorm family."""

    family: tuple[Seminorm, ...]

    def base_set(self, radius: EcRv) -> Ball:
        from .sets import Ball

        return Ball(self.family, radius)


@record(frozen=True)
class CounterexampleFamily:
    """Base sets are M + B_eps; all their gauges are identically zero."""

    def base_set(self, radius: EcRv) -> MPlusBall:
        from .sets import MPlusBall

        return MPlusBall(radius)


NeighborhoodBase = Union[FromSeminorms, CounterexampleFamily]


@record
class EvidenceStep:
    """One checked fact of a report."""

    name: str
    inputs: dict
    expected: str
    observed: str
    passed: bool

    def to_json(self) -> dict:
        """The step as a report entry."""
        return {
            "name": self.name,
            "inputs": self.inputs,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.passed,
        }
