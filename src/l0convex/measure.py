"""Countable discrete probability spaces with exact rational masses.

Atoms are the positive integers.  Events are the finite and cofinite
subsets, which form a Boolean algebra with decidable membership and
exactly computable probability as long as the atom masses beyond a
finite prefix follow a geometric dyadic law.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Union

from ._common import UsageError
from ._record import record


class MalformedPrefix(UsageError):
    """Prefix cells overlap or leave gaps below the tail start."""


def _check_atom(j: int) -> int:
    if not isinstance(j, int) or isinstance(j, bool) or j < 1:
        raise UsageError(f"atom index must be a positive integer, got {j!r}")
    return j


class EventSet:
    """A finite or cofinite set of atoms.

    Cofinite sets are stored by their excluded atoms, so complementation
    is an involution and union/intersection/difference stay inside the
    class.
    """

    __slots__ = ("atoms", "cofinite")

    def __init__(self, atoms: Iterable[int] = (), cofinite: bool = False):
        self.atoms = frozenset(_check_atom(j) for j in atoms)
        self.cofinite = bool(cofinite)

    @classmethod
    def finite(cls, atoms: Iterable[int]) -> "EventSet":
        return cls(atoms, cofinite=False)

    @classmethod
    def cofinite_excluding(cls, atoms: Iterable[int]) -> "EventSet":
        return cls(atoms, cofinite=True)

    @classmethod
    def empty(cls) -> "EventSet":
        return cls((), cofinite=False)

    @classmethod
    def full(cls) -> "EventSet":
        return cls((), cofinite=True)

    def __contains__(self, j: int) -> bool:
        return (j in self.atoms) != self.cofinite

    def complement(self) -> "EventSet":
        return EventSet(self.atoms, cofinite=not self.cofinite)

    __invert__ = complement

    def union(self, other: "EventSet") -> "EventSet":
        if not self.cofinite and not other.cofinite:
            return EventSet(self.atoms | other.atoms)
        if self.cofinite and other.cofinite:
            return EventSet(self.atoms & other.atoms, cofinite=True)
        fin, cof = (self, other) if not self.cofinite else (other, self)
        return EventSet(cof.atoms - fin.atoms, cofinite=True)

    __or__ = union

    def intersection(self, other: "EventSet") -> "EventSet":
        return (self.complement() | other.complement()).complement()

    __and__ = intersection

    def difference(self, other: "EventSet") -> "EventSet":
        return self & other.complement()

    __sub__ = difference

    def is_empty(self) -> bool:
        return not self.cofinite and not self.atoms

    def isdisjoint(self, other: "EventSet") -> bool:
        return (self & other).is_empty()

    def issubset(self, other: "EventSet") -> bool:
        return (self - other).is_empty()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EventSet)
            and self.cofinite == other.cofinite
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.cofinite, self.atoms))

    def __repr__(self) -> str:
        body = "{" + ",".join(str(j) for j in sorted(self.atoms)) + "}"
        return "~" + body if self.cofinite else body


OMEGA = EventSet.full()


class DiscreteSpace:
    """Probability space on the positive integers.

    Finitely many explicit masses on atoms 1..N, then a dyadic tail
    P({j}) = c * 2**-j for j > N.  Total mass 1 is an exact rational
    identity because the tail sums to c * 2**-N.  Immutable and hashable:
    the shared default space must not change under its other users.
    """

    __slots__ = ("explicit", "tail_coefficient")

    def __init__(self, explicit=None, tail_coefficient=1):
        explicit = {int(j): Fraction(w) for j, w in (explicit or {}).items()}
        c = Fraction(tail_coefficient)
        n = len(explicit)
        if set(explicit) != set(range(1, n + 1)):
            raise UsageError("explicit weights must cover atoms 1..N contiguously")
        if any(not (0 < w < 1) for w in explicit.values()):
            raise UsageError("explicit weights must lie in (0, 1)")
        if c <= 0:
            raise UsageError("tail coefficient must be positive")
        total = sum(explicit.values(), Fraction(0)) + c * Fraction(1, 2**n)
        if total != 1:
            raise UsageError(f"total mass is {total}, expected exactly 1")
        object.__setattr__(self, "explicit", MappingProxyType(explicit))
        object.__setattr__(self, "tail_coefficient", c)

    def __setattr__(self, name, value):
        raise AttributeError(f"DiscreteSpace is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"DiscreteSpace is immutable; cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return DiscreteSpace, (dict(self.explicit), self.tail_coefficient)

    @classmethod
    def canonical(cls) -> "DiscreteSpace":
        """The dyadic space P({j}) = 2**-j."""
        return cls({}, 1)

    @property
    def explicit_count(self) -> int:
        return len(self.explicit)

    def atom_mass(self, j: int) -> Fraction:
        _check_atom(j)
        if j in self.explicit:
            return self.explicit[j]
        return self.tail_coefficient * Fraction(1, 2**j)

    def mass_from(self, j: int) -> Fraction:
        """Exact mass of the cofinite event {k : k >= j}; requires j > N."""
        if j <= self.explicit_count:
            raise UsageError("tail mass only defined beyond the explicit prefix")
        return self.tail_coefficient * Fraction(1, 2 ** (j - 1))

    def probability(self, event: EventSet) -> Fraction:
        if event.cofinite:
            return 1 - self.probability(event.complement())
        return sum((self.atom_mass(j) for j in event.atoms), Fraction(0))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiscreteSpace)
            and self.explicit == other.explicit
            and self.tail_coefficient == other.tail_coefficient
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.explicit.items()), self.tail_coefficient))

    def __repr__(self) -> str:
        return f"DiscreteSpace({dict(self.explicit)!r}, {self.tail_coefficient!r})"


CANONICAL = DiscreteSpace.canonical()


@record(frozen=True)
class FinitePartition:
    """Finitely many pairwise disjoint cells covering all atoms.

    Exactly one cell is cofinite: finitely many finite cells cannot
    cover the positive integers, and two cofinite sets always meet.
    """

    cells: tuple[EventSet, ...]

    def __post_init__(self):
        if not self.cells:
            raise UsageError("a partition needs at least one cell")
        cofinite = [c for c in self.cells if c.cofinite]
        if len(cofinite) != 1:
            raise UsageError("a finite partition must contain exactly one cofinite cell")
        union = EventSet.empty()
        for cell in self.cells:
            if cell.is_empty():
                raise UsageError("partition cells must be nonempty")
            if not union.isdisjoint(cell):
                raise UsageError("partition cells must be pairwise disjoint")
            union = union | cell
        if union != OMEGA:
            raise UsageError("partition cells must cover all atoms")

    def cell(self, n: int) -> EventSet:
        return self.cells[n - 1]

    @property
    def cell_count(self) -> int:
        return len(self.cells)


@record(frozen=True)
class SingletonTail:
    """Finitely many prefix cells below tail_start, then singleton cells.

    Cell n for n > len(prefix_cells) is {tail_start - 1 + (n - len(prefix_cells))}.
    """

    prefix_cells: tuple[EventSet, ...]
    tail_start: int

    def __post_init__(self):
        _check_atom(self.tail_start)
        below = set(range(1, self.tail_start))
        seen: set[int] = set()
        for cell in self.prefix_cells:
            if cell.cofinite:
                raise MalformedPrefix("prefix cells must be finite")
            if cell.is_empty():
                raise MalformedPrefix("prefix cells must be nonempty")
            if seen & cell.atoms:
                raise MalformedPrefix("prefix cells overlap")
            seen |= cell.atoms
        if seen != below:
            raise MalformedPrefix(
                f"prefix cells must partition atoms 1..{self.tail_start - 1}"
            )

    def cell(self, n: int) -> EventSet:
        k = len(self.prefix_cells)
        if n <= k:
            return self.prefix_cells[n - 1]
        return EventSet.finite({self.tail_start - 1 + (n - k)})

    @property
    def prefix_count(self) -> int:
        return len(self.prefix_cells)


Partition = Union[FinitePartition, SingletonTail]


def build_countable_partition(
    space: DiscreteSpace, atom_cells: Iterable[EventSet], tail_start: int
) -> SingletonTail:
    """Split the mass beyond tail_start into cells of mass M/2, M/4, M/8, ...

    where M is the mass of {j : j >= tail_start}.  On a dyadic tail the
    singletons C_n = {tail_start - 1 + n} achieve these masses exactly,
    so every cell of the returned partition has strictly positive
    probability.
    """
    part = SingletonTail(tuple(atom_cells), tail_start)
    if space.explicit_count >= tail_start:
        raise UsageError("space must be purely dyadic from tail_start on")
    return part
