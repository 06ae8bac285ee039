"""Countable discrete probability spaces with exact rational masses.

Atoms are the positive integers.  Events are the finite and cofinite
subsets, which form a Boolean algebra with decidable membership and
exactly computable probability as long as the atom masses beyond a
finite prefix follow a geometric dyadic law.

The events themselves (`EventSet`, the full event `OMEGA`) live in
`_common`, which every command loads, and are re-exported here: a
seminorm, an element or a literal names events without running this
module.  It runs where a probability or a given partition is needed,
not for the NotInduced verify, whose gluing takes no partition object.
"""

from __future__ import annotations

from math import gcd, lcm
from types import MappingProxyType

from ._common import OMEGA, EventSet  # re-exported
from ._common import UsageError, _check_atom, ratio_text, rational_pair, record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable
    from fractions import Fraction


class MalformedPrefix(UsageError):
    """Prefix cells overlap or leave gaps below the tail start."""


def _ratio_sum(pairs) -> tuple[int, int]:
    """The sum of (integer, positive integer) pairs, in lowest terms."""
    p, q = 0, 1
    for a, b in pairs:
        d = lcm(q, b)
        p, q = p * (d // q) + a * (d // b), d
    g = gcd(p, q)
    return p // g, q // g


class DiscreteSpace:
    """Probability space on the positive integers.

    Finitely many explicit masses on atoms 1..N, then a dyadic tail
    P({j}) = c * 2**-j for j > N.  Total mass 1 is an exact rational
    identity because the tail sums to c * 2**-N.  Immutable and hashable:
    the shared default space must not change under its other users.

    The masses are kept as (numerator, positive denominator) pairs in
    lowest terms.  `explicit`, `tail_coefficient`, `atom_mass`,
    `mass_from` and `probability` give them as `Fraction`s, importing
    `fractions` on first use; the commands read the pairs.
    """

    __slots__ = ("_explicit", "_c")

    def __init__(self, explicit=None, tail_coefficient=1):
        explicit = {j: rational_pair(w) for j, w in (explicit or {}).items()}
        c = rational_pair(tail_coefficient)
        n = len(explicit)
        if set(explicit) != set(range(1, n + 1)):
            raise UsageError("explicit weights must cover atoms 1..N contiguously")
        for j in explicit:  # 1.0 and True equal atom 1, but an atom is an int
            _check_atom(j)
        if any(not (0 < p < q) for p, q in explicit.values()):
            raise UsageError("explicit weights must lie in (0, 1)")
        if c[0] <= 0:
            raise UsageError("tail coefficient must be positive")
        total = _ratio_sum([*explicit.values(), (c[0], c[1] << n)])
        if total != (1, 1):
            raise UsageError(f"total mass is {ratio_text(*total)}, expected exactly 1")
        object.__setattr__(self, "_explicit", explicit)
        object.__setattr__(self, "_c", c)

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
    def explicit(self) -> MappingProxyType[int, Fraction]:
        """The explicit masses, a read-only mapping from atom to `Fraction`."""
        from fractions import Fraction

        return MappingProxyType({j: Fraction(*w) for j, w in self._explicit.items()})

    @property
    def tail_coefficient(self) -> Fraction:
        from fractions import Fraction

        return Fraction(*self._c)

    @property
    def explicit_count(self) -> int:
        return len(self._explicit)

    def atom_mass(self, j: int) -> Fraction:
        from fractions import Fraction

        _check_atom(j)
        return Fraction(*self._mass(j))

    def mass_from(self, j: int) -> Fraction:
        """Exact mass of the cofinite event {k : k >= j}; requires j > N."""
        from fractions import Fraction

        if j <= self.explicit_count:
            raise UsageError("tail mass only defined beyond the explicit prefix")
        return Fraction(self._c[0], self._c[1] << (j - 1))

    def probability(self, event: EventSet) -> Fraction:
        from fractions import Fraction

        return Fraction(*self._probability(event))

    def _mass(self, j):
        """The mass of the valid atom j, as a pair not always in lowest terms."""
        if j in self._explicit:
            return self._explicit[j]
        p, q = self._c
        return p, q << j

    def _probability(self, event):
        """P(event) as a (numerator, positive denominator) pair in lowest terms."""
        if event.cofinite:
            p, q = self._probability(event.complement())
            return q - p, q
        return _ratio_sum(map(self._mass, event.atoms))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiscreteSpace)
            and self._explicit == other._explicit
            and self._c == other._c
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._explicit.items()), self._c))

    def __repr__(self) -> str:
        return f"DiscreteSpace({dict(self.explicit)!r}, {self.tail_coefficient!r})"


CANONICAL = DiscreteSpace.canonical()


@record
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


@record
class SingletonTail:
    """Finitely many prefix cells below tail_start, then singleton cells.

    Cell n for n > len(prefix_cells) is {tail_start - 1 + (n - len(prefix_cells))}.
    """

    prefix_cells: tuple[EventSet, ...]
    tail_start: int

    def __post_init__(self):
        _check_atom(self.tail_start)
        seen: set[int] = set()
        for cell in self.prefix_cells:
            if cell.cofinite:
                raise MalformedPrefix("prefix cells must be finite")
            if cell.is_empty():
                raise MalformedPrefix("prefix cells must be nonempty")
            if seen & cell.atoms:
                raise MalformedPrefix("prefix cells overlap")
            seen |= cell.atoms
        # distinct atoms, each at least 1: tail_start - 1 of them, none
        # above tail_start - 1, are exactly 1..tail_start-1, checked
        # without building that range
        below = self.tail_start - 1
        if len(seen) != below or (seen and max(seen) > below):
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


Partition = FinitePartition | SingletonTail


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
