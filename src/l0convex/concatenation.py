"""Gluing along countable partitions and concatenation-closure checks.

A sequence glues into x when x agrees with the n-th element on the n-th
cell, for every cell.  Two finitely describable sequence shapes cover
everything the pipeline needs: eventually constant sequences, and
diagonal sequences whose n-th element is a fixed value cut down to the
n-th cell.  On eventually constant random variables the glue, when it
exists, is unique: agreeing on every cell of a partition forces
pointwise equality.

Every gluing question reads one cell walk: the cells compared one by
one, the first atom from which every cell is a single atom, and the
value the sequence carries there.  The checks are exact, not truncated.
From the late atom on the glue identity is one comparison, and the late
single-atom pieces are decided by membership itself: at the atoms the
set and the value name, and at one atom past all of them.
"""

from __future__ import annotations

from typing import Optional, Union

from ._record import field, record
from .l0 import EcRv, indicator_mul, lt_everywhere, ONE, ZERO, _single_atom
from .measure import EventSet, FinitePartition, Partition, SingletonTail
from .seminorms import evaluate
from .sets import Ball, SetDescriptor, contains, gauge_closed_form, _deciding_atoms


class GaugeNotBelowOne(ValueError):
    """Reverse construction needs the gauge strictly below one everywhere."""


@record(frozen=True)
class EventuallyConstantSeq:
    prefix: tuple[EcRv, ...]
    tail_element: EcRv

    def element(self, n: int) -> EcRv:
        return self.prefix[n - 1] if n <= len(self.prefix) else self.tail_element


@record(frozen=True)
class Diagonal:
    """x_n = value restricted to the n-th cell."""

    value: EcRv


SequenceSpec = Union[EventuallyConstantSeq, Diagonal]


def sequence_element(seq: SequenceSpec, part: Partition, n: int) -> EcRv:
    if isinstance(seq, EventuallyConstantSeq):
        return seq.element(n)
    return indicator_mul(part.cell(n), seq.value)


def _cell_walk(
    seq: SequenceSpec, part: Partition
) -> tuple[list[tuple[EventSet, EcRv]], Optional[int], EcRv]:
    """The cells to compare one by one, the late atom and the late value.

    Each cell comes with the sequence's element on it: every cell of a
    finite partition, or a singleton-tail partition's prefix cells
    extended by the singleton cells of an eventually constant sequence's
    explicit prefix.  From the late atom on every cell is one atom {j},
    and the element on it is the late value (a tail element) or its
    piece on {j} (a diagonal).  A finite partition has no late atom.
    """
    if isinstance(seq, Diagonal):
        value, explicit = seq.value, 0
    else:
        value, explicit = seq.tail_element, len(seq.prefix)
    if isinstance(part, FinitePartition):
        count, late = part.cell_count, None
    else:
        count = max(part.prefix_count, explicit)
        late = part.tail_start + count - part.prefix_count
    cells = [(part.cell(n), sequence_element(seq, part, n)) for n in range(1, count + 1)]
    return cells, late, value


def _from_atom(x: EcRv, late: Optional[int]) -> EcRv:
    """x on the atoms from late on, zero below; zero for no late atom."""
    if late is None:
        return ZERO
    return indicator_mul(EventSet.cofinite_excluding(range(1, late)), x)


def glue(seq: SequenceSpec, part: Partition) -> EcRv:
    """Assemble the unique element agreeing with the sequence cellwise."""
    if isinstance(seq, Diagonal):
        # the n-th piece is value on the n-th cell, whatever the partition
        return seq.value
    cells, late, value = _cell_walk(seq, part)
    return sum((indicator_mul(cell, x_n) for cell, x_n in cells), _from_atom(value, late))


def glue_identity_holds(seq: SequenceSpec, part: Partition, x: EcRv) -> bool:
    """Exact cellwise identity: the walked cells one by one, then one
    comparison from the late atom on covering every later singleton
    cell at once."""
    cells, late, value = _cell_walk(seq, part)
    return all(
        indicator_mul(cell, x) == indicator_mul(cell, x_n) for cell, x_n in cells
    ) and _from_atom(x, late) == _from_atom(value, late)


# -- membership of late diagonal pieces -------------------------------------


def _late_pieces_in_set(s: SetDescriptor, value: EcRv, start: int) -> bool:
    """Do the single-atom pieces value(j) * I_{j} lie in s for all j >= start?

    Swapping two atoms that neither s nor value names leaves s and value
    unchanged and swaps their two pieces, so all those pieces are inside
    or all are outside.  The pieces at the named atoms from start on and
    the piece at one atom past all of them therefore decide every j.
    """
    return all(contains(s, _single_atom(value, j)) for j in _deciding_atoms(s, value, start))


# -- the relative concatenation-closure check -------------------------------


@record
class CcEntry:
    sequence: SequenceSpec
    precondition_ok: bool
    glue: EcRv
    glue_in_set: bool
    seminorm_identity_ok: Optional[bool]  # None unless the set is a ball

    @property
    def counterexample(self) -> bool:
        """A genuine closure failure: pieces inside, glue outside."""
        return self.precondition_ok and not self.glue_in_set


@record
class CcReport:
    target: SetDescriptor
    entries: list[CcEntry] = field(default_factory=list)

    @property
    def closure_holds(self) -> bool:
        return not any(e.counterexample for e in self.entries)

    @property
    def identity_holds(self) -> bool:
        return all(e.seminorm_identity_ok is not False for e in self.entries)


def _elements_in_set(s: SetDescriptor, seq: SequenceSpec, part: Partition) -> bool:
    if isinstance(seq, EventuallyConstantSeq):
        return all(contains(s, x) for x in (*seq.prefix, seq.tail_element))
    # the walked cells' pieces, then one single-atom piece per late cell
    cells, late, value = _cell_walk(seq, part)
    return all(contains(s, piece) for _, piece in cells) and (
        late is None or _late_pieces_in_set(s, value, late)
    )


def _evaluated_sequence(seq: SequenceSpec, p) -> SequenceSpec:
    if isinstance(seq, EventuallyConstantSeq):
        return EventuallyConstantSeq(
            tuple(evaluate(p, x) for x in seq.prefix), evaluate(p, seq.tail_element)
        )
    return Diagonal(evaluate(p, seq.value))


def relative_cc_check(
    s: SetDescriptor, part: Partition, seqs: list[SequenceSpec]
) -> CcReport:
    """For sequences inside s, does every glue stay inside s?

    Sequences with an element outside s are precondition failures, not
    counterexamples.  For balls the check also verifies the exact
    seminorm-of-glue identity: evaluating the glue equals gluing the
    evaluations along the same partition.
    """
    report = CcReport(target=s)
    for seq in seqs:
        pre_ok = _elements_in_set(s, seq, part)
        glued = glue(seq, part)
        entry = CcEntry(seq, pre_ok, glued, contains(s, glued), None)
        if isinstance(s, Ball):
            entry.seminorm_identity_ok = all(
                evaluate(p, glued) == glue(_evaluated_sequence(seq, p), part)
                for p in s.seminorms
            )
        report.entries.append(entry)
    return report


# -- the closure failure for M + B_eps ---------------------------------------


@record(frozen=True)
class CcFailureWitness:
    radius: EcRv
    sequence: Diagonal
    partition: SingletonTail
    glue: EcRv
    pieces_in_set: bool
    glue_in_set: bool

    @property
    def valid(self) -> bool:
        return self.pieces_in_set and not self.glue_in_set


def cc_failure_witness(u: SetDescriptor, eps: EcRv) -> CcFailureWitness:
    """The diagonal sequence of doubled-radius single-atom pieces, glued
    against u.

    For u = M + B_eps every piece has finite support, hence lies in u,
    yet the glue is twice the radius, whose tail the set cannot absorb:
    the one entry of the relative check on u is a counterexample.
    """
    seq = Diagonal(2 * eps)
    part = SingletonTail((), 1)
    (entry,) = relative_cc_check(u, part, [seq]).entries
    return CcFailureWitness(
        eps, seq, part, entry.glue, entry.precondition_ok, entry.glue_in_set
    )


# -- reverse construction: from a small gauge to a gluing partition ----------


@record
class ReversePartition:
    target: SetDescriptor
    point: EcRv
    partition: Partition
    pieces: SequenceSpec
    pieces_in_set: bool
    glue_is_point: bool

    @property
    def passed(self) -> bool:
        return self.pieces_in_set and self.glue_is_point


def reverse_partition_construct(u: SetDescriptor, x: EcRv) -> ReversePartition:
    """Cut x into its single-atom pieces, which all lie in u.

    Requires the gauge of x strictly below one at every atom.  Every
    shape with a gauge closed form is solid, so each single-atom piece
    of such an x lies in u: a ball's seminorms see each piece as the
    point on one atom, and M + B_eps holds every finitely supported
    element.  Membership decides the pieces all the same.
    """
    g = gauge_closed_form(u, x)
    if not lt_everywhere(g, ONE):
        raise GaugeNotBelowOne(f"gauge of {x!r} is not < 1 everywhere")
    part, seq = SingletonTail((), 1), Diagonal(x)
    return ReversePartition(
        u, x, part, seq, _elements_in_set(u, seq, part), glue(seq, part) == x
    )
