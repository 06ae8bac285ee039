"""Gluing along countable partitions and concatenation-closure checks.

A sequence glues into x when x agrees with the n-th element on the n-th
cell, for every cell.  Two finitely describable sequence shapes cover
everything the pipeline needs: eventually constant sequences, and
diagonal sequences whose n-th element is a fixed value cut down to the
n-th cell.  On eventually constant random variables the glue, when it
exists, is unique: agreeing on every cell of a partition forces
pointwise equality.

The closure check is exact, not truncated: the first `_HORIZON` tail
cells are verified explicitly and everything beyond reduces to a single
symbolic comparison of tails.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Optional, Union

from ._common import UsageError
from ._record import field, record
from .l0 import EcRv, indicator_mul, lt_everywhere, ONE, reciprocal, _single_atom
from .measure import EventSet, FinitePartition, Partition, SingletonTail
from .seminorms import evaluate
from .sets import (
    Ball,
    Intersect,
    MPlusBall,
    Scale,
    SetDescriptor,
    Translate,
    contains,
    gauge_closed_form,
)


# singleton-tail cells checked one by one before the symbolic tail comparison
_HORIZON = 32


class IncompatibleSpec(UsageError):
    """The late-piece check cannot decide membership in this set shape."""


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
    if isinstance(part, SingletonTail) and n > part.prefix_count:
        # the n-th cell is one atom: build the piece without the cell
        return _single_atom(seq.value, part.tail_start - 1 + (n - part.prefix_count))
    return indicator_mul(part.cell(n), seq.value)


def glue(seq: SequenceSpec, part: Partition) -> EcRv:
    """Assemble the unique element agreeing with the sequence cellwise."""
    if isinstance(seq, Diagonal):
        # the n-th piece is value on the n-th cell, whatever the partition
        return seq.value
    if isinstance(part, FinitePartition):
        overrides: dict[int, Fraction] = {}
        tail = Fraction(0)
        for n, cell in enumerate(part.cells, start=1):
            x_n = seq.element(n)
            if cell.cofinite:
                tail = x_n.tail
                for j, v in x_n.overrides.items():
                    if j in cell:
                        overrides[j] = v
            else:
                for j in cell.atoms:
                    overrides[j] = x_n.value_at(j)
        return EcRv(overrides, tail)
    overrides = {}
    m = part.prefix_count
    for n, cell in enumerate(part.prefix_cells, start=1):
        x_n = seq.element(n)
        for j in cell.atoms:
            overrides[j] = x_n.value_at(j)
    explicit = len(seq.prefix)
    for n in range(m + 1, explicit + 1):
        j = part.tail_start - 1 + (n - m)
        overrides[j] = seq.element(n).value_at(j)
    last_explicit_atom = part.tail_start - 1 + max(0, explicit - m)
    for j, v in seq.tail_element.overrides.items():
        if j >= part.tail_start and j > last_explicit_atom:
            overrides[j] = v
    return EcRv(overrides, seq.tail_element.tail)


def glue_identity_holds(seq: SequenceSpec, part: Partition, x: EcRv) -> bool:
    """Exact cellwise identity: the first `_HORIZON` tail cells explicitly,
    then a symbolic comparison covering every later singleton cell at once."""
    if isinstance(part, FinitePartition):
        return all(
            indicator_mul(part.cell(n), x)
            == indicator_mul(part.cell(n), sequence_element(seq, part, n))
            for n in range(1, part.cell_count + 1)
        )
    explicit_cells = part.prefix_count + max(
        _HORIZON,
        len(seq.prefix) - part.prefix_count if isinstance(seq, EventuallyConstantSeq) else 0,
    )
    for n in range(1, explicit_cells + 1):
        cell = part.cell(n)
        if indicator_mul(cell, x) != indicator_mul(cell, sequence_element(seq, part, n)):
            return False
    # beyond the horizon each cell is a singleton {j}, so the identity
    # reduces to x(j) == element(j) for all large j: a tail comparison
    beyond = part.tail_start + (explicit_cells - part.prefix_count)
    target = seq.value if isinstance(seq, Diagonal) else seq.tail_element
    return _holds_beyond(operator.eq, x, target, beyond)


def _holds_beyond(relation, x: EcRv, y: EcRv, start: int) -> bool:
    """relation(x(j), y(j)) at every atom j >= start: on the tails, and on
    each override at or past start."""
    return relation(x.tail, y.tail) and all(
        relation(x.value_at(j), y.value_at(j))
        for j in set(x.overrides) | set(y.overrides)
        if j >= start
    )


# -- symbolic membership of late diagonal pieces ----------------------------


def _late_pieces_in_set(s: SetDescriptor, value: EcRv, beyond: int) -> bool:
    """Do the single-atom pieces value(j) * I_{j} lie in s for all j >= beyond?

    Single-atom pieces have zero tails, so M + B absorbs them outright,
    and a piece minus an offset has the offset's negated tail, so
    offset + (M + B) holds them all exactly when |tail(offset)| <= tail(B);
    for balls the localization identity turns the condition into a
    pointwise comparison of ||value|| against the radius on late atoms.
    """
    if isinstance(s, MPlusBall):
        return True
    if isinstance(s, Translate) and isinstance(s.inner, MPlusBall):
        return abs(s.offset.tail) <= s.inner.radius.tail
    if isinstance(s, Ball):
        return all(
            _holds_beyond(operator.le, evaluate(p, value), s.radius, beyond)
            for p in s.seminorms
        )
    if isinstance(s, Scale):
        return _late_pieces_in_set(s.inner, reciprocal(s.factor) * value, beyond)
    if isinstance(s, Intersect):
        return all(_late_pieces_in_set(m, value, beyond) for m in s.members)
    raise IncompatibleSpec(
        f"cannot verify late diagonal pieces against {type(s).__name__}"
    )


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
    if isinstance(part, FinitePartition):
        count = part.cell_count
        return all(contains(s, sequence_element(seq, part, n)) for n in range(1, count + 1))
    # the prefix cells' pieces, then one single-atom piece per late cell
    value, start = seq.value, part.tail_start
    if not all(contains(s, indicator_mul(cell, value)) for cell in part.prefix_cells):
        return False
    beyond = start + _HORIZON
    if not all(contains(s, _single_atom(value, j)) for j in range(start, beyond)):
        return False
    return _late_pieces_in_set(s, value, beyond)


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


def cc_failure_witness(eps: EcRv) -> CcFailureWitness:
    """The diagonal sequence of doubled-radius single-atom pieces.

    Every piece has finite support, hence lies in M + B_eps, yet the
    glue is twice the radius, whose tail the set cannot absorb: the one
    entry of the relative check on M + B_eps is a counterexample.
    """
    seq = Diagonal(2 * eps)
    part = SingletonTail((), 1)
    (entry,) = relative_cc_check(MPlusBall(eps), part, [seq]).entries
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
    """Cut x along a partition whose pieces all lie in u.

    Requires the gauge of x strictly below one at every atom.  For
    M + B_eps the single-atom truncations are absorbed outright, so the
    pure singleton partition works; for a ball the small gauge already
    places x itself inside, and the one-cell partition suffices.
    """
    g = gauge_closed_form(u, x)
    if not lt_everywhere(g, ONE):
        raise GaugeNotBelowOne(f"gauge of {x!r} is not < 1 everywhere")
    if isinstance(u, MPlusBall):
        part: Partition = SingletonTail((), 1)
        seq: SequenceSpec = Diagonal(x)
    else:
        part = FinitePartition((EventSet.full(),))
        seq = EventuallyConstantSeq((x,), x)
    return ReversePartition(
        u, x, part, seq, _elements_in_set(u, seq, part), glue(seq, part) == x
    )
