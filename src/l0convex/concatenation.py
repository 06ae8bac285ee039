"""Gluing along countable partitions and concatenation-closure checks.

A sequence glues into x when x agrees with the n-th element on the n-th
cell, for every cell.  Two finitely describable sequence shapes cover
everything the pipeline needs: eventually constant sequences, and
diagonal sequences whose n-th element is a fixed value cut down to the
n-th cell.  On eventually constant random variables the glue, when it
exists, is unique: agreeing on every cell of a partition forces
pointwise equality.

The closure check is exact, not truncated: cells up to a horizon are
verified explicitly and everything beyond reduces to a single symbolic
comparison of tails.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from ._common import UsageError
from ._record import field, record
from .l0 import EcRv, indicator_mul, lt_everywhere, ONE, reciprocal
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


class IncompatibleSpec(UsageError):
    """Sequence shape does not fit the partition shape."""


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


@record(frozen=True)
class GlueResult:
    element: EcRv


def glue(seq: SequenceSpec, part: Partition) -> GlueResult:
    """Assemble the unique element agreeing with the sequence cellwise."""
    if isinstance(seq, Diagonal):
        if isinstance(part, FinitePartition):
            raise IncompatibleSpec("diagonal sequences pair with singleton-tail partitions")
        # the n-th piece already is value on the n-th cell
        return GlueResult(seq.value)
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
        return GlueResult(EcRv(overrides, tail))
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
    return GlueResult(EcRv(overrides, seq.tail_element.tail))


def glue_identity_holds(
    seq: SequenceSpec, part: Partition, x: EcRv, horizon: int = 32
) -> bool:
    """Exact cellwise identity: explicit cells up to the horizon, then a
    symbolic comparison covering every later singleton cell at once."""
    if isinstance(part, FinitePartition):
        return all(
            indicator_mul(part.cell(n), x)
            == indicator_mul(part.cell(n), sequence_element(seq, part, n))
            for n in range(1, part.cell_count + 1)
        )
    explicit_cells = part.prefix_count + max(
        horizon,
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
    if x.tail != target.tail:
        return False
    return all(
        x.value_at(j) == target.value_at(j)
        for j in set(x.overrides) | set(target.overrides)
        if j >= beyond
    )


# -- symbolic membership of late diagonal pieces ----------------------------


def _leq_beyond(x: EcRv, y: EcRv, start: int) -> bool:
    if x.tail > y.tail:
        return False
    return all(
        x.value_at(j) <= y.value_at(j)
        for j in set(x.overrides) | set(y.overrides)
        if j >= start
    )


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
            _leq_beyond(evaluate(p, value), s.radius, beyond) for p in s.seminorms
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
    representable: bool
    glue: Optional[EcRv]
    glue_in_set: Optional[bool]
    seminorm_identity_ok: Optional[bool]

    @property
    def counterexample(self) -> bool:
        """A genuine closure failure: pieces inside, glue outside."""
        return self.precondition_ok and self.representable and self.glue_in_set is False


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


def _elements_in_set(
    s: SetDescriptor, seq: SequenceSpec, part: Partition, horizon: int
) -> bool:
    if isinstance(seq, EventuallyConstantSeq):
        return all(contains(s, x) for x in (*seq.prefix, seq.tail_element))
    if isinstance(part, FinitePartition):
        count = part.cell_count
        return all(contains(s, sequence_element(seq, part, n)) for n in range(1, count + 1))
    explicit = part.prefix_count + horizon
    if not all(
        contains(s, sequence_element(seq, part, n)) for n in range(1, explicit + 1)
    ):
        return False
    beyond = part.tail_start + horizon
    return _late_pieces_in_set(s, seq.value, beyond)


def _evaluated_sequence(seq: SequenceSpec, p) -> SequenceSpec:
    if isinstance(seq, EventuallyConstantSeq):
        return EventuallyConstantSeq(
            tuple(evaluate(p, x) for x in seq.prefix), evaluate(p, seq.tail_element)
        )
    return Diagonal(evaluate(p, seq.value))


def relative_cc_check(
    s: SetDescriptor,
    part: Partition,
    seqs: list[SequenceSpec],
    horizon: int = 32,
) -> CcReport:
    """For sequences inside s, does every glue stay inside s?

    Sequences with an element outside s are precondition failures, not
    counterexamples.  For balls the check also verifies the exact
    seminorm-of-glue identity: evaluating the glue equals gluing the
    evaluations along the same partition.
    """
    report = CcReport(target=s)
    for seq in seqs:
        pre_ok = _elements_in_set(s, seq, part, horizon)
        try:
            result = glue(seq, part)
        except IncompatibleSpec:
            report.entries.append(CcEntry(seq, pre_ok, False, None, None, None))
            continue
        entry = CcEntry(seq, pre_ok, True, result.element, contains(s, result.element), None)
        if isinstance(s, Ball):
            entry.seminorm_identity_ok = all(
                evaluate(p, result.element) == glue(_evaluated_sequence(seq, p), part).element
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


def cc_failure_witness(eps: EcRv, horizon: int = 32) -> CcFailureWitness:
    """The diagonal sequence of doubled-radius single-atom pieces.

    Every piece has finite support, hence lies in M + B_eps, yet the
    glue is twice the radius, whose tail the set cannot absorb.
    """
    target = MPlusBall(eps)
    seq = Diagonal(2 * eps)
    part = SingletonTail((), 1)
    glued = glue(seq, part).element
    pieces_ok = _elements_in_set(target, seq, part, horizon)
    return CcFailureWitness(eps, seq, part, glued, pieces_ok, contains(target, glued))


# -- reverse construction: from a small gauge to a gluing partition ----------


@record
class ReversePartition:
    target: SetDescriptor
    point: EcRv
    partition: Partition
    pieces: SequenceSpec
    cells_checked: int
    pieces_in_set: bool
    tail_law_ok: bool
    glue_is_point: bool

    @property
    def passed(self) -> bool:
        return self.pieces_in_set and self.tail_law_ok and self.glue_is_point


def reverse_partition_construct(
    u: SetDescriptor, x: EcRv, horizon: int = 32
) -> ReversePartition:
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
        checked = horizon
        pieces_ok = all(
            contains(u, indicator_mul(part.cell(n), x)) for n in range(1, horizon + 1)
        )
        tail_ok = _late_pieces_in_set(u, x, horizon + 1)
        glue_ok = glue(seq, part).element == x
    else:
        part = FinitePartition((EventSet.full(),))
        seq = EventuallyConstantSeq((x,), x)
        checked = 1
        pieces_ok = contains(u, x)
        tail_ok = True
        glue_ok = glue(seq, part).element == x
    return ReversePartition(u, x, part, seq, checked, pieces_ok, tail_ok, glue_ok)
