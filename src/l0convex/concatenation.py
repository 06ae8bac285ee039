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
set and the value name, and at one atom past all of them.  A ball's
seminorm identity is decided the same way: p of the glue against p of
each walked cell's element, then of the late value, or of a diagonal's
late single-atom pieces at the atoms that decide them.
Every gluing question answers with one `CcEntry`: the relative check
with one per sequence, the closure failure of M + B_eps and the reverse
construction with the entry of a value cut into single-atom pieces,
whose walk needs no partition object: no cell one by one, late atom 1.
So `measure` runs only when a caller's own partition is walked.
"""

from __future__ import annotations

from . import measure  # bound lazily: only a given partition runs it
from .l0 import EcRv, indicator_mul, lt_everywhere, ONE, ZERO
from ._common import EventSet, record
from .seminorms import evaluate
from .sets import Ball, MPlusBall, SetDescriptor, contains, gauge_closed_form
from .sets import _deciding_atoms, _single_atom


class GaugeNotBelowOne(ValueError):
    """Reverse construction needs the gauge strictly below one everywhere."""


@record
class EventuallyConstantSeq:
    prefix: tuple[EcRv, ...]
    tail_element: EcRv

    def element(self, n: int) -> EcRv:
        return self.prefix[n - 1] if n <= len(self.prefix) else self.tail_element


@record
class Diagonal:
    """x_n = value restricted to the n-th cell."""

    value: EcRv


SequenceSpec = EventuallyConstantSeq | Diagonal


def sequence_element(seq: SequenceSpec, part: measure.Partition, n: int) -> EcRv:
    if isinstance(seq, EventuallyConstantSeq):
        return seq.element(n)
    return indicator_mul(part.cell(n), seq.value)


def _cell_walk(seq: SequenceSpec, part) -> tuple[list[tuple[EventSet, EcRv]], int | None, EcRv]:
    """The cells to compare one by one, the late atom and the late value.

    Each cell comes with the sequence's element on it: every cell of a
    finite partition, or a singleton-tail partition's prefix cells
    extended by the singleton cells of an eventually constant sequence's
    explicit prefix.  From the late atom on every cell is one atom {j},
    and the element on it is the late value (a tail element) or its
    piece on {j} (a diagonal).  A finite partition has no late atom.
    None cuts a diagonal into single-atom pieces: no cell, late atom 1.
    """
    if isinstance(seq, Diagonal):
        value, explicit = seq.value, 0
    else:
        value, explicit = seq.tail_element, len(seq.prefix)
    if part is None:
        return [], 1, value
    if isinstance(part, measure.FinitePartition):
        count, late = part.cell_count, None
    else:
        count = max(part.prefix_count, explicit)
        late = part.tail_start + count - part.prefix_count
    cells = [(part.cell(n), sequence_element(seq, part, n)) for n in range(1, count + 1)]
    return cells, late, value


def _from_atom(x: EcRv, late: int | None) -> EcRv:
    """x on the atoms from late on, zero below; zero for no late atom."""
    if late is None:
        return ZERO
    return indicator_mul(EventSet.cofinite_excluding(range(1, late)), x)


def glue(seq: SequenceSpec, part: measure.Partition) -> EcRv:
    """Assemble the unique element agreeing with the sequence cellwise."""
    if isinstance(seq, Diagonal):
        # the n-th piece is value on the n-th cell, whatever the partition
        return seq.value
    cells, late, value = _cell_walk(seq, part)
    return sum((indicator_mul(cell, x_n) for cell, x_n in cells), _from_atom(value, late))


def glue_identity_holds(seq: SequenceSpec, part: measure.Partition, x: EcRv, ball=None) -> bool:
    """Exact cellwise identity: x agrees with the sequence's element on
    each walked cell, then with the late value from the late atom on,
    one comparison covering every later singleton cell at once.

    Given a `Ball`, the seminorm identity of each of its seminorms p
    instead: p(x) agrees with p of the element on each cell, the
    locality p(1_A y) = 1_A p(y) that makes p of a glue the glue of the
    evaluations.  A diagonal's late cells are compared one single-atom
    piece at a time, at the atoms that decide them (see
    `_late_pieces_in_set`): those the ball, x or the value names from
    the late atom on, and one past all of them.
    """
    cells, late, value = _cell_walk(seq, part)
    if ball is None:
        return _agrees(x, cells, late, value)
    if isinstance(seq, Diagonal) and late is not None:
        atoms = {*_deciding_atoms(ball, x, late), *_deciding_atoms(ball, value, late)}
        cells += [(EventSet.finite({j}), _single_atom(value, j)) for j in atoms]
        late = None
    return all(
        _agrees(evaluate(p, x), [(c, evaluate(p, y)) for c, y in cells], late, evaluate(p, value))
        for p in ball.seminorms
    )


def _agrees(x: EcRv, cells, late: int | None, value: EcRv) -> bool:
    return all(
        indicator_mul(cell, x) == indicator_mul(cell, x_n) for cell, x_n in cells
    ) and _from_atom(x, late) == _from_atom(value, late)


# -- membership of late diagonal pieces -------------------------------------


def _late_pieces_in_set(s: SetDescriptor, value: EcRv, start: int) -> bool:
    """Do the single-atom pieces value(j) * I_{j} lie in s for all j >= start?

    Swapping two atoms that neither s nor value names leaves s and value
    unchanged and swaps their two pieces, so all those pieces are inside
    or all are outside.  The pieces at the named atoms from start on and
    the piece at one atom past all of them therefore decide every j.  On
    M + B, which reads the tail alone, every piece has tail 0, and zero
    decides them all.
    """
    if isinstance(s, MPlusBall):
        return contains(s, ZERO)
    return all(contains(s, _single_atom(value, j)) for j in _deciding_atoms(s, value, start))


# -- the relative concatenation-closure check -------------------------------


@record
class CcEntry:
    sequence: SequenceSpec
    precondition_ok: bool
    glue: EcRv
    glue_in_set: bool
    seminorm_identity_ok: bool | None  # None unless the set is a ball

    @property
    def counterexample(self) -> bool:
        """A genuine closure failure: pieces inside, glue outside."""
        return self.precondition_ok and not self.glue_in_set


@record
class CcReport:
    entries: tuple[CcEntry, ...]

    @property
    def closure_holds(self) -> bool:
        return not any(e.counterexample for e in self.entries)

    @property
    def identity_holds(self) -> bool:
        return all(e.seminorm_identity_ok is not False for e in self.entries)


def _elements_in_set(s: SetDescriptor, seq: SequenceSpec, part) -> bool:
    """Do the elements the glue is built from lie in s?  The element on
    each walked cell, then the late value from the late atom on: a tail
    element itself, or a diagonal's single-atom pieces.  An element on
    no cell (past a finite partition's last cell) is never glued."""
    cells, late, value = _cell_walk(seq, part)
    if not all(contains(s, x_n) for _, x_n in cells):
        return False
    if late is None:
        return True
    if isinstance(seq, Diagonal):
        return _late_pieces_in_set(s, value, late)
    return contains(s, value)


def relative_cc_check(
    s: SetDescriptor, part: measure.Partition, seqs: tuple[SequenceSpec, ...]
) -> CcReport:
    """For sequences inside s, does every glue stay inside s?

    Sequences with an element outside s are precondition failures, not
    counterexamples.  For balls the check also verifies the exact
    seminorm-of-glue identity cell by cell (`glue_identity_holds` given
    the ball): each seminorm of the glue agrees with the seminorm of the
    element on every cell.
    """
    return CcReport(tuple([_cc_entry(s, part, seq) for seq in seqs]))


def _cc_entry(s: SetDescriptor, part, seq: SequenceSpec) -> CcEntry:
    glued = glue(seq, part)
    identity_ok = glue_identity_holds(seq, part, glued, s) if isinstance(s, Ball) else None
    return CcEntry(seq, _elements_in_set(s, seq, part), glued, contains(s, glued), identity_ok)


# -- single-atom pieces: the closure failure of M + B_eps, reverse construction


def cc_failure_witness(u: SetDescriptor, eps: EcRv) -> CcEntry:
    """The entry of the doubled radius cut into single-atom pieces.

    For u = M + B_eps every piece has finite support, hence lies in u,
    yet the glue is twice the radius, whose tail the set cannot absorb:
    the entry is a `counterexample`.
    """
    return _cc_entry(u, None, Diagonal(2 * eps))


def reverse_partition_construct(u: SetDescriptor, x: EcRv) -> CcEntry:
    """The entry of x cut into its single-atom pieces, which all lie in u.

    Requires the gauge of x strictly below one at every atom.  Every
    shape with a gauge closed form is solid, so each single-atom piece
    of such an x lies in u: a ball's seminorms see each piece as the
    point on one atom, and M + B_eps holds every finitely supported
    element.  Membership decides the pieces all the same.
    """
    if not lt_everywhere(gauge_closed_form(u, x), ONE):
        raise GaugeNotBelowOne(f"gauge of {x!r} is not < 1 everywhere")
    return _cc_entry(u, None, Diagonal(x))
