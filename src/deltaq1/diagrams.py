"""Labeled diagrams and the weight-preserving, sign-reversing involution.

A diagram is an ordered list of stacks.  Each stack is a base row of cells
(one cell per unit of row length, each holding a label) with a partition
drawn above it.  The multiset of row lengths rearranges a partition of
k+1; the nonzero labels place the parts of a global partition lam, one per
cell.  The first stack's partition must fit strictly inside its row.

The diagrams of (k, lam) are counted by weight by the numerators of
``specialize.forgotten_series_terms``, with their signs undone, over their
common denominator (t;t)_{k+1}; the involution cancels the signed count
down to the M-polynomial.

Splitting a wide stack peels off its last column; combining undoes it.
Scanning left to right for the first applicable move pairs every diagram
of sign -1 with one of sign +1 except the all-width-1 diagrams whose
columns satisfy the M-sequence inequalities.

The public constructors ``ColumnStack(...)`` and ``LabeledDiagram(...)``
check every rule above.  ``diagrams_up_to``, ``split`` and ``combine`` build
their objects through the unchecked ``_of``, since they make them valid by
construction; ``test_diagrams`` rebuilds what they make through the
checking constructors.  ``split`` and ``combine`` write the partitions they
make as already sorted tuples (``Partition._of``), and ``diagrams_up_to``
builds each stack once per walk.  A stack keeps its weight and its hash,
which the walk reads for every diagram.
"""

from __future__ import annotations

from itertools import accumulate, combinations_with_replacement, product

from .msequences import MSequence
from .partitions import (
    Partition,
    distinct_orderings,
    int_entries,
    padded_rearrangements,
    parity_sign,
    partitions_of,
)
from .specialize import forgotten_series_terms
from .tarith import TPoly


class ColumnStack:
    """One base row of ``row_len`` labeled cells with a partition above it."""

    __slots__ = ("_row_len", "_above", "_labels", "_weight", "_hash")

    def __init__(self, row_len, above, labels):
        (row_len,) = int_entries([row_len])
        if row_len < 1:
            raise ValueError("row length must be positive")
        above = Partition(above)
        labels = int_entries(labels)
        if len(labels) != row_len:
            raise ValueError("need one label per cell")
        if any(x < 0 for x in labels):
            raise ValueError("labels must be nonnegative")
        if above and above[0] > row_len:
            raise ValueError("partition %r too wide for row of %d" % (above, row_len))
        self._set(row_len, above, labels)

    @classmethod
    def _of(cls, row_len, above, labels):
        """Unchecked: ``above`` a Partition, ``labels`` a tuple of ints, and
        together a valid stack."""
        stack = object.__new__(cls)
        stack._set(row_len, above, labels)
        return stack

    def _set(self, row_len, above, labels):
        self._row_len, self._above, self._labels = row_len, above, labels
        self._weight = above.size + sum(j * v for j, v in enumerate(labels))
        self._hash = hash((row_len, above, labels))

    @property
    def row_len(self):
        return self._row_len

    @property
    def above(self):
        return self._above

    @property
    def labels(self):
        return self._labels

    def weight(self):
        """Partition size plus positional label contributions."""
        return self._weight

    def full_rows(self):
        """Parts of the partition spanning the whole row."""
        return self._above.multiplicity(self._row_len)

    def __eq__(self, other):
        if not isinstance(other, ColumnStack):
            return NotImplemented
        return (
            self._row_len == other._row_len
            and self._above == other._above
            and self._labels == other._labels
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "ColumnStack(%d, %s, %s)" % (
            self._row_len,
            list(self._above.parts),
            list(self._labels),
        )

    def to_json(self):
        return {
            "row_len": self._row_len,
            "above": self._above.to_json(),
            "labels": list(self._labels),
        }


class LabeledDiagram:
    """An ordered sequence of stacks whose row lengths rearrange a partition
    of k+1 and whose nonzero labels place the parts of lam."""

    __slots__ = ("_stacks", "_lam")

    def __init__(self, stacks, lam):
        stacks = tuple(stacks)
        if not stacks:
            raise ValueError("a diagram needs at least one stack")
        lam = Partition(lam)
        first = stacks[0]
        if first.above and first.above[0] > first.row_len - 1:
            raise ValueError(
                "first stack's partition must fit strictly inside its row"
            )
        placed = Partition(v for st in stacks for v in st.labels if v)
        if placed != lam:
            raise ValueError(
                "labels %r do not place the parts of %r" % (placed, lam)
            )
        self._stacks, self._lam = stacks, lam

    @classmethod
    def _of(cls, stacks, lam):
        """Unchecked: ``stacks`` a tuple of stacks, ``lam`` a Partition, and
        together a valid diagram."""
        diagram = object.__new__(cls)
        diagram._stacks, diagram._lam = stacks, lam
        return diagram

    @property
    def stacks(self):
        return self._stacks

    @property
    def lam(self):
        return self._lam

    def sign(self):
        return parity_sign([st._row_len for st in self._stacks])

    def weight(self):
        return sum(st._weight for st in self._stacks)

    def __eq__(self, other):
        if not isinstance(other, LabeledDiagram):
            return NotImplemented
        return self._stacks == other._stacks and self._lam == other._lam

    def __hash__(self):
        return hash((self._stacks, self._lam))

    def __repr__(self):
        return "LabeledDiagram(%s)" % (list(self._stacks),)

    def to_json(self):
        return {"stacks": [st.to_json() for st in self._stacks]}


def can_combine(diagram, i):
    """Whether stack i (a single labeled cell) absorbs stack i+1.

    The label plus the column height must fit among the full rows of the
    next stack's partition; merging into first position additionally needs
    the column empty so the merged partition still fits strictly.
    """
    stacks = diagram.stacks
    if not 0 <= i < len(stacks) - 1:
        raise IndexError("no stack follows index %d" % i)
    st = stacks[i]
    if st.row_len != 1:
        raise ValueError("combining requires a single-cell stack at index %d" % i)
    c, height = st.labels[0], st.above.size
    if i == 0 and height > 0:
        return False
    return c + height <= stacks[i + 1].full_rows()


def split(diagram, i):
    """Replace stack i (width > 1) by its last column over the last label,
    followed by the remainder widened with that many new full rows."""
    stacks = diagram.stacks
    if not 0 <= i < len(stacks):
        raise IndexError("no stack at index %d" % i)
    st = stacks[i]
    if st.row_len <= 1:
        raise ValueError("cannot split a single-cell stack")
    r, full, c = st.row_len, st.full_rows(), st.labels[-1]
    # the full rows come first: each gives its last cell to the column, and
    # c new full rows join them
    head = ColumnStack._of(1, Partition._of((1,) * full), (c,))
    rest = (r - 1,) * (full + c) + st.above.parts[full:]
    tail = ColumnStack._of(r - 1, Partition._of(rest), st.labels[:-1])
    return LabeledDiagram._of(
        stacks[:i] + (head, tail) + stacks[i + 1 :], diagram.lam
    )


def combine(diagram, i):
    """Merge stack i into stack i+1: remove as many full rows as the label,
    append the column on the right, append the label to the row."""
    if not can_combine(diagram, i):
        raise ValueError("stacks %d and %d cannot be combined" % (i, i + 1))
    stacks = diagram.stacks
    st, nxt = stacks[i], stacks[i + 1]
    c, height = st.labels[0], st.above.size
    r, full = nxt.row_len, nxt.full_rows()
    # the full rows come first: c of them go, height more take the column
    merged = (r + 1,) * height + (r,) * (full - c - height) + nxt.above.parts[full:]
    big = ColumnStack._of(r + 1, Partition._of(merged), nxt.labels + (c,))
    return LabeledDiagram._of(stacks[:i] + (big,) + stacks[i + 2 :], diagram.lam)


def involution(diagram):
    """The partner of opposite sign and equal weight, or None for a fixed
    point.  Scans left to right; a wide stack splits, a single-cell stack
    tries to combine with its successor."""
    stacks = diagram.stacks
    for i, st in enumerate(stacks):
        if st.row_len > 1:
            return split(diagram, i)
        if i + 1 < len(stacks) and can_combine(diagram, i):
            return combine(diagram, i)
    return None


def diagrams_up_to(k, lam, degree_max):
    """Every diagram over every partition of k+1 with weight at most
    ``degree_max``, streamed.  The diagrams of each weight come in the
    order ``diagrams_of_weight`` lists them."""
    lam = Partition(lam)
    if len(lam) > k + 1:
        return
    # (row length, labels, cap) -> the stacks of each partition size s, for
    # every s the labels leave room for; local, so the stacks die with the walk
    table = {}
    for mu in partitions_of(k + 1):
        for arrangement in distinct_orderings(mu.parts):
            caps = (arrangement[0] - 1,) + arrangement[1:]
            ends = list(accumulate(arrangement))
            for flat in padded_rearrangements(lam, k + 1):
                chunks = [flat[end - rl : end] for rl, end in zip(arrangement, ends)]
                offsets = [sum(j * v for j, v in enumerate(chunk)) for chunk in chunks]
                room = degree_max - sum(offsets)
                # by_size[i][s]: the stacks at position i whose partition has size s
                by_size = []
                for rl, chunk, cap, offset in zip(arrangement, chunks, caps, offsets):
                    key = rl, chunk, cap
                    if key not in table:
                        table[key] = [[ColumnStack._of(rl, above, chunk)
                                       for above in partitions_of(s, max_part=cap)]
                                      for s in range(degree_max - offset + 1)]
                    by_size.append(table[key])
                # cuts: partial sums of the partition sizes, nondecreasing and
                # at most room, in the lexicographic order of the size tuples
                for cuts in combinations_with_replacement(range(room + 1), len(caps)):
                    if cuts[0] and not caps[0]:
                        continue
                    choices = [column[b - a]
                               for column, a, b in zip(by_size, (0,) + cuts, cuts)]
                    for stacks in product(*choices):
                        yield LabeledDiagram._of(stacks, lam)


def diagram_count(k, lam, degree_max):
    """The number of diagrams of (k, lam) of each weight 0..degree_max,
    without building one: the numerators of ``forgotten_series_terms``
    summed with their signs undone, cut at degree_max, and divided as a
    series by their common denominator (t;t)_{k+1}.  Dividing by 1 - t^j is
    a running sum with stride j."""
    if degree_max < 0:
        return ()
    numerator = sum((parity_sign(mu) * term
                     for mu, term in forgotten_series_terms(lam, k)), TPoly())
    counts = [numerator.coeff(d) for d in range(degree_max + 1)]
    for j in range(1, k + 2):
        for d in range(j, degree_max + 1):
            counts[d] += counts[d - j]
    return tuple(counts)


def diagrams_of_weight(k, lam, d):
    """All diagrams over all partitions of k+1 with weight exactly d."""
    if d < 0:
        raise ValueError("weight must be nonnegative")
    return [x for x in diagrams_up_to(k, lam, d) if x.weight() == d]


def fixed_to_msequence(diagram):
    """Read a fixed point (all widths 1) as an M-sequence of column heights
    over labels.  The M-sequence invariants re-assert non-combinability."""
    if any(st.row_len != 1 for st in diagram.stacks):
        raise ValueError("diagram has a stack wider than one cell")
    return MSequence(
        (st.above.size, st.labels[0]) for st in diagram.stacks
    )
