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

``_move`` is the one rule of the involution, on a diagram's stacks tuple.
Scanning left to right, the first wide stack splits into its last column
and the rest, and the first single-cell stack that ``_combinable`` allows
merges into its successor; it gives the partner's stacks tuple, or None.
This pairs every diagram of sign -1 with one of sign +1 except the
all-width-1 diagrams whose columns satisfy the M-sequence inequalities.
``involution`` wraps it on diagrams.

The public constructors ``ColumnStack(...)`` and ``LabeledDiagram(...)``
check every rule above.  There is one stack per value (row length,
partition parts, labels) in the process, kept in the pool ``_POOL``: the
checking constructor returns the pooled stack after its checks, and the
walk and the moves draw theirs through the unchecked ``_of``, since they
make them valid by construction.  So two stacks are equal exactly when
they are the same object, and a stacks tuple hashes and compares in C.
``test_diagrams`` rebuilds what the walk and the moves make through the
checking constructors.  Moves write the partitions they make as already
sorted tuples (``Partition._of``).  A stack keeps its partition's size,
its full-row count and its weight, which the walk reads for every diagram.

``_stack_walk`` is the walk.  It yields each diagram's stacks tuple with
its weight, the labels' weight plus the partition sizes it chose, and its
sign, which depends only on the partition of k+1 that the row lengths
rearrange.  ``diagrams_of_weight`` wraps the stacks of one weight in
``LabeledDiagram._of``.  A diagram's own weight and sign are always read
from its stacks (``_weight_of``, ``_sign_of``), so comparing them with
the walk's compares two independent computations.  The walk reads its stacks
from tables built once per process (``_stacks_by_size``: the stacks of one
row, labels and cap, by partition size, made straight from the partition
tuples) and its choices of sizes from ``_size_tuples``, so a walk of one
(k, lam) reuses what the walks before it built.

``_move`` reads only a prefix of the stacks: up to the first wide stack,
or up to the stack that the first combinable one merges into; the stacks
after it stay.  The involution suite reads the descent ``_move_prefixes``
in place of the walk: over the walk's placements and tables, it yields
each move prefix once, with the (row length, labels) of the positions
after it and the number of diagrams of each weight that start with it.

A move reads one stack (a split) or one stack and the label and height of
the cell before it (a merge), so each stack also keeps what its moves
build: its two halves (``_halves``), made on the first split, and the
stack it merges into for each (label, height) it has absorbed
(``_absorb``).  Every ``_move`` shares these.  The pool, the tables and
these memos last for the process, and hold only values that are functions
of their keys: the guard of a merge is evaluated on every call, and the
stacks tuple a move makes is new, so the suite's pair laws (equal weight,
opposite sign, each the other's image, compared by value) are checked on
every pair of move prefixes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from operator import getitem, sub

from .msequences import MSequence
from .partitions import (
    Partition,
    _partition_tuples,
    distinct_orderings,
    int_entries,
    padded_rearrangements,
    parity_sign,
    partitions_of,
)
from .specialize import forgotten_series_terms
from .tarith import TPoly

# (row length, parts, labels) -> the one stack of that value in this process
_POOL = {}


class ColumnStack:
    """One base row of ``row_len`` labeled cells with a partition above it.
    Equal stacks are one object, so a stack compares and hashes by identity."""

    __slots__ = ("_row_len", "_above", "_labels", "_size", "_full", "_weight",
                 "_split_memo", "_merge_memo")

    def __new__(cls, row_len, above, labels):
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
        return cls._of(row_len, above.parts, labels)

    @classmethod
    def _of(cls, row_len, parts, labels):
        """Unchecked: ``parts`` a sorted tuple, ``labels`` a tuple of ints,
        and together a valid stack; the one stack of that value in
        ``_POOL``."""
        key = row_len, parts, labels
        stack = _POOL.get(key)
        if stack is None:
            stack = object.__new__(cls)
            stack._row_len, stack._labels = row_len, labels
            stack._above = Partition._of(parts)
            stack._size = sum(parts)
            stack._full = parts.count(row_len)
            stack._weight = stack._size + sum(j * v for j, v in enumerate(labels))
            stack._split_memo = stack._merge_memo = None
            _POOL[key] = stack
        return stack

    def _halves(self):
        """(head, tail) of splitting this stack, row_len > 1, built once: its
        last column over its last label c, then the rest, whose full rows
        each give their last cell to the column and gain c more."""
        if self._split_memo is None:
            r, full, c = self._row_len, self._full, self._labels[-1]
            head = ColumnStack._of(1, (1,) * full, (c,))
            rest = (r - 1,) * (full + c) + self._above.parts[full:]
            tail = ColumnStack._of(r - 1, rest, self._labels[:-1])
            self._split_memo = head, tail
        return self._split_memo

    def _absorb(self, c, height):
        """This stack with a column of ``height`` cells over label ``c``
        merged in on the right, c + height <= its full rows, built once per
        (c, height): c full rows go, height more take the column."""
        if self._merge_memo is None:
            self._merge_memo = {}
        big = self._merge_memo.get((c, height))
        if big is None:
            r, full = self._row_len, self._full
            merged = ((r + 1,) * height + (r,) * (full - c - height)
                      + self._above.parts[full:])
            big = ColumnStack._of(r + 1, merged, self._labels + (c,))
            self._merge_memo[c, height] = big
        return big

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
        return _sign_of(self._stacks)

    def weight(self):
        return _weight_of(self._stacks)

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


def _weight_of(stacks):
    """The weight of a diagram with these stacks, read from the stacks."""
    return sum([st._weight for st in stacks])


def _sign_of(stacks):
    """The sign of a diagram with these stacks, read from its row lengths."""
    return parity_sign([st._row_len for st in stacks])


def _combinable(stacks, i):
    """The guard of combining stack i (one cell) into stack i+1, never
    cached: the label plus the column height fit among the next stack's full
    rows, and a column merged into first position is empty."""
    st = stacks[i]
    if i == 0 and st._size:
        return False
    return st._labels[0] + st._size <= stacks[i + 1]._full


def _move(stacks):
    """The partner's stacks, or None when no stack moves.  Scans left to
    right: a wide stack splits into its halves, a single-cell stack merges
    into its successor when ``_combinable``."""
    last = len(stacks) - 1
    for i, st in enumerate(stacks):
        if st._row_len > 1:
            return stacks[:i] + st._halves() + stacks[i + 1 :]
        if i < last and _combinable(stacks, i):
            big = stacks[i + 1]._absorb(st._labels[0], st._size)
            return stacks[:i] + (big,) + stacks[i + 2 :]
    return None


def involution(diagram):
    """The partner of opposite sign and equal weight, or None for a fixed
    point: the diagram of ``_move``'s stacks."""
    stacks = _move(diagram.stacks)
    return None if stacks is None else LabeledDiagram._of(stacks, diagram.lam)


def _placements(k, lam, degree_max):
    """(sign, rows, chunks, offsets, by_size) for every row-length
    arrangement ``rows`` and placement of lam's labels, in the order of the
    walk: the labels of each position, their weight there, and
    ``by_size[i][s]``, the stacks at position i of partition size s."""
    lam = Partition(lam)
    if len(lam) > k + 1:
        return
    flats = padded_rearrangements(lam, k + 1)
    for mu in partitions_of(k + 1):
        sign = parity_sign(mu)
        for rows in distinct_orderings(mu.parts):
            caps = (rows[0] - 1,) + rows[1:]
            ends = list(accumulate(rows))
            for flat in flats:
                chunks = [flat[end - rl : end] for rl, end in zip(rows, ends)]
                offsets = [sum(j * v for j, v in enumerate(chunk)) for chunk in chunks]
                by_size = [_stacks_by_size(rl, chunk, cap, degree_max - offset)
                           for rl, chunk, cap, offset
                           in zip(rows, chunks, caps, offsets)]
                yield sign, rows, chunks, offsets, by_size


def _stack_walk(k, lam, degree_max):
    """(stacks, weight, sign) of every diagram of (k, lam) over every
    partition of k+1 with weight at most ``degree_max``, streamed: the
    stacks tuple, and the weight and sign that the walk knows from its
    choices, not read back from the stacks."""
    for sign, rows, _, offsets, by_size in _placements(k, lam, degree_max):
        # the labels' weight; the partitions add their sizes
        label_weight = sum(offsets)
        for sizes, total in _size_tuples(len(rows), degree_max - label_weight,
                                         rows[0] > 1):
            for stacks in product(*map(getitem, by_size, sizes)):
                yield stacks, label_weight + total, sign


def _move_prefixes(k, lam, degree_max):
    """(prefix, rest, weight, sign, completions) for every move prefix of
    the diagrams of (k, lam) of weight at most ``degree_max``, each once.

    Per placement, the descent picks stacks position by position and stops
    at the first that moves: a wide stack, or one that the stack before it
    merges into (``_combinable``); one that never stops is a fixed point.
    ``rest`` holds the (row length, labels) of the positions after the
    prefix, ``weight`` is the prefix's, from the walk's choices, and
    ``completions[t]`` counts the stacks after it that add t to it, up to
    degree_max."""
    for sign, rows, chunks, offsets, by_size in _placements(k, lam, degree_max):
        room = degree_max - sum(offsets)
        last = len(rows) - 1
        heads = list(accumulate(offsets))
        rests = [tuple(zip(rows[i + 1:], chunks[i + 1:])) for i in range(last + 1)]
        tails = [(0,) * sum(offsets[i + 1:]) + _box_counts(rows[i + 1:], room)
                 for i in range(last)] + [(1,)]

        def descend(i, prefix, used):
            for s in range(room - used + 1):
                for st in by_size[i][s]:
                    stacks = prefix + (st,)
                    if (st._row_len > 1 or i == last
                            or i and _combinable(stacks, i - 1)):
                        weight = heads[i] + used + s
                        found.append((stacks, rests[i], weight, sign,
                                      tails[i][:degree_max + 1 - weight]))
                    else:
                        descend(i + 1, stacks, used + s)

        found = []
        descend(0, (), 0)
        yield from found


@lru_cache(maxsize=None)
def _box_counts(rows, limit):
    """How many tuples of partitions, one per row of ``rows`` and no wider
    than it, have each total size 0..limit: prod over rows r of 1/(t;t)_r."""
    return _divided([1] + [0] * limit, [j for r in rows for j in range(1, r + 1)])


def _divided(counts, strides):
    """The series ``counts``, cut at its length, divided by 1 - t^j for
    each j in ``strides``: a running sum with stride j."""
    for j in strides:
        for d in range(j, len(counts)):
            counts[d] += counts[d - j]
    return tuple(counts)


@lru_cache(maxsize=None)
def _stacks_by_size(row_len, labels, cap, smax):
    """The stacks of one row over ``labels`` whose partition has parts at
    most ``cap``, grouped by partition size 0..smax: entry s lists them in
    the order of ``partitions_of(s, max_part=cap)``."""
    return tuple(tuple(ColumnStack._of(row_len, parts, labels)
                       for parts in _partition_tuples(s, min(s, cap)))
                 for s in range(smax + 1))


@lru_cache(maxsize=None)
def _size_tuples(m, room, first_free):
    """(sizes, total) for every tuple of m partition sizes whose total is at
    most ``room``, the first size 0 unless ``first_free``, in the
    lexicographic order of their partial sums."""
    out = []
    for cuts in combinations_with_replacement(range(room + 1), m):
        if cuts[0] and not first_free:
            continue
        out.append((tuple(map(sub, cuts, (0,) + cuts)), cuts[-1]))
    return tuple(out)


def diagram_count(k, lam, degree_max):
    """The number of diagrams of (k, lam) of each weight 0..degree_max,
    without building one: the numerators of ``forgotten_series_terms``
    summed with their signs undone, cut at degree_max, and divided as a
    series by their common denominator (t;t)_{k+1}.  Once per process for
    each (k, lam, degree_max): an involution run's budget and count checks
    share it."""
    return _diagram_count(k, Partition(lam), degree_max)


@lru_cache(maxsize=None)
def _diagram_count(k, lam, degree_max):
    if degree_max < 0:
        return ()
    numerator = sum((parity_sign(mu) * term
                     for mu, term in forgotten_series_terms(lam, k)), TPoly())
    return _divided([numerator.coeff(d) for d in range(degree_max + 1)],
                    range(1, k + 2))


def diagrams_of_weight(k, lam, d):
    """All diagrams over all partitions of k+1 with weight exactly d, in
    the order of the walk."""
    if d < 0:
        raise ValueError("weight must be nonnegative")
    lam = Partition(lam)
    return [LabeledDiagram._of(stacks, lam)
            for stacks, w, _ in _stack_walk(k, lam, d) if w == d]


def fixed_to_msequence(diagram):
    """Read a fixed point (all widths 1) as an M-sequence of column heights
    over labels.  The M-sequence invariants re-assert non-combinability."""
    if any(st.row_len != 1 for st in diagram.stacks):
        raise ValueError("diagram has a stack wider than one cell")
    return MSequence(
        (st.above.size, st.labels[0]) for st in diagram.stacks
    )
