"""The weight-preserving bijection between decorated Dyck paths and
M-sequences, in both directions.

Both directions read one walk of the path (``_walk``), which gives every
row one pair at one step of the path:

- a row that starts a vertical segment gives (area, length) at its North
  step;
- every other row gives (area, 0), transported northeast along its
  diagonal to the East step just before the path first drops below that
  diagonal.

Forward: keep the pairs of the undecorated rows in walk order, and append
(0, 0) when the origin is undecorated.

Inverse: pop the origin marker, rebuild the path from the nonzero pairs,
and match the sequence against the walk of that path; the zero pairs the
sequence skips mark the decorated rows.  Between two segment pairs of a
walk the zero pairs descend strictly, so each zero pair of the sequence
matches exactly one of them, and the greedy match is the only match.

There is one path per area sequence in the process (``dyck._POOL``), so
``_walk`` is computed once per path, as a tuple.  The inverse rebuilds a
path from its segment pairs, which every decoration of the path shares,
so ``_path_of`` checks each segment tuple once and keeps its pooled path;
one that is no path raises and is not kept.  There are 625 Dyck paths
with n <= 7, against 10,871 decorated paths.  The forward map checks only
the M-sequence rules (``msequences._admissible``), since the walk's pairs
are int pairs, and the inverse builds its result unchecked: its
decorations are the origin and rows of zero pairs, which are rises.
Neither direction checks the weight: the bijection suite compares
``rho()`` with the decorated area once per path, and its round trip,
against the checked input, carries that comparison over to the inverse.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .dyck import DecoratedDyckPath, DyckPath
from .msequences import MSequence, _admissible


@lru_cache(maxsize=None)
def _walk(path):
    """(row, pair) for every row of the path, in the order of the steps the
    pairs rest on, as a tuple; one per path value, built once.

    Diagonal d holds the lattice points with y - x = d, and the North step
    of a row of area a ends on diagonal a + 1.  The pair of a row that does
    not start a segment rests on the East step just before the path first
    drops from diagonal a to a - 1; the path reaches a from above, so that
    step is an East step too.
    """
    starts = dict(path.runs())
    # after the last row the path returns to the diagonal
    alpha = path.area_seq + (0,)
    waiting = {}  # diagonal -> the row whose pair travels along it
    walk = []
    for row in range(1, path.n + 1):
        a = alpha[row - 1]
        if row in starts:
            walk.append((row, (a, starts[row])))
        else:
            # the row below climbs from diagonal a - 1, so the path has
            # dropped from a to a - 1 since any earlier row of area a
            # began to wait: none is waiting on diagonal a now
            waiting[a] = row
        # the East steps before the next North step drop from diagonal
        # a + 1 to the next row's area, one diagonal each
        for d in range(a + 1, alpha[row], -1):
            if d in waiting:
                walk.append((waiting.pop(d), (d, 0)))
    return tuple(walk)


@lru_cache(maxsize=None)
def _path_of(segments):
    """The checked path whose vertical segments, in order, start at the
    areas and have the lengths of the (area, length) ``segments``; one per
    value, built once."""
    # the rows of a segment (a, b) have areas a, a + 1, ..., a + b - 1
    return DyckPath([a + i for a, b in segments for i in range(b)])


def decorated_to_msequence(decorated):
    """Map a decorated path to its M-sequence; ValueError when the image
    breaks a rule of one."""
    rows = decorated.rows
    pairs = [pair for row, pair in _walk(decorated.path) if row not in rows]
    if 0 not in rows:
        pairs.append((0, 0))
    return MSequence._of(_admissible(tuple(pairs)))


def msequence_to_decorated(seq):
    """Rebuild the unique decorated path mapping to the given MSequence.

    Raises ValueError when no decorated path maps to it: nothing is left
    after the origin marker, or a pair matches no row of the path.
    """
    pairs = seq.pairs
    decorations = [0] if pairs[-1] != (0, 0) else []
    if not decorations:
        pairs = pairs[:-1]
    if not pairs:
        raise ValueError("nothing left after the origin marker")

    path = _path_of(tuple(filter(itemgetter(1), pairs)))
    wanted = pairs + (None,)  # past the last pair, no pair of the walk matches
    matched = 0
    for row, pair in _walk(path):
        if pair == wanted[matched]:
            matched += 1
        elif pair[1] == 0:
            decorations.append(row)
        else:
            break
    if matched < len(pairs):
        raise ValueError(
            "pair %d, %r, matches no row of %r"
            % (matched + 1, pairs[matched], path)
        )
    # the skipped pairs are zero pairs of the walk, rows that rise
    return DecoratedDyckPath._of(path, frozenset(decorations))
