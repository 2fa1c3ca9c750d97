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

The walk is a function of the path alone, and a path is its area sequence,
an immutable tuple, so ``_walk`` is computed once per path value per
process and returned as a tuple: the forward map of every decoration of a
path, and the inverse's rebuilt copy of that path, read the same entry.
The inverse takes that copy from ``_checked_path``, a cache of checked
``DyckPath(alpha)`` keyed by the full area-sequence tuple.  Whether a
tuple is an area sequence is a function of the tuple alone, so the check
runs once per value, and the kept path keeps its rises for every later
inverse that rebuilds it; an invalid tuple raises and is not kept.  There
are 625 Dyck paths with n <= 7, against 10,871 decorated paths.  Neither
direction checks the weight: the bijection suite compares ``rho()`` with
the decorated area once per path, and its round trip carries that one
comparison over to the inverse.
"""

from __future__ import annotations

from functools import lru_cache

from .dyck import DecoratedDyckPath, DyckPath
from .msequences import MSequence


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
def _checked_path(alpha):
    """``DyckPath(alpha)``, checked, for an area-sequence tuple; one per
    value, built once, so the path keeps its rises for the next caller."""
    return DyckPath(alpha)


def decorated_to_msequence(decorated):
    """Map a decorated path to its M-sequence."""
    rows = decorated.rows
    pairs = [pair for row, pair in _walk(decorated.path) if row not in rows]
    if 0 not in rows:
        pairs.append((0, 0))
    return MSequence(pairs)


def msequence_to_decorated(seq):
    """Rebuild the unique decorated path mapping to the given MSequence.

    Raises ValueError when no decorated path maps to it: nothing is left
    after the origin marker, or a pair matches no row of the path.
    """
    pairs = list(seq.pairs)
    decorations = [0] if pairs[-1] != (0, 0) else []
    if not decorations:
        pairs.pop()
    if not pairs:
        raise ValueError("nothing left after the origin marker")

    path = _checked_path(tuple(a + i for a, b in pairs for i in range(b)))
    matched = 0
    for row, pair in _walk(path):
        if matched < len(pairs) and pair == pairs[matched]:
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
    return DecoratedDyckPath(path, decorations)
