"""Dyck paths, area sequences, vertical runs, and decorated paths.

A path is its area sequence.  Decorations mark rows whose area is
discounted, plus optionally the origin.  The constructors take integers
only: an entry that is not an int (a float, bool, string or None) raises
TypeError rather than being truncated.

There is one path per area sequence in the process, in the pool
``_POOL``: the checking constructor checks the entries' type, then returns
the pooled path or checks the sequence and pools it, and ``_of`` draws
from the same pool, so a path compares and hashes by identity, in C.  A
path is given its rises, its runs and its run partition once, when it is
pooled; ``rises()`` and ``runs()`` hand out fresh lists, so a caller
cannot change what the path keeps.  ``enumerate_paths`` builds one tuple
of paths per n, once per process, and the generator ``decorated_paths``
yields the decorations of those paths one at a time, so no caller holds
every decorated path of (n, k) at once.  Both build through the unchecked
``_of``, since their objects are valid by construction; ``test_dyck``
rebuilds each through the checking constructors.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import sub

from .partitions import Partition, int_entries
from .tarith import TPoly

# area sequence -> the one path of that sequence in this process
_POOL = {}


class DyckPath:
    """Lattice path from (0,0) to (n,n) weakly above the diagonal, stored as
    the per-row area sequence (alpha_1, ..., alpha_n)."""

    __slots__ = ("_alpha", "_rises", "_runs", "_lam")

    def __new__(cls, area_seq):
        alpha = int_entries(area_seq)
        path = _POOL.get(alpha)
        if path is not None:
            return path
        if not alpha:
            raise ValueError("empty area sequence")
        if alpha[0] != 0:
            raise ValueError("area sequence must start at 0")
        for i in range(1, len(alpha)):
            if alpha[i] < 0 or alpha[i] > alpha[i - 1] + 1:
                raise ValueError(
                    "invalid area sequence %r at row %d" % (alpha, i + 1)
                )
        return cls._of(alpha)

    @classmethod
    def _of(cls, alpha):
        """Unchecked: ``alpha`` a tuple of ints that is an area sequence;
        the one path of that sequence in ``_POOL``."""
        path = _POOL.get(alpha)
        if path is None:
            n = len(alpha)
            rises = tuple(i for i in range(2, n + 1)
                          if alpha[i - 2] == alpha[i - 1] - 1)
            starts = [i for i in range(1, n + 1) if i not in rises]
            lengths = list(map(sub, starts[1:] + [n + 1], starts))
            path = object.__new__(cls)
            path._alpha, path._rises = alpha, rises
            path._runs = tuple(zip(starts, lengths))
            path._lam = Partition._of(tuple(sorted(lengths, reverse=True)))
            _POOL[alpha] = path
        return path

    @property
    def area_seq(self):
        return self._alpha

    @property
    def n(self):
        return len(self._alpha)

    def area(self):
        return sum(self._alpha)

    def alpha(self, i):
        """Area of row i (1-based)."""
        return self._alpha[i - 1]

    def rises(self):
        """Rows i >= 2 whose North step directly follows the one below,
        i.e. alpha_{i-1} = alpha_i - 1.  These are the decorable rows."""
        return list(self._rises)

    def runs(self):
        """Maximal vertical segments as (start row, length) pairs."""
        return list(self._runs)

    def vertical_run_partition(self):
        """The partition of n formed by vertical segment lengths."""
        return self._lam

    def __repr__(self):
        return "DyckPath(%s)" % list(self._alpha)


@lru_cache(maxsize=None)
def enumerate_paths(n):
    """All Dyck paths in the n x n square, ordered by area sequence: one
    tuple per n, built once, so what its paths keep outlives each caller."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []

    def rec(prefix):
        if len(prefix) == n:
            out.append(DyckPath._of(tuple(prefix)))
            return
        for nxt in range(prefix[-1] + 2):
            rec(prefix + [nxt])

    rec([0])
    return tuple(out)


def decoration_weights(path, max_count):
    """Decorated-area polynomials by decoration count 0..max_count: entry j
    is the sum of t^(area - sum of alpha over the decorated rows) over the
    j-sets of {origin} union the decorable rows, zero when there are none.

    This is the w-expansion of t^R * (t^0 + w) * prod over decorable rows of
    (t^alpha_row + w), where R is the area outside the decorable rows, so
    every exponent stays nonnegative.
    """
    rest = path.area() - sum(path.alpha(i) for i in path.rises())
    coeffs = [TPoly.t_power(rest)] + [TPoly()] * max_count
    for alpha in [0] + [path.alpha(i) for i in path.rises()]:
        for j in range(max_count, 0, -1):
            coeffs[j] = coeffs[j].shift(alpha) + coeffs[j - 1]
        coeffs[0] = coeffs[0].shift(alpha)
    return coeffs


class DecoratedDyckPath:
    """A Dyck path with a set of decorated rows drawn from {0} union the
    decorable rows; 0 marks the origin."""

    __slots__ = ("_path", "_rows")

    def __init__(self, path, rows):
        rows = frozenset(int_entries(rows))
        bad = rows.difference(path._rises, (0,))
        if bad:
            raise ValueError("rows %s cannot carry a decoration" % sorted(bad))
        self._path, self._rows = path, rows

    @classmethod
    def _of(cls, path, rows):
        """Unchecked: ``rows`` a frozenset of rows that ``path`` may
        decorate."""
        decorated = object.__new__(cls)
        decorated._path, decorated._rows = path, rows
        return decorated

    @property
    def path(self):
        return self._path

    @property
    def rows(self):
        return self._rows

    def decorations(self):
        return sorted(self._rows)

    def decorated_area(self):
        """Area cells outside decorated rows; the origin discounts nothing."""
        alpha = (0,) + self._path.area_seq  # row i has area alpha[i]
        return sum(alpha) - sum(map(alpha.__getitem__, self._rows))

    def __eq__(self, other):
        if not isinstance(other, DecoratedDyckPath):
            return NotImplemented
        return self._path == other._path and self._rows == other._rows

    def __hash__(self):
        return hash((self._path, self._rows))

    def __repr__(self):
        return "DecoratedDyckPath(%r, %s)" % (self._path, self.decorations())

    def to_json(self):
        return {
            "area_seq": list(self._path.area_seq),
            "decorated_rows": self.decorations(),
        }

    @classmethod
    def from_json(cls, data):
        """Read what to_json writes; a repeated row raises ValueError (the
        decorations are a set, so a repeat would be merged away)."""
        area, rows = data["area_seq"], data["decorated_rows"]
        decorated = cls(DyckPath(area), rows)
        if len(decorated.rows) != len(rows):
            raise ValueError("decorated rows must be distinct")
        return decorated


def decorated_paths(n, k):
    """Each decorated path with exactly n - k decorations, path by path in
    ``enumerate_paths`` order, one at a time."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    for path in enumerate_paths(n):
        for chosen in combinations((0,) + path._rises, n - k):
            yield DecoratedDyckPath._of(path, frozenset(chosen))


def enumerate_decorated(n, k):
    """The list of ``decorated_paths(n, k)``."""
    return list(decorated_paths(n, k))
