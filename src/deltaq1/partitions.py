"""Integer partitions, conjugation, and multiset rearrangements.

Partitions are the indexing objects for every basis, diagram and model in
this package.  They are normalized (zeros dropped, parts decreasing), so
equality is structural, and checked once, where they enter: ``Partition(x)``
passes a Partition through.  ``int_entries`` is the one integer check, and
``_tuple_of`` the one check that a value is a list at all.
"""

from __future__ import annotations

import math
from functools import lru_cache


def _tuple_of(values, message):
    """``values`` as a tuple, or TypeError: ``message`` naming them, also
    for a string or a dict, which JSON never means as a list."""
    if isinstance(values, (str, dict)):
        raise TypeError(message % (values,))
    try:
        return tuple(values)
    except TypeError:
        raise TypeError(message % (values,)) from None


def int_entries(values):
    """The values as a tuple; TypeError names a value that is not a list,
    or the first entry that is not an int (a bool is not), so the object
    constructors truncate nothing."""
    values = _tuple_of(values, "expected a list of integers, not %r")
    for x in values:
        if type(x) is not int:
            raise TypeError("entries must be integers, not %r" % (x,))
    return values


class Partition:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("_parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):  # checked when it was built
            self._parts = parts._parts
            return
        cleaned = sorted(int_entries(parts), reverse=True)
        if cleaned and cleaned[-1] < 0:
            raise ValueError("partition parts must be nonnegative, got %r" % (parts,))
        self._parts = tuple(p for p in cleaned if p > 0)

    @classmethod
    def _of(cls, parts):
        """Unchecked: ``parts`` a weakly decreasing tuple of positive ints."""
        partition = object.__new__(cls)
        partition._parts = parts
        return partition

    @property
    def parts(self):
        return self._parts

    @property
    def size(self):
        return sum(self._parts)

    def __len__(self):
        return len(self._parts)

    def __iter__(self):
        return iter(self._parts)

    def __getitem__(self, i):
        return self._parts[i]

    def __bool__(self):
        return bool(self._parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self._parts == other._parts
        if isinstance(other, (tuple, list)):
            return self._parts == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._parts)

    def __repr__(self):
        return "Partition(%s)" % list(self._parts)

    def conjugate(self):
        """Column lengths of the Young diagram."""
        if not self._parts:
            return Partition()
        cols = [0] * self._parts[0]
        for p in self._parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def multiplicity(self, value):
        return self._parts.count(value)

    def multiplicities(self):
        """Part value -> multiplicity, values in decreasing order."""
        out = {}
        for p in self._parts:
            out[p] = out.get(p, 0) + 1
        return out

    def remove(self, value):
        """Delete one copy of ``value`` from the parts."""
        if value not in self._parts:
            raise ValueError("%d is not a part of %r" % (value, self))
        parts = list(self._parts)
        parts.remove(value)
        return Partition(parts)

    def to_json(self):
        return list(self._parts)


@lru_cache(maxsize=None)
def _partition_tuples(n, max_part):
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n):
    """All partitions of n, in lexicographically decreasing order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [Partition._of(t) for t in _partition_tuples(n, n)]


def rearrangement_count(mu):
    """Number of distinct orderings of the parts of mu."""
    mu = Partition(mu)
    count = math.factorial(len(mu))
    for m in mu.multiplicities().values():
        count //= math.factorial(m)
    return count


def distinct_orderings(values):
    """All distinct orderings of a multiset, in decreasing lexicographic order.

    Each ordering is the lexicographic predecessor of the one before it: at
    the last descent i, swap in the largest smaller value after i, then
    reverse the tail after i (nondecreasing before, nonincreasing after)."""
    perm = sorted(values, reverse=True)
    out = [tuple(perm)]
    last = len(perm) - 1
    while True:
        i = last - 1
        while i >= 0 and perm[i] <= perm[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = last
        while perm[j] >= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])
        out.append(tuple(perm))


def padded_rearrangements(lam, m):
    """Distinct length-m orderings of the parts of lam padded with zeros.

    Rejects partitions longer than m; the associated monomial coefficient
    is zero in that case and callers must handle it before enumerating.
    """
    lam = Partition(lam)
    if len(lam) > m:
        raise ValueError("partition %r has more than %d parts" % (lam, m))
    return distinct_orderings(lam.parts + (0,) * (m - len(lam)))


def parity_sign(mu):
    """(-1)^(|mu| - len(mu)): the sign of omega on p_mu, and the sign of the
    forgotten-basis series term of mu."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def zee(mu):
    """The centralizer size z_mu = prod i^{m_i} m_i! over part values i."""
    mu = Partition(mu)
    out = 1
    for value, mult in mu.multiplicities().items():
        out *= value ** mult * math.factorial(mult)
    return out
