"""Fixed-point combinatorial models and their t-generating polynomials.

Every model here is a pair of vectors in k+1 slots: budgets (b_1, ...,
b_{k+1}) and an admissible vector (a_1, ..., a_{k+1}) with a_1 = 0 and
a_{i+1} < a_i + b_i, weighted by t^(a_1 + ... + a_{k+1}).  The models
differ only in where the budgets come from: a monomial in the expansion of
a symmetric function in k+1 variables, counted with its coefficient.  So
one engine, ``generic_polynomial``, computes every t-generating polynomial
from an integer monomial expansion:

* M-sequences for lam: the monomial function m_lam (``monomials_of_m``);
* ordered set partition sequences for n: p_1^n (``monomials_of_p1n``);
* tableau sequences for lam: the Schur function s_lam (``monomials_of_s``);
* the other coefficients of the Delta image: e_lam and h_lam.

The object enumerators (``msequences``, ``osp_sequences``,
``ssyt_sequences``) list the same objects one by one for the bijection, the
involution and the tests.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import factorial

from .partitions import Partition, padded_rearrangements
from .tarith import TPoly


def admissible_avectors(bvec):
    """All (a_1, ..., a_m) with a_1 = 0 and a_{i+1} < a_i + b_i."""
    out = []

    def rec(prefix):
        i = len(prefix)
        if i == len(bvec):
            out.append(tuple(prefix))
            return
        bound = prefix[-1] + bvec[i - 1]
        for a in range(bound):
            rec(prefix + [a])

    rec([0])
    return out


def _add(p, q):
    """Sum of two coefficient lists."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, x in enumerate(q):
        out[i] += x
    return out


@lru_cache(maxsize=None)
def _prefix_polynomial(budgets):
    """A(b) for every b that starts with ``budgets`` and has one more slot.

    by_last[a] holds the t-polynomial of the admissible prefixes ending in
    a.  The next coordinate may be any a' < a + b, so its polynomial is
    t^a' times the sum of by_last[a] over a >= a' - b + 1, and one pass of
    suffix sums gives every a' at once.
    """
    by_last = [[1]]
    for b in budgets:
        tails = []
        acc = []
        for poly in reversed(by_last):
            acc = _add(acc, poly)
            tails.append(acc)
        tails.reverse()
        by_last = [
            [0] * a + tails[max(0, a - b + 1)]
            for a in range(len(by_last) + b - 1)
        ]
        if not by_last:  # no admissible prefix
            return TPoly()
    total = []
    for poly in by_last:
        total = _add(total, poly)
    return TPoly(total)


def _avector_polynomial(bvec):
    """A(b): the sum of t^(a_1 + ... + a_m) over the admissible vectors of
    b.  The last budget bounds no coordinate, so the cache ignores it."""
    return _prefix_polynomial(tuple(bvec[:-1]))


def generic_polynomial(monomials, k):
    """Sum over monomials (integer coeff, exponent vector of length k+1) of
    coeff * A(exponent vector): the t-generating polynomial of the model
    whose budgets are drawn from that monomial expansion."""
    acc = []
    for coeff, exps in monomials:
        if not isinstance(coeff, int):
            raise TypeError("monomial coefficient %r is not an integer" % (coeff,))
        exps = tuple(int(e) for e in exps)
        if len(exps) != k + 1:
            raise ValueError("exponent vector %r has length != %d" % (exps, k + 1))
        acc = _add(acc, [coeff * c for c in _avector_polynomial(exps).coeffs])
    return TPoly(acc)


class MSequence:
    """A sequence of (a_i, b_i) pairs with a_1 = 0 and a_{i+1} < a_i + b_i.

    Raises on the first violated inequality so callers can report it.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        pairs = tuple((int(a), int(b)) for a, b in pairs)
        if not pairs:
            raise ValueError("empty sequence")
        for a, b in pairs:
            if a < 0 or b < 0:
                raise ValueError("entries must be nonnegative, got (%d, %d)" % (a, b))
        if pairs[0][0] != 0:
            raise ValueError("a_1 = %d violates a_1 = 0" % pairs[0][0])
        for i in range(len(pairs) - 1):
            a, b = pairs[i]
            nxt = pairs[i + 1][0]
            if not nxt < a + b:
                raise ValueError(
                    "a_%d = %d violates a_%d < a_%d + b_%d = %d"
                    % (i + 2, nxt, i + 2, i + 1, i + 1, a + b)
                )
        self._pairs = pairs

    @property
    def pairs(self):
        return self._pairs

    @property
    def k(self):
        return len(self._pairs) - 1

    def avec(self):
        return tuple(a for a, _ in self._pairs)

    def bvec(self):
        return tuple(b for _, b in self._pairs)

    def lam(self):
        """The partition underlying the nonzero budgets."""
        return Partition(b for _, b in self._pairs if b)

    def rho(self):
        return sum(a for a, _ in self._pairs)

    def __eq__(self, other):
        if not isinstance(other, MSequence):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        return "MSequence(%s)" % (list(self._pairs),)

    def to_json(self):
        return {"pairs": [list(p) for p in self._pairs]}

    @classmethod
    def from_json(cls, data):
        """Read what to_json writes; an entry that is not an int (a float,
        bool, string or null) raises TypeError."""
        pairs = data["pairs"]
        bad = [x for pair in pairs for x in pair if type(x) is not int]
        if bad:
            raise TypeError("entries must be integers, not %r" % (bad[0],))
        return cls(pairs)


def msequences(lam, k):
    """The complete finite set of M-sequences for lam and k; empty when lam
    has more than k+1 parts."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if k < 1:
        raise ValueError("k must be positive")
    if len(lam) > k + 1:
        return []
    out = []
    for bvec in padded_rearrangements(lam, k + 1):
        for avec in admissible_avectors(bvec):
            out.append(MSequence(zip(avec, bvec)))
    return out


def msequence_polynomial(lam, k):
    """Sum of t^rho over the M-sequences for lam and k."""
    if k < 1:
        raise ValueError("k must be positive")
    return generic_polynomial(monomials_of_m(lam, k + 1), k)


class OSPSequence:
    """Pairs (a_i, B_i) where the B_i are disjoint subsets covering
    {1..n} and a_1 = 0, a_{i+1} < a_i + |B_i|."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        pairs = tuple((int(a), frozenset(int(x) for x in block)) for a, block in pairs)
        if not pairs:
            raise ValueError("empty sequence")
        if pairs[0][0] != 0:
            raise ValueError("a_1 must be 0")
        seen = set()
        for _, block in pairs:
            if seen & block:
                raise ValueError("blocks are not disjoint")
            seen |= block
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must cover {1..n}")
        for i in range(len(pairs) - 1):
            a, block = pairs[i]
            if not pairs[i + 1][0] < a + len(block):
                raise ValueError(
                    "a_%d violates the block-size inequality" % (i + 2)
                )
        self._pairs = pairs

    @property
    def pairs(self):
        return self._pairs

    def rho(self):
        return sum(a for a, _ in self._pairs)

    def __eq__(self, other):
        if not isinstance(other, OSPSequence):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        return "OSPSequence(%s)" % [
            (a, sorted(block)) for a, block in self._pairs
        ]

    def to_json(self):
        return {"pairs": [[a, sorted(block)] for a, block in self._pairs]}


def osp_sequences(n, k):
    """All ordered-set-partition sequences for n and k."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    out = []
    for assignment in product(range(k + 1), repeat=n):
        blocks = [set() for _ in range(k + 1)]
        for element, slot in zip(range(1, n + 1), assignment):
            blocks[slot].add(element)
        sizes = tuple(len(b) for b in blocks)
        for avec in admissible_avectors(sizes):
            out.append(OSPSequence(zip(avec, blocks)))
    return out


def osp_polynomial(n, k):
    """Sum of t^rho over ordered-set-partition sequences (the q=1 Hilbert
    series of the Delta image)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return generic_polynomial(monomials_of_p1n(n, k + 1), k)


def ssyt_fillings(lam, max_entry):
    """Semistandard fillings of lam with entries in 1..max_entry, as tuples
    of row tuples, enumerated in row-major lexicographic order."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    rows = lam.parts
    out = []

    def rec(filled):
        r = len(filled)
        if r == len(rows):
            out.append(tuple(filled))
            return
        width = rows[r]

        def fill_row(row):
            c = len(row)
            if c == width:
                rec(filled + [tuple(row)])
                return
            low = row[-1] if row else 1
            if r > 0 and c < len(filled[r - 1]):
                low = max(low, filled[r - 1][c] + 1)
            for v in range(low, max_entry + 1):
                fill_row(row + [v])

        fill_row([])

    rec([])
    return out


def tableau_content(tableau, max_entry):
    """Occurrences of each value 1..max_entry in the tableau."""
    counts = [0] * max_entry
    for row in tableau:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


class SSYTSequence:
    """A semistandard tableau with entries bounded by k+1 together with an
    admissible vector against its content counts."""

    __slots__ = ("_tableau", "_avec")

    def __init__(self, tableau, avec, k):
        tableau = tuple(tuple(int(v) for v in row) for row in tableau)
        avec = tuple(int(a) for a in avec)
        if len(avec) != k + 1:
            raise ValueError("a-vector must have length k+1")
        for row in tableau:
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                raise ValueError("rows must weakly increase")
            if any(not 1 <= v <= k + 1 for v in row):
                raise ValueError("entries must lie in 1..k+1")
        for r in range(1, len(tableau)):
            if len(tableau[r]) > len(tableau[r - 1]):
                raise ValueError("row lengths must weakly decrease")
            if any(tableau[r][c] <= tableau[r - 1][c] for c in range(len(tableau[r]))):
                raise ValueError("columns must strictly increase")
        content = tableau_content(tableau, k + 1)
        if avec[0] != 0:
            raise ValueError("a_1 must be 0")
        for i in range(k):
            if not avec[i + 1] < avec[i] + content[i]:
                raise ValueError("a_%d violates the content inequality" % (i + 2))
        self._tableau, self._avec = tableau, avec

    @property
    def tableau(self):
        return self._tableau

    @property
    def avec(self):
        return self._avec

    def weight(self):
        return sum(self._avec)

    def __eq__(self, other):
        if not isinstance(other, SSYTSequence):
            return NotImplemented
        return self._tableau == other._tableau and self._avec == other._avec

    def __hash__(self):
        return hash((self._tableau, self._avec))

    def __repr__(self):
        return "SSYTSequence(%s, %s)" % (list(self._tableau), list(self._avec))


def ssyt_sequences(lam, k):
    """All tableau sequences for lam with entries bounded by k+1."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    out = []
    for tableau in ssyt_fillings(lam, k + 1):
        content = tableau_content(tableau, k + 1)
        for avec in admissible_avectors(content):
            out.append(SSYTSequence(tableau, avec, k))
    return out


def ssyt_polynomial(lam, k):
    """Sum of t^weight over tableau sequences (the q=1 Schur coefficient of
    the conjugate shape)."""
    return generic_polynomial(monomials_of_s(lam, k + 1), k)


def monomials_of_m(lam, nvars):
    """Monomial expansion of m_lam in nvars variables."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if len(lam) > nvars:
        return []
    return [(1, exps) for exps in padded_rearrangements(lam, nvars)]


def monomials_of_p1n(n, nvars):
    """Monomial expansion of p_1^n in nvars variables."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars - 1:
            exps = tuple(prefix) + (remaining,)
            coeff = factorial(n)
            for e in exps:
                coeff //= factorial(e)
            out.append((coeff, exps))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], n)
    return out


def _exponent_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _monomials_of_er(r, nvars):
    out = {}
    for chosen in combinations(range(nvars), r):
        exps = tuple(1 if i in chosen else 0 for i in range(nvars))
        out[exps] = 1
    return out


def _monomials_of_hr(r, nvars):
    out = {}

    def rec(prefix, remaining):
        if len(prefix) == nvars - 1:
            out[tuple(prefix) + (remaining,)] = 1
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], r)
    return out


def monomials_of_e(lam, nvars):
    """Monomial expansion of e_lam in nvars variables."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    acc = {(0,) * nvars: 1}
    for part in lam:
        if part > nvars:
            return []
        acc = _exponent_product(acc, _monomials_of_er(part, nvars))
    return sorted((c, e) for e, c in acc.items())


def monomials_of_h(lam, nvars):
    """Monomial expansion of h_lam in nvars variables."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    acc = {(0,) * nvars: 1}
    for part in lam:
        acc = _exponent_product(acc, _monomials_of_hr(part, nvars))
    return sorted((c, e) for e, c in acc.items())


def monomials_of_s(lam, nvars):
    """Monomial expansion of s_lam in nvars variables, via tableau contents."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    acc = {}
    for tableau in ssyt_fillings(lam, nvars):
        content = tableau_content(tableau, nvars)
        acc[content] = acc.get(content, 0) + 1
    return sorted((c, e) for e, c in acc.items())
