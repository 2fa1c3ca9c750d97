"""Fixed-point combinatorial models and their t-generating polynomials.

Every model here is a pair of vectors in k+1 slots: budgets (b_1, ...,
b_{k+1}) and an admissible vector (a_1, ..., a_{k+1}) with a_1 = 0 and
a_{i+1} < a_i + b_i, weighted by t^(a_1 + ... + a_{k+1}); A(b) is the sum
over the admissible vectors of b.  A model draws its budgets from the
monomials of a symmetric function in k+1 variables, so every model is one
linear functional, L_k(m_mu) = the sum of A(b) over the distinct orderings
b of mu padded with zeros to k+1 slots, each computed once per process
(``generic_polynomial``), applied to an m-expansion counted once per mu:

* M-sequences for lam: m_lam itself (``msequence_polynomial``);
* ordered set partition sequences for n: p_1^n = h_{1^n}, whose
  m-coefficients are the multinomials (``osp_polynomial``);
* tableau sequences for lam: s_lam, whose m-coefficients are Kostka
  numbers (``ssyt_polynomial``);
* the other coefficients of the Delta image: e_lam and h_lam, whose
  m-coefficients count 0-1 and nonnegative integer matrices.

The m-coefficients are counted here (``m_expansion``), not read from the
``symfunc`` tables, so the model route stays independent of the oracle.
``expansion_terms`` gives the Delta image in the e, f, m or s basis from
the models alone; its duality table ``_DUAL`` names the m-expansion that
pairs with each basis, and nothing outside this module knows it.
The object enumerators (``msequences``, ``osp_sequences``,
``ssyt_sequences``) list the same objects one by one for the bijection, the
involution and the tests.  ``MSequence`` is the one check of admissibility:
an ordered set partition sequence is valid when its (a_i, |B_i|) are an
M-sequence, and a tableau sequence when its (a_i, content_i) are.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, product

from .partitions import Partition, int_entries, padded_rearrangements, partitions_of
from .tarith import TPoly


def admissible_avectors(bvec):
    """All (a_1, ..., a_m) with a_1 = 0 and a_{i+1} < a_i + b_i, in
    lexicographic order."""
    out = [(0,)]
    for b in bvec[:-1]:
        out = [v + (a,) for v in out for a in range(v[-1] + b)]
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
def _budget_functional(mu, k):
    """L_k(m_mu): the sum of A(b) over the distinct orderings b of mu padded
    with zeros to k+1 slots (0 when mu has more than k+1 parts).

    by_last[a] holds the t-polynomial of the admissible prefixes ending in
    a.  The next coordinate may be any a' < a + b, so its polynomial is
    t^a' times the sum of by_last[a] over a >= a' - b + 1, and one pass of
    suffix sums gives every a' at once.  The step is linear in by_last, so
    the prefixes that have used the same sub-multiset of budgets are kept
    as one summed vector, keyed by the multiplicities left; their vectors
    have the same length, 1 + (budget used) - (slots used).  The last slot
    bounds no coordinate, so only the first k slots are stepped.
    """
    if len(mu) > k + 1:
        return TPoly()
    budgets = [0] + sorted(set(mu.parts))
    left = (k + 1 - len(mu),) + tuple(mu.multiplicity(b) for b in budgets[1:])
    states = {left: [[1]]}
    for _ in range(k):
        merged = {}
        for left, by_last in states.items():
            tails = list(accumulate(reversed(by_last), _add))[::-1]
            for i, b in enumerate(budgets):
                if not left[i]:
                    continue
                step = [
                    [0] * a + tails[max(0, a - b + 1)]
                    for a in range(len(by_last) + b - 1)
                ]
                if not step:  # no admissible prefix
                    continue
                key = left[:i] + (left[i] - 1,) + left[i + 1:]
                if key in merged:
                    step = list(map(_add, merged[key], step))
                merged[key] = step
        states = merged
    total = []
    for by_last in states.values():
        for poly in by_last:
            total = _add(total, poly)
    return TPoly(total)


def generic_polynomial(terms, k):
    """Sum over terms (integer coeff, partition mu) of coeff * L_k(m_mu):
    the t-generating polynomial of the model whose budgets are drawn from
    the symmetric function sum of coeff * m_mu in k+1 variables.  A mu
    with more than k+1 parts contributes 0."""
    acc = []
    for coeff, mu in terms:
        int_entries([coeff])
        poly = _budget_functional(Partition(mu), k)
        acc = _add(acc, [coeff * c for c in poly.coeffs])
    return TPoly(acc)


def _bounded_vectors(caps, total):
    """Every x with 0 <= x_i <= caps[i] and x_1 + x_2 + ... = total."""
    if not caps:
        if total == 0:
            yield ()
        return
    room = sum(caps[1:])
    for x in range(max(0, total - room), min(caps[0], total) + 1):
        for rest in _bounded_vectors(caps[1:], total - x):
            yield (x,) + rest


# How much one removal may take from each part of a shape nu: one cell (a
# 0-1 matrix row, for e), any number (an integer matrix row, for h), or a
# horizontal strip, at most nu_i - nu_{i+1} cells of row i (for s).
_REMOVAL_CAPS = {
    "e": lambda nu: tuple(min(p, 1) for p in nu),
    "h": lambda nu: nu,
    "s": lambda nu: tuple(p - q for p, q in zip(nu, nu[1:] + (0,))),
}


def _removal_count(caps, nu, sizes, memo):
    """Ways to empty the shape nu by removing sizes[0], sizes[1], ... cells
    in turn, each removal within caps(nu)."""
    if not sizes:
        return 1  # the sizes sum to |nu|, so nu is empty here
    key = (nu, sizes)
    if key not in memo:
        count = 0
        for xs in _bounded_vectors(caps(nu), sizes[0]):
            rest = sorted((p - x for p, x in zip(nu, xs) if p > x), reverse=True)
            count += _removal_count(caps, tuple(rest), sizes[1:], memo)
        memo[key] = count
    return memo[key]


def m_expansion(basis, lam, nvars):
    """(coeff, mu) for every partition mu with at most nvars parts and a
    nonzero coefficient of m_mu in the element of ``basis`` ("m", "e", "h"
    or "s") indexed by lam.

    The coefficient of m_mu in e_lam (h_lam) counts the 0-1 (nonnegative
    integer) matrices with row sums mu and column sums lam; in s_lam it is
    the Kostka number, the tableaux of shape lam and content mu, whose
    cells holding each entry form a horizontal strip.  Each count removes
    mu's parts from lam one by one; the counts do not depend on the order
    of mu's parts, so partially removed shapes are sorted and shared.  A
    matrix count is the same for the transpose, so the shorter partition is
    the shape: removing many small parts from few rows is the cheap way.
    """
    lam = Partition(lam)
    if basis == "m":
        return [(1, lam)] if len(lam) <= nvars else []
    caps, memo, out = _REMOVAL_CAPS[basis], {}, []
    for mu in partitions_of(lam.size):
        if len(mu) <= nvars:
            shape, sizes = lam.parts, mu.parts
            if basis != "s" and len(mu) < len(lam):
                shape, sizes = sizes, shape
            coeff = _removal_count(caps, shape, sizes, memo)
            if coeff:
                out.append((coeff, mu))
    return out


# The models compute L_k(g) = <omega F, g> for the Delta image F under the
# Hall inner product, so the coefficient of b_lam is L_k of omega of the Hall
# dual of b_lam: e_lam <-> m_lam, s_lam <-> s_lam', f_lam <-> h_lam and
# m_lam <-> e_lam.
_DUAL = {"e": "m", "s": "s", "f": "h", "m": "e"}


def expansion_terms(n, k, basis):
    """(lam, coeff) for every lam |- n, in ``partitions_of`` order, whose
    coefficient of b_lam in the Delta image is nonzero, where b is
    ``basis`` ("e", "f", "m" or "s"); computed from the models alone."""
    dual, terms = _DUAL[basis], []
    for lam in partitions_of(n):
        mu = lam.conjugate() if basis == "s" else lam
        coeff = generic_polynomial(m_expansion(dual, mu, k + 1), k)
        if coeff:
            terms.append((lam, coeff))
    return terms


class MSequence:
    """A sequence of (a_i, b_i) pairs with a_1 = 0 and a_{i+1} < a_i + b_i.

    An entry that is not an int (a float, bool, string or None) raises
    TypeError.  Otherwise raises on the first violated inequality so
    callers can report it.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        pairs = tuple(map(tuple, pairs))
        # every entry is checked before the shape of any pair
        int_entries(chain.from_iterable(pairs))
        pairs = tuple((a, b) for a, b in pairs)
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
        return cls(data["pairs"])


def msequences(lam, k):
    """The complete finite set of M-sequences for lam and k; empty when lam
    has more than k+1 parts."""
    lam = Partition(lam)
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
    return generic_polynomial([(1, lam)], k)


class OSPSequence:
    """Pairs (a_i, B_i) where the B_i are disjoint subsets covering
    {1..n} and the (a_i, |B_i|) are an M-sequence."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        # the a_i are checked as entries of the M-sequence below
        pairs = tuple((a, frozenset(int_entries(block))) for a, block in pairs)
        seen = set()
        for _, block in pairs:
            if seen & block:
                raise ValueError("blocks are not disjoint")
            seen |= block
        if seen != set(range(1, len(seen) + 1)):
            raise ValueError("blocks must cover {1..n}")
        MSequence((a, len(block)) for a, block in pairs)
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
    return generic_polynomial(m_expansion("h", [1] * n, k + 1), k)


def ssyt_fillings(lam, max_entry):
    """Semistandard fillings of lam with entries in 1..max_entry, as tuples
    of row tuples, enumerated in row-major lexicographic order."""
    lam = Partition(lam)
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
    a-vector whose (a_i, content_i) are an M-sequence."""

    __slots__ = ("_tableau", "_avec")

    def __init__(self, tableau, avec, k):
        # the a_i are checked as entries of the M-sequence below
        tableau, avec = tuple(map(int_entries, tableau)), tuple(avec)
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
        MSequence(zip(avec, tableau_content(tableau, k + 1)))
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
    lam = Partition(lam)
    if k < 1:
        raise ValueError("k must be positive")
    out = []
    for tableau in ssyt_fillings(lam, k + 1):
        content = tableau_content(tableau, k + 1)
        for avec in admissible_avectors(content):
            out.append(SSYTSequence(tableau, avec, k))
    return out


def ssyt_polynomial(lam, k):
    """Sum of t^weight over tableau sequences (the q=1 Schur coefficient of
    the conjugate shape)."""
    if k < 1:
        raise ValueError("k must be positive")
    return generic_polynomial(m_expansion("s", lam, k + 1), k)
