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
* ordered set partition sequences for n, whose budgets are the sizes of
  k+1 disjoint blocks covering {1..n}: p_1^n = h_{1^n}, whose
  m-coefficients are the multinomials (``osp_polynomial``);
* tableau sequences for lam, whose budgets are the content of a
  semistandard tableau of shape lam with entries in 1..k+1: s_lam, whose
  m-coefficients are Kostka numbers (``ssyt_polynomial``);
* the other coefficients of the Delta image: e_lam and h_lam, whose
  m-coefficients count 0-1 and nonnegative integer matrices.

The m-coefficients are counted here (``m_expansion``), not read from the
``symfunc`` tables, so the model route stays independent of the oracle.
``expansion_terms`` gives the Delta image in the e, f, m or s basis from
the models alone; its duality table ``_DUAL`` names the m-expansion that
pairs with each basis, and nothing outside this module knows it.
Ordered set partition and tableau sequences are counted, never listed.
``msequences`` lists the M-sequences one by one, for the bijection and the
involution, through the unchecked ``MSequence._of``, since admissible
vectors over an ordering of lam are M-sequences by construction;
``test_msequences`` rebuilds each through ``MSequence``, the one check of
admissibility (``_admissible`` past the checks of types and shape).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain
from operator import itemgetter

from .partitions import (
    Partition,
    _tuple_of,
    int_entries,
    padded_rearrangements,
    partitions_of,
)
from .tarith import TPoly, _add


def admissible_avectors(bvec):
    """All (a_1, ..., a_m) with a_1 = 0 and a_{i+1} < a_i + b_i, in
    lexicographic order.  Stops at the first prefix length with no
    admissible prefix, since no longer vector has one."""
    out = [(0,)]
    for b in bvec[:-1]:
        out = [v + (a,) for v in out for a in range(v[-1] + b)]
        if not out:
            break
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
    int_entries([k])
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


def _admissible(pairs):
    """``pairs``, a tuple of (a, b) int pairs, once they pass the rules of an
    M-sequence: nonempty, nonnegative entries, a_1 = 0, then a_{i+1} < a_i +
    b_i; else ValueError names the first rule broken."""
    if not pairs:
        raise ValueError("empty sequence")
    for a, b in pairs:
        if a < 0 or b < 0:
            raise ValueError("entries must be nonnegative, got (%d, %d)" % (a, b))
    a, b = pairs[0]
    if a != 0:
        raise ValueError("a_1 = %d violates a_1 = 0" % a)
    for i, (nxt, nb) in enumerate(pairs[1:], 2):
        if not nxt < a + b:
            raise ValueError("a_%d = %d violates a_%d < a_%d + b_%d = %d"
                             % (i, nxt, i, i - 1, i - 1, a + b))
        a, b = nxt, nb
    return pairs


class MSequence:
    """A sequence of (a_i, b_i) pairs with a_1 = 0 and a_{i+1} < a_i + b_i.

    Pairs that are not a sequence, a pair that is not one, or an entry that
    is not an int (a float, bool, string or None) raise TypeError, and a
    pair of another length ValueError, each naming what it rejects; then
    ``_admissible`` names the first rule broken.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        pairs = _tuple_of(pairs, "expected a list of pairs, not %r")
        pairs = tuple([_tuple_of(pair, "pair %r is not two integers")
                       for pair in pairs])
        # every entry is checked before the shape of any pair
        int_entries(chain.from_iterable(pairs))
        for pair in pairs:
            if len(pair) != 2:
                raise ValueError("pair %r is not two integers" % (list(pair),))
        self._pairs = _admissible(pairs)

    @classmethod
    def _of(cls, pairs):
        """Unchecked: ``pairs`` a tuple of (a, b) int pairs that is an
        M-sequence."""
        seq = object.__new__(cls)
        seq._pairs = pairs
        return seq

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
        # the entries were checked when the sequence was built
        budgets = filter(None, map(itemgetter(1), self._pairs))
        return Partition._of(tuple(sorted(budgets, reverse=True)))

    def rho(self):
        return sum(map(itemgetter(0), self._pairs))

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
    int_entries([k])
    if k < 1:
        raise ValueError("k must be positive")
    if len(lam) > k + 1:
        return []
    out = []
    for bvec in padded_rearrangements(lam, k + 1):
        for avec in admissible_avectors(bvec):
            out.append(MSequence._of(tuple(zip(avec, bvec))))
    return out


def msequence_polynomial(lam, k):
    """Sum of t^rho over the M-sequences for lam and k."""
    if k < 1:
        raise ValueError("k must be positive")
    return generic_polynomial([(1, lam)], k)


def osp_polynomial(n, k):
    """Sum of t^rho over ordered-set-partition sequences (the q=1 Hilbert
    series of the Delta image)."""
    int_entries((n, k))
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    return generic_polynomial(m_expansion("h", [1] * n, k + 1), k)


def ssyt_polynomial(lam, k):
    """Sum of t^weight over tableau sequences (the q=1 Schur coefficient of
    the conjugate shape)."""
    if k < 1:
        raise ValueError("k must be positive")
    return generic_polynomial(m_expansion("s", lam, k + 1), k)
