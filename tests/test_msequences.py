import re
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaq1.dyck import enumerate_decorated
from deltaq1.msequences import (
    MSequence,
    _budget_functional,
    admissible_avectors,
    generic_polynomial,
    m_expansion,
    msequence_polynomial,
    msequences,
    osp_polynomial,
    ssyt_polynomial,
)
from deltaq1.partitions import Partition, padded_rearrangements, partitions_of
from deltaq1.tarith import TPoly


def test_msequence_examples():
    out = msequences([2], 1)
    assert sorted(s.pairs for s in out) == [((0, 2), (0, 0)), ((0, 2), (1, 0))]
    assert msequence_polynomial([2], 1) == TPoly([1, 1])
    assert msequences([1, 1], 1)[0].pairs == ((0, 1), (0, 1))
    assert msequence_polynomial([1, 1], 1) == TPoly([1])
    assert msequence_polynomial([2], 2) == TPoly([0, 1])
    assert msequence_polynomial([1, 1], 2) == TPoly([1])
    assert msequence_polynomial([1], 1) == TPoly([1])
    assert msequences([1, 1, 1], 1) == []
    assert msequence_polynomial([1, 1, 1], 1) == TPoly()


def test_msequence_membership_example():
    seq = MSequence([(0, 4), (2, 3), (4, 0), (2, 1), (2, 0), (1, 2), (1, 0), (0, 0)])
    assert seq.lam() == Partition([4, 3, 2, 1])
    assert seq.k == 7
    assert seq.rho() == 12


def test_msequence_validation():
    with pytest.raises(ValueError, match="a_1"):
        MSequence([(1, 2), (0, 0)])
    with pytest.raises(ValueError, match="a_2"):
        MSequence([(0, 2), (2, 0)])
    with pytest.raises(ValueError):
        MSequence([(0, 2), (-1, 0)])
    # the first rule broken names the error: pairs that are not a sequence,
    # a pair that is not one, an entry that is not an int, a pair of another
    # length, an empty sequence, a negative entry, a_1 != 0, then the first
    # a_{i+1} >= a_i + b_i, with its index
    cases = [
        (None, TypeError, "^expected a list of pairs, not None$"),
        ([(0, 1), 0, (0, 1.0)], TypeError, "^pair 0 is not two integers$"),
        ([(0, 1), None], TypeError, "^pair None is not two integers$"),
        ([(0, 1), (2,), (0, 1.0)], TypeError, "1.0"),
        ([(0, 1), (2,)], ValueError, r"^pair \[2\] is not two integers$"),
        ([(0, 1, 2)], ValueError, r"^pair \[0, 1, 2\] is not two integers$"),
        ([(0, -1), (2,)], ValueError, r"^pair \[2\] is not two integers$"),
        ([], ValueError, "^empty sequence$"),
        ([(1, 0), (0, -1)], ValueError,
         r"^entries must be nonnegative, got \(0, -1\)$"),
        ([(1, 2), (5, 0)], ValueError, r"^a_1 = 1 violates a_1 = 0$"),
        ([(0, 2), (1, 1), (2, 0), (9, 0)], ValueError,
         r"^a_3 = 2 violates a_3 < a_2 \+ b_2 = 2$"),
        ([(0, 1), (0, 3), (2, 1), (3, 0)], ValueError,
         r"^a_4 = 3 violates a_4 < a_3 \+ b_3 = 3$"),
    ]
    for pairs, error, message in cases:
        with pytest.raises(error, match=message):
            MSequence(pairs)
    assert MSequence([(0, 1), (0, 3), (2, 1), (2, 0)]).pairs == (
        (0, 1), (0, 3), (2, 1), (2, 0))


def test_enumerated_msequences_are_valid():
    # msequences builds through the unchecked MSequence._of; each sequence
    # rebuilds through the checking constructor, equal and with an equal
    # hash (a list where a tuple belongs would hash differently or not at all)
    for n in range(1, 7):
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                for seq in msequences(lam, k):
                    rebuilt = MSequence(seq.pairs)
                    assert rebuilt == seq and hash(rebuilt) == hash(seq)
                    assert rebuilt.lam() == lam


def test_enumerated_msequences_reject_upward_mutation():
    for lam in partitions_of(4):
        for k in (1, 2, 3):
            for seq in msequences(lam, k):
                pairs = list(seq.pairs)
                for i in range(1, len(pairs)):
                    a_prev, b_prev = pairs[i - 1]
                    bumped = list(pairs)
                    bumped[i] = (a_prev + b_prev, pairs[i][1])
                    with pytest.raises(ValueError):
                        MSequence(bumped)


def test_polynomial_matches_enumeration():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                poly = TPoly()
                for seq in msequences(lam, k):
                    poly = poly + TPoly.t_power(seq.rho())
                assert poly == msequence_polynomial(lam, k)


def test_counts_match_decorated_paths():
    # at t=1 the M-sequence count equals the decorated path count
    for n in range(1, 8):
        for k in range(1, n + 1):
            expected = Counter(d.path.vertical_run_partition()
                               for d in enumerate_decorated(n, k))
            for lam in partitions_of(n):
                assert len(msequences(lam, k)) == expected[lam]


@pytest.mark.parametrize(
    "n, k, coeffs", [(1, 1, [1]), (2, 1, [3, 1]), (2, 2, [2, 1])]
)
def test_osp_polynomial_examples(n, k, coeffs):
    # (2, 2) matches the eigenoperator inner product 2 + t
    assert osp_polynomial(n, k) == TPoly(coeffs)


@pytest.mark.parametrize(
    "lam, k, coeffs", [([2], 1, [2, 1]), ([1, 1], 1, [1]), ([1], 1, [1])]
)
def test_ssyt_polynomial_examples(lam, k, coeffs):
    assert ssyt_polynomial(lam, k) == TPoly(coeffs)


def ssyt_fillings(lam, max_entry):
    """Semistandard fillings of lam with entries in 1..max_entry, as tuples
    of row tuples, enumerated in row-major lexicographic order."""
    rows = Partition(lam).parts
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


def test_ssyt_fillings():
    assert ssyt_fillings(Partition([2]), 2) == [((1, 1),), ((1, 2),), ((2, 2),)]
    assert ssyt_fillings(Partition([1, 1]), 2) == [((1,), (2,))]
    assert ssyt_fillings(Partition([1, 1, 1]), 2) == []
    # hook content counts match the classical dimension count
    assert len(ssyt_fillings(Partition([2, 1]), 3)) == 8


def test_osp_validation():
    for n, k in ((2, 0), (2, 3), (0, 1)):
        with pytest.raises(ValueError, match="^need 1 <= k <= n$"):
            osp_polynomial(n, k)


def test_ssyt_validation():
    for lam, k in (([1], 0), ([2], -1)):
        with pytest.raises(ValueError, match="k must be positive"):
            ssyt_polynomial(lam, k)


def test_bool_degrees_are_refused():
    # isinstance(True, int) holds, but True is no degree: osp_polynomial(True,
    # True) gave 1 and msequence_polynomial([2], True) gave 1 + t
    calls = [
        lambda: generic_polynomial([(1, [2])], True),
        lambda: msequences([2], True),
        lambda: msequence_polynomial([2], True),
        lambda: osp_polynomial(True, True),
        lambda: osp_polynomial(2, True),
        lambda: osp_polynomial(True, 1),
        lambda: ssyt_polynomial([2], True),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="not True$"):
            call()


def test_generic_polynomial_examples():
    assert generic_polynomial([(1, [2])], 1) == TPoly([1, 1])
    # p_1^2 = m_2 + 2 m_11
    assert generic_polynomial([(1, [2]), (2, [1, 1])], 1) == TPoly([3, 1])
    assert generic_polynomial([], 1) == TPoly()
    # m_111 vanishes in k+1 = 2 variables
    assert generic_polynomial([(1, [1, 1, 1])], 1) == TPoly()
    # a bool is no integer coefficient, though isinstance(True, int) holds
    for coeff in (True, Fraction(1, 2)):
        with pytest.raises(TypeError, match=re.escape("not %r" % (coeff,))):
            generic_polynomial([(coeff, (1,))], 1)
    # each L_k(m_mu) is computed once and then read back
    _budget_functional.cache_clear()
    generic_polynomial([(3, [2]), (1, [2])], 1)
    info = _budget_functional.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _vectors(total, nvars, top):
    """Exponent vectors of length nvars, entries at most top, summing to
    total."""
    if nvars == 0:
        return [()] if total == 0 else []
    return [(x,) + rest for x in range(min(top, total) + 1)
            for rest in _vectors(total - x, nvars - 1, top)]


def _multiply_out(factors, nvars):
    """Exponent vector -> coefficient of a product of sums of monomials,
    each factor a list of exponent vectors."""
    acc = {(0,) * nvars: 1}
    for factor in factors:
        out = {}
        for exps, coeff in acc.items():
            for more in factor:
                key = tuple(map(add, exps, more))
                out[key] = out.get(key, 0) + coeff
        acc = out
    return acc


def brute_monomials(basis, lam, nvars):
    """The monomial expansion in nvars variables of m_lam, e_lam, h_lam,
    s_lam or (basis "p") p_1^|lam|, term by term."""
    lam = Partition(lam)
    if basis == "m":
        return {e: 1 for e in _vectors(lam.size, nvars, lam.size)
                if Partition(e) == lam}
    if basis == "s":
        out = {}
        for tableau in ssyt_fillings(lam, nvars):
            content = tableau_content(tableau, nvars)
            out[content] = out.get(content, 0) + 1
        return out
    if basis == "p":
        return _multiply_out([_vectors(1, nvars, 1)] * lam.size, nvars)
    top = {"e": lambda part: 1, "h": lambda part: part}[basis]
    return _multiply_out([_vectors(part, nvars, top(part)) for part in lam],
                         nvars)


def test_generic_polynomial_specializes():
    # the engine against a direct sum over admissible vectors, for every
    # monomial expansion the models and the expand command use
    def direct(monomials):
        acc = TPoly()
        for exps, coeff in monomials.items():
            for avec in admissible_avectors(exps):
                acc = acc + coeff * TPoly.t_power(sum(avec))
        return acc

    for n in range(1, 6):
        for k in range(1, n + 1):
            assert osp_polynomial(n, k) == direct(
                brute_monomials("p", [1] * n, k + 1))
            for lam in partitions_of(n):
                for basis in "mseh":
                    assert generic_polynomial(
                        m_expansion(basis, lam, k + 1), k
                    ) == direct(brute_monomials(basis, lam, k + 1))
                assert ssyt_polynomial(lam, k) == direct(
                    brute_monomials("s", lam, k + 1))


def test_monomial_expansions_are_symmetric_sums():
    assert m_expansion("e", [2, 1], 3) == [(1, Partition([2, 1])),
                                           (3, Partition([1, 1, 1]))]
    assert m_expansion("h", [2], 2) == [(1, Partition([2])),
                                        (1, Partition([1, 1]))]
    assert m_expansion("s", [2, 1], 2) == [(1, Partition([2, 1]))]
    assert m_expansion("m", [1, 1, 1], 2) == []
    # each coefficient of m_mu is that of x^mu in the brute-force expansion
    for n in range(1, 6):
        for nvars in range(1, n + 2):
            for lam in partitions_of(n):
                for basis in "mseh":
                    brute = brute_monomials(basis, lam, nvars)
                    expected = {Partition(e): c for e, c in brute.items()
                                if list(e) == sorted(e, reverse=True)}
                    got = m_expansion(basis, lam, nvars)
                    assert {mu: c for c, mu in got} == expected


def test_json():
    seq = MSequence([(0, 2), (1, 0)])
    assert seq.to_json() == {"pairs": [[0, 2], [1, 0]]}
    assert MSequence.from_json(seq.to_json()) == seq


def test_admissible_avectors_are_the_lexicographic_filter():
    # every vector of a box that holds each admissible one (a_i is at most
    # b_1 + ... + b_{i-1}), filtered by the rule.  Up to length 5 many
    # b-vectors have a proper prefix with no admissible vector, where the
    # enumeration stops early
    dead_prefixes = 0
    for length in range(1, 6):
        for bvec in product(range(4), repeat=length):
            box = [range(sum(bvec[:i]) + 1) for i in range(length)]
            brute = [
                avec for avec in product(*box)
                if avec[0] == 0
                and all(avec[i + 1] < avec[i] + bvec[i] for i in range(length - 1))
            ]
            assert admissible_avectors(bvec) == brute
            dead_prefixes += length > 2 and not admissible_avectors(bvec[:-1])
    assert dead_prefixes


partitions = st.lists(st.integers(1, 3), min_size=1, max_size=5).map(Partition)


@given(partitions, st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_avector_polynomial_counts(mu, k):
    # L_k(m_mu) at t = 1 counts the admissible vectors of every ordering
    count = 0
    if len(mu) <= k + 1:
        for bvec in padded_rearrangements(mu, k + 1):
            vectors = admissible_avectors(bvec)
            count += len(vectors)
            for avec in vectors:
                assert avec[0] == 0
                for i in range(len(avec) - 1):
                    assert avec[i + 1] < avec[i] + bvec[i]
    assert _budget_functional(mu, k)(1) == count
