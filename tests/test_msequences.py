from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaq1.dyck import enumerate_decorated
from deltaq1.msequences import (
    MSequence,
    OSPSequence,
    SSYTSequence,
    admissible_avectors,
    generic_polynomial,
    monomials_of_e,
    monomials_of_h,
    monomials_of_m,
    monomials_of_p1n,
    monomials_of_s,
    msequence_polynomial,
    msequences,
    osp_polynomial,
    osp_sequences,
    ssyt_fillings,
    ssyt_polynomial,
    ssyt_sequences,
)
from deltaq1.partitions import Partition, partitions_of
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
            for lam in partitions_of(n):
                expected = len(enumerate_decorated(n, k, lam=lam))
                assert len(msequences(lam, k)) == expected


@pytest.mark.parametrize(
    "n, k, coeffs", [(1, 1, [1]), (2, 1, [3, 1]), (2, 2, [2, 1])]
)
def test_osp_polynomial_examples(n, k, coeffs):
    # (2, 2) matches the eigenoperator inner product 2 + t
    assert osp_polynomial(n, k) == TPoly(coeffs)


def test_osp_sequences_consistent():
    for n in range(1, 5):
        for k in range(1, n + 1):
            seqs = osp_sequences(n, k)
            poly = TPoly()
            for s in seqs:
                poly = poly + TPoly.t_power(s.rho())
            assert poly == osp_polynomial(n, k)
            assert len(set(seqs)) == len(seqs)


def test_osp_validation():
    with pytest.raises(ValueError):
        OSPSequence([(0, {1}), (0, {1})])
    with pytest.raises(ValueError):
        OSPSequence([(0, {1}), (1, {3})])
    with pytest.raises(ValueError):
        OSPSequence([(0, {1, 2}), (2, set())])


def test_enumerated_osp_reject_upward_mutation():
    for n, k in ((2, 1), (3, 2)):
        for seq in osp_sequences(n, k):
            pairs = list(seq.pairs)
            for i in range(1, len(pairs)):
                a_prev, block_prev = pairs[i - 1]
                bumped = list(pairs)
                bumped[i] = (a_prev + len(block_prev), pairs[i][1])
                with pytest.raises(ValueError):
                    OSPSequence(bumped)


def test_enumerated_ssyt_reject_upward_mutation():
    for lam in partitions_of(3):
        for k in (1, 2):
            for seq in ssyt_sequences(lam, k):
                from deltaq1.msequences import tableau_content

                content = tableau_content(seq.tableau, k + 1)
                for i in range(1, k + 1):
                    bumped = list(seq.avec)
                    bumped[i] = bumped[i - 1] + content[i - 1]
                    with pytest.raises(ValueError):
                        SSYTSequence(seq.tableau, bumped, k)


@pytest.mark.parametrize(
    "lam, k, coeffs", [([2], 1, [2, 1]), ([1, 1], 1, [1]), ([1], 1, [1])]
)
def test_ssyt_polynomial_examples(lam, k, coeffs):
    assert ssyt_polynomial(lam, k) == TPoly(coeffs)


def test_ssyt_fillings():
    assert ssyt_fillings(Partition([2]), 2) == [((1, 1),), ((1, 2),), ((2, 2),)]
    assert ssyt_fillings(Partition([1, 1]), 2) == [((1,), (2,))]
    assert ssyt_fillings(Partition([1, 1, 1]), 2) == []
    # hook content counts match the classical dimension count
    assert len(ssyt_fillings(Partition([2, 1]), 3)) == 8


def test_ssyt_sequences_consistent():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                seqs = ssyt_sequences(lam, k)
                poly = TPoly()
                for s in seqs:
                    poly = poly + TPoly.t_power(s.weight())
                assert poly == ssyt_polynomial(lam, k)


def test_ssyt_validation():
    with pytest.raises(ValueError):
        SSYTSequence(((2, 1),), (0, 0), 1)
    with pytest.raises(ValueError):
        SSYTSequence(((1, 1), (1,)), (0, 0), 1)
    with pytest.raises(ValueError):
        SSYTSequence(((1, 2),), (0, 1), 1)  # a_2 < c_1 = 1 fails


def test_generic_polynomial_examples():
    assert generic_polynomial(monomials_of_m([2], 2), 1) == TPoly([1, 1])
    assert generic_polynomial(monomials_of_p1n(2, 2), 1) == TPoly([3, 1])
    assert generic_polynomial([], 1) == TPoly()
    with pytest.raises(TypeError):
        generic_polynomial([(Fraction(1, 2), (2, 0))], 1)
    with pytest.raises(ValueError):
        generic_polynomial([(1, (2, 0))], 2)


def test_generic_polynomial_specializes():
    # the engine against a direct sum over admissible vectors, for every
    # monomial expansion the models and the expand command use
    def direct(monomials):
        acc = TPoly()
        for coeff, exps in monomials:
            for avec in admissible_avectors(exps):
                acc = acc + coeff * TPoly.t_power(sum(avec))
        return acc

    for n in range(1, 6):
        for k in range(1, n + 1):
            expansion = monomials_of_p1n(n, k + 1)
            assert generic_polynomial(expansion, k) == direct(expansion)
            for lam in partitions_of(n):
                for expand in (monomials_of_m, monomials_of_s, monomials_of_e,
                               monomials_of_h):
                    expansion = expand(lam, k + 1)
                    assert generic_polynomial(expansion, k) == direct(expansion)


def test_monomial_expansions_are_symmetric_sums():
    # total monomial coefficients evaluate the function at all-ones
    assert sum(c for c, _ in monomials_of_e([2, 1], 3)) == 9  # e_2 e_1 at x=1^3
    assert sum(c for c, _ in monomials_of_h([2], 2)) == 3
    assert sum(c for c, _ in monomials_of_p1n(3, 2)) == 8
    assert sum(c for c, _ in monomials_of_s([2, 1], 3)) == 8


def test_json():
    seq = MSequence([(0, 2), (1, 0)])
    assert seq.to_json() == {"pairs": [[0, 2], [1, 0]]}
    assert MSequence.from_json(seq.to_json()) == seq
    osp = OSPSequence([(0, {2, 1}), (1, set())])
    assert osp.to_json() == {"pairs": [[0, [1, 2]], [1, []]]}


bvecs = st.lists(st.integers(0, 3), min_size=2, max_size=5).filter(
    lambda b: b[0] > 0
)


@given(bvecs)
@settings(max_examples=50, deadline=None)
def test_avector_polynomial_counts(bvec):
    from deltaq1.msequences import _avector_polynomial

    vectors = admissible_avectors(tuple(bvec))
    poly = _avector_polynomial(tuple(bvec))
    assert len(vectors) == poly(1)
    for avec in vectors:
        assert avec[0] == 0
        for i in range(len(avec) - 1):
            assert avec[i + 1] < avec[i] + bvec[i]
