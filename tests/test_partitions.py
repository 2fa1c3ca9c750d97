from itertools import combinations_with_replacement, permutations

import pytest

from deltaq1.partitions import (
    Partition,
    distinct_orderings,
    padded_rearrangements,
    partitions_of,
    rearrangement_count,
    zee,
)


def test_normalization():
    assert Partition([1, 3, 0, 2]).parts == (3, 2, 1)
    assert Partition().parts == ()
    assert Partition([2, 2]).size == 4
    with pytest.raises(ValueError):
        Partition([2, -1])


@pytest.mark.parametrize("bad", [2.5, True, "3"])
def test_partition_refuses_non_integers(bad):
    # Partition([2.5, 1]) used to read as Partition([2, 1]), and True as 1
    with pytest.raises(TypeError):
        Partition([bad, 1])


def test_partitions_of_order_and_counts():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(3)] == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(5)) == 7
    # lexicographically decreasing throughout
    for n in range(9):
        seq = [p.parts for p in partitions_of(n)]
        assert seq == sorted(seq, reverse=True)
        assert len(set(seq)) == len(seq)


def test_partitions_of_max_part():
    assert [p.parts for p in partitions_of(4, max_part=2)] == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(0, max_part=0) == [Partition()]
    assert partitions_of(3, max_part=0) == []


@pytest.mark.parametrize(
    "before, after",
    [([], []), ([3, 2, 2, 1], [4, 3, 1]), ([1, 1, 1], [3])],
)
def test_conjugate_examples(before, after):
    assert Partition(before).conjugate() == Partition(after)


def test_conjugate_is_involution():
    for n in range(13):
        for lam in partitions_of(n):
            assert lam.conjugate().conjugate() == lam


@pytest.mark.parametrize(
    "mu, count", [([1, 1, 1], 1), ([2, 1], 2), ([2, 2, 1], 3)]
)
def test_rearrangement_count_examples(mu, count):
    assert rearrangement_count(Partition(mu)) == count


def test_rearrangement_count_vs_enumeration():
    for n in range(9):
        for mu in partitions_of(n):
            explicit = set(permutations(mu.parts))
            assert rearrangement_count(mu) == len(explicit)
            assert set(distinct_orderings(mu.parts)) == explicit


def test_distinct_orderings_order_on_multisets():
    # the previous-permutation step against the sorted distinct
    # permutations, on the empty multiset, all-equal ones and mixed ones up
    # to length 8
    cases = [(), (3,), (0, 0, 0, 0, 0, 0, 0, 0), (8, 7, 6, 5, 4, 3, 2, 1),
             (2, 2, 1, 1, 0, 0, 0, 0), (5, 1, 1, 1, 1, 1, 1, 0)]
    cases += list(combinations_with_replacement(range(3), 6))
    for values in cases:
        expected = sorted(set(permutations(values)), reverse=True)
        assert distinct_orderings(values) == expected
        assert distinct_orderings(reversed(values)) == expected


def test_padded_rearrangements():
    assert padded_rearrangements(Partition([1]), 2) == [(1, 0), (0, 1)]
    assert padded_rearrangements(Partition([2]), 2) == [(2, 0), (0, 2)]
    assert padded_rearrangements(Partition([1, 1]), 2) == [(1, 1)]
    with pytest.raises(ValueError):
        padded_rearrangements(Partition([1, 1, 1]), 2)


def test_padded_rearrangements_distinct_and_complete():
    for lam in partitions_of(4):
        for m in range(len(lam), 7):
            out = padded_rearrangements(lam, m)
            assert len(set(out)) == len(out)
            padded = lam.parts + (0,) * (m - len(lam))
            assert set(out) == set(permutations(padded))


@pytest.mark.parametrize(
    "mu, value, result",
    [([2, 1], 2, [1]), ([2, 2, 1], 2, [2, 1]), ([3], 3, [])],
)
def test_remove(mu, value, result):
    assert Partition(mu).remove(value) == Partition(result)


def test_remove_absent_part():
    with pytest.raises(ValueError):
        Partition([2, 1]).remove(3)


def test_multiplicities_sum_to_length():
    for n in range(9):
        for mu in partitions_of(n):
            assert sum(mu.multiplicities().values()) == len(mu)


def test_zee():
    assert zee(Partition()) == 1
    assert zee(Partition([1, 1])) == 2
    assert zee(Partition([2])) == 2
    assert zee(Partition([3, 1, 1])) == 6


def test_json_round_trip():
    lam = Partition([3, 2, 2, 1])
    assert Partition.from_json(lam.to_json()) == lam
    assert lam.to_json() == [3, 2, 2, 1]
