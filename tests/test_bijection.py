import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from deltaq1 import dyck
from deltaq1.bijection import (
    _path_of,
    _walk,
    decorated_to_msequence,
    msequence_to_decorated,
)
from deltaq1.dyck import DecoratedDyckPath, DyckPath, enumerate_decorated, enumerate_paths
from deltaq1.msequences import MSequence, msequences
from deltaq1.partitions import Partition, partitions_of

FIRST_WORKED = DecoratedDyckPath(DyckPath((0, 1, 2, 3, 2, 3, 4, 2, 1, 2)), [4, 6, 10])
FIRST_IMAGE = ((0, 4), (2, 3), (4, 0), (2, 1), (2, 0), (1, 2), (1, 0), (0, 0))

SECOND_WORKED = DecoratedDyckPath(DyckPath((0, 1, 2, 3, 1, 2, 3, 3, 3, 4)), [0, 3, 6, 10])
SECOND_IMAGE = ((0, 4), (3, 0), (1, 3), (3, 1), (3, 2), (3, 0), (1, 0))


def test_worked_example_with_unlabeled_origin():
    seq = decorated_to_msequence(FIRST_WORKED)
    assert seq.pairs == FIRST_IMAGE
    assert seq.rho() == FIRST_WORKED.decorated_area() == 12
    assert msequence_to_decorated(seq) == FIRST_WORKED


def test_worked_example_with_labeled_origin():
    seq = decorated_to_msequence(SECOND_WORKED)
    assert seq.pairs == SECOND_IMAGE
    assert seq.rho() == SECOND_WORKED.decorated_area() == 14
    assert msequence_to_decorated(seq) == SECOND_WORKED


def test_single_north_step():
    decorated = DecoratedDyckPath(DyckPath([0]), [])
    assert decorated_to_msequence(decorated).pairs == ((0, 1), (0, 0))


def test_inverse_small_cases():
    assert msequence_to_decorated(MSequence([(0, 2), (1, 0)])) == DecoratedDyckPath(
        DyckPath((0, 1)), [0]
    )
    # the b-vector (1,1) leaves no slot for a zero pair, so the origin is
    # forced to carry the single decoration
    assert msequence_to_decorated(MSequence([(0, 1), (0, 1)])) == DecoratedDyckPath(
        DyckPath((0, 0)), [0]
    )
    assert msequence_to_decorated(
        MSequence([(0, 2), (1, 0), (0, 0)])
    ) == DecoratedDyckPath(DyckPath((0, 1)), [])


def test_round_trip_exhaustive():
    for n in range(1, 7):
        for k in range(1, n + 1):
            images = set()
            for decorated in enumerate_decorated(n, k):
                seq = decorated_to_msequence(decorated)
                assert seq.rho() == decorated.decorated_area()
                assert msequence_to_decorated(seq) == decorated
                images.add(seq)
            expected = set()
            for lam in partitions_of(n):
                expected.update(msequences(lam, k))
            assert images == expected


def test_inverse_round_trip_exhaustive():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                for seq in msequences(lam, k):
                    decorated = msequence_to_decorated(seq)
                    assert decorated.path.vertical_run_partition() == lam
                    assert decorated_to_msequence(decorated) == seq


def test_walk_memo_is_keyed_by_path_value():
    # _walk keeps one walk per path value: the enumerated path, a rebuilt
    # path and the walk computed afresh agree, and a caller that mutates the
    # rises of a new path changes neither its walk nor the kept one
    uncached = _walk.__wrapped__
    for n in range(1, 8):
        for path in enumerate_paths(n):
            walk = _walk(path)
            assert isinstance(walk, tuple)
            assert walk == uncached(path) == _walk(DyckPath(path.area_seq))
            fresh = DyckPath(path.area_seq)
            fresh.rises().append(n + 1)
            fresh.rises().clear()
            assert uncached(fresh) == walk == _walk(fresh)


def test_inverse_path_cache_is_keyed_by_the_area_sequence():
    # the inverse rebuilds its path from the segment pairs, through the
    # checking constructor once per segment tuple: the one pooled path of
    # each area sequence, keeping its rises, and a tuple that is no path is
    # refused on every call, never kept
    for n in range(1, 8):
        for path in enumerate_paths(n):
            assert dyck._POOL[path.area_seq] is path
            assert DyckPath(list(path.area_seq)) is path
            segments = tuple((path.alpha(row), length)
                             for row, length in path.runs())
            assert _path_of(segments) is path
            assert _path_of(segments).rises() == path.rises()
    for _ in range(2):
        with pytest.raises(ValueError):
            DyckPath((0, 2))
        with pytest.raises(ValueError):
            _path_of(((0, 1), (2, 1)))
        assert (0, 2) not in dyck._POOL
    # every inverse rebuilds the pooled path whose runs its nonzero pairs
    # describe
    for n in range(1, 7):
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                for seq in msequences(lam, k):
                    alpha = tuple(a + i for a, b in seq.pairs for i in range(b))
                    assert msequence_to_decorated(seq).path is dyck._POOL[alpha]


def test_inverse_results_pass_the_checking_constructor():
    # the inverse builds its result unchecked: its rows are zero pairs of
    # the walk, which are rises, or the origin, so the checking constructor
    # rebuilds every result of n <= 6 equal to it
    for n in range(1, 7):
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                for seq in msequences(lam, k):
                    decorated = msequence_to_decorated(seq)
                    rebuilt = DecoratedDyckPath(decorated.path, decorated.rows)
                    assert rebuilt == decorated
                    assert hash(rebuilt) == hash(decorated)


def test_window_chains_strict():
    # the walk gives every row one pair, and its zero pairs descend strictly
    # between segment pairs: the inverse's greedy match relies on both
    for n in range(1, 7):
        for path in enumerate_paths(n):
            walk = _walk(path)
            assert sorted(row for row, _ in walk) == list(range(1, n + 1))
            # c < a + b: below a segment's top, and below the previous zero
            pairs = [pair for _, pair in walk]
            for (a, b), (c, _) in zip(pairs, pairs[1:]):
                assert c < a + b
    # within each maximal (a,b), (r_1,0), ..., (r_l,0), (c,d) window of an
    # image the diagonals descend strictly, and no two zero pairs coincide
    for n in range(1, 7):
        for k in range(1, n + 1):
            for decorated in enumerate_decorated(n, k):
                pairs = list(decorated_to_msequence(decorated).pairs)
                if pairs[-1] == (0, 0):
                    pairs.pop()
                chain = None
                for a, b in pairs:
                    if b > 0:
                        if chain is not None:
                            assert all(
                                x > y for x, y in zip(chain, chain[1:])
                            )
                            assert len(set(chain[1:])) == len(chain) - 1
                        chain = [a + b]
                    else:
                        chain.append(a)


def test_inverse_rejects_malformed():
    with pytest.raises(ValueError, match="a_2"):
        msequence_to_decorated(MSequence([(0, 1), (5, 0)]))
    with pytest.raises(ValueError, match="a_1"):
        msequence_to_decorated(MSequence([(1, 1), (0, 0)]))
    with pytest.raises(ValueError, match="nothing left"):
        msequence_to_decorated(MSequence([(0, 0)]))


def test_inverse_refuses_non_integers():
    # int() would truncate to [(0, 2), (0, 0)], a valid sequence
    with pytest.raises(TypeError, match="not 2.9$"):
        MSequence([(0, 2.9), (0.7, 0)])
    for pairs in ([(0, True), (0, 0)], [(0, 1), ("0", 0)], [(0, None)]):
        with pytest.raises(TypeError):
            MSequence(pairs)


@st.composite
def msequence_candidates(draw):
    """Pair lists with a_1 = 0, budgets summing to at most 9 and each
    a_{i+1} drawn from 0..a_i + b_i - 1, ending where that range is empty.
    Every valid M-sequence with n <= 9 (at most n + 1 pairs) can be drawn;
    the constructor still decides which candidates are kept."""
    pairs, a, left = [], 0, 9
    for _ in range(draw(st.integers(1, 10))):
        b = draw(st.integers(0, left))
        pairs.append((a, b))
        if a + b == 0:
            break
        a, left = draw(st.integers(0, a + b - 1)), left - b
    return pairs


@given(msequence_candidates())
@settings(max_examples=400, deadline=None)
def test_round_trip_every_valid_msequence(pairs):
    try:
        seq = MSequence(pairs)
    except ValueError:
        reject()
    if not sum(seq.bvec()):
        reject()  # n = 0: no path, rejected by test_inverse_rejects_malformed
    decorated = msequence_to_decorated(seq)
    assert decorated.decorated_area() == seq.rho()
    assert decorated_to_msequence(decorated) == seq
