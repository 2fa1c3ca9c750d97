import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from deltaq1.bijection import decorated_to_msequence, msequence_to_decorated
from deltaq1.dyck import DecoratedDyckPath, DyckPath, enumerate_decorated
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


def test_window_chains_strict():
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
        msequence_to_decorated([(0, 1), (5, 0)])
    with pytest.raises(ValueError, match="a_1"):
        msequence_to_decorated([(1, 1), (0, 0)])
    with pytest.raises(ValueError):
        msequence_to_decorated([(0, 0)])


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
