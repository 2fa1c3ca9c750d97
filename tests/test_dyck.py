from itertools import combinations
from math import comb

import pytest

from deltaq1 import dyck
from deltaq1.dyck import (
    DecoratedDyckPath,
    DyckPath,
    decoration_weights,
    enumerate_decorated,
    enumerate_paths,
)
from deltaq1.partitions import Partition
from deltaq1.tarith import ONE, TPoly


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def test_path_validation():
    with pytest.raises(ValueError):
        DyckPath([1])
    with pytest.raises(ValueError):
        DyckPath([0, 2])
    with pytest.raises(ValueError):
        DyckPath([0, 1, -1])
    with pytest.raises(ValueError):
        DyckPath([])


def test_constructors_refuse_non_integers():
    # int() would truncate 1.9 and read True as 1, giving another path
    for area in ([0, 1.9], [0, True], [0, "1"], [0.0]):
        with pytest.raises(TypeError):
            DyckPath(area)
    path = DyckPath([0, 1])
    for rows in ([2.0], [True], [None]):
        with pytest.raises(TypeError):
            DecoratedDyckPath(path, rows)


def test_enumerate_paths():
    assert [p.area_seq for p in enumerate_paths(1)] == [(0,)]
    assert [p.area_seq for p in enumerate_paths(2)] == [(0, 0), (0, 1)]
    for n in range(1, 8):
        paths = enumerate_paths(n)
        assert len(paths) == catalan(n)
        assert len(set(paths)) == len(paths)


def test_vertical_run_partition_examples():
    assert DyckPath((0, 1, 2, 2, 1, 2, 1, 2)).vertical_run_partition() == Partition(
        [3, 2, 2, 1]
    )
    assert DyckPath((0,) * 6).vertical_run_partition() == Partition([1] * 6)
    assert DyckPath(range(6)).vertical_run_partition() == Partition([6])


def test_runs_cover_rows():
    for path in enumerate_paths(6):
        total = sum(length for _, length in path.runs())
        assert total == path.n
        assert path.vertical_run_partition().size == path.n


def test_decoration_weight_examples():
    # one decoration: the origin (area kept) or row 2 (its cell discounted)
    assert decoration_weights(DyckPath((0, 0)), 1)[1] == ONE
    assert decoration_weights(DyckPath((0, 1)), 1)[1] == TPoly([1, 1])
    for path in enumerate_paths(4):
        assert decoration_weights(path, 0)[0] == TPoly.t_power(path.area())
        assert decoration_weights(path, path.n + 1)[path.n + 1].is_zero()


def test_first_row_never_decorable():
    for n in range(1, 7):
        for path in enumerate_paths(n):
            assert 1 not in path.rises()


def test_decorated_validation_and_area():
    path = DyckPath((0, 1, 2, 2, 1, 2, 1, 2))
    decorated = DecoratedDyckPath(path, [0, 3, 8])
    assert decorated.decorated_area() == 7
    with pytest.raises(ValueError):
        DecoratedDyckPath(path, [1])
    with pytest.raises(ValueError):
        DecoratedDyckPath(path, [4])  # alpha_3 = 2 is not alpha_4 - 1


def test_enumerate_decorated_examples():
    out = [d for d in enumerate_decorated(2, 1)
           if d.path.vertical_run_partition() == Partition([2])]
    weights = sorted(d.decorated_area() for d in out)
    assert weights == [0, 1]
    assert {frozenset(d.rows) for d in out} == {frozenset([0]), frozenset([2])}
    # k = n means no decorations at all
    for d in enumerate_decorated(3, 3):
        assert d.rows == frozenset()


def test_enumerated_decorated_paths_are_valid():
    # enumerate_paths and enumerate_decorated build through the unchecked
    # _of; each object rebuilds through the checking constructors, equal, with
    # an equal hash, and with the rises and runs of its rebuild
    for n in range(1, 7):
        for k in range(1, n + 1):
            for decorated in enumerate_decorated(n, k):
                path = DyckPath(decorated.path.area_seq)
                rebuilt = DecoratedDyckPath(path, decorated.decorations())
                assert rebuilt == decorated and hash(rebuilt) == hash(decorated)
                assert decorated.path.rises() == path.rises()
                assert decorated.path.runs() == path.runs()


def test_every_path_is_the_pooled_path_of_its_area_sequence():
    # the checking constructor, the unchecked _of, the enumeration and the
    # JSON reader give the one path of each area sequence, so a path
    # compares and hashes by identity
    for n in range(1, 7):
        for path in enumerate_paths(n):
            alpha = path.area_seq
            assert DyckPath(alpha) is DyckPath(list(alpha)) is path
            assert DyckPath._of(alpha) is path is dyck._POOL[alpha]
            data = {"area_seq": list(alpha), "decorated_rows": []}
            assert DecoratedDyckPath.from_json(data).path is path
    assert "__eq__" not in vars(DyckPath) and "__hash__" not in vars(DyckPath)
    # the entries are checked before the pool is read: (0, True) equals the
    # pooled (0, 1) as a tuple, and is still refused
    assert DyckPath((0, 1)) is dyck._POOL[(0, 1)]
    for area in ((0, True), (True,), (0, 1.0)):
        with pytest.raises(TypeError):
            DyckPath(area)
    # an invalid sequence raises on every call and is never pooled
    for area in ((0, 2), (1,), (0, 1, -1)):
        for _ in range(2):
            with pytest.raises(ValueError):
                DyckPath(area)
            assert area not in dyck._POOL


def test_kept_rises_and_runs_are_copied_out():
    # a path keeps its rises and runs; what a caller gets is its own list
    for path in enumerate_paths(5):
        path.rises().append(0)
        path.runs().clear()
        rebuilt = DyckPath(path.area_seq)
        assert path.rises() == rebuilt.rises()
        assert path.runs() == rebuilt.runs()
        assert path.run_starts() == [s for s, _ in rebuilt.runs()]
        assert path.vertical_run_partition() == Partition(
            length for _, length in path.runs())
        assert path.vertical_run_partition() is path.vertical_run_partition()
    assert enumerate_paths(5) is enumerate_paths(5)


def test_decorated_area_nonnegative():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for d in enumerate_decorated(n, k):
                assert d.decorated_area() >= 0


def test_decoration_weight_matches_enumeration():
    # entry j enumerates the decoration sets of size j by decorated area
    for n in range(1, 7):
        for path in enumerate_paths(n):
            candidates = [0] + path.rises()
            for j in range(len(candidates) + 2):
                total = TPoly()
                for rows in combinations(candidates, j):
                    decorated = DecoratedDyckPath(path, rows)
                    total = total + TPoly.t_power(decorated.decorated_area())
                assert total == decoration_weights(path, j)[j]


def test_json_round_trip():
    decorated = DecoratedDyckPath(DyckPath((0, 1, 1)), [2])
    data = decorated.to_json()
    assert data == {"area_seq": [0, 1, 1], "decorated_rows": [2]}
    assert DecoratedDyckPath.from_json(data) == decorated
