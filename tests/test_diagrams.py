import ast
import hashlib
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations_with_replacement

import pytest

import deltaq1
from deltaq1.diagrams import (
    ColumnStack,
    LabeledDiagram,
    _move,
    _size_tuples,
    _stack_walk,
    can_combine,
    combine,
    diagram_count,
    diagrams_of_weight,
    diagrams_up_to,
    fixed_to_msequence,
    involution,
    split,
)
from deltaq1.msequences import msequence_polynomial, msequences
from deltaq1.partitions import Partition, parity_sign, partitions_of
from deltaq1.verify import _MAX_K


def test_stack_weight_without_labels():
    # sequence ((2,1,1,1), (0), (2,1,1), (1,1,1,1)) has total size 13
    sizes = [
        ColumnStack(2, [2, 1, 1, 1], (0, 0)).above.size,
        ColumnStack(1, [], (0,)).above.size,
        ColumnStack(3, [2, 1, 1], (0, 0, 0)).above.size,
        ColumnStack(2, [1, 1, 1, 1], (0, 0)).above.size,
    ]
    assert sum(sizes) == 13


def test_labeled_weight_example():
    stacks = [
        ColumnStack(2, [1, 1, 1], (0, 2)),
        ColumnStack(1, [1], (5,)),
        ColumnStack(4, [3, 2, 2, 1], (1, 3, 0, 3)),
        ColumnStack(2, [2, 2, 1], (0, 1)),
    ]
    diagram = LabeledDiagram(stacks, Partition([5, 3, 3, 2, 1, 1]))
    assert diagram.weight() == 32
    assert diagram.sign() == -1


def test_all_labels_leftmost_weightless():
    stacks = [
        ColumnStack(2, [], (2, 0)),
        ColumnStack(1, [], (1,)),
    ]
    diagram = LabeledDiagram(stacks, Partition([2, 1]))
    assert diagram.weight() == 0


def test_stack_validation():
    with pytest.raises(ValueError):
        ColumnStack(2, [3], (0, 0))
    with pytest.raises(ValueError):
        ColumnStack(2, [], (0,))
    with pytest.raises(ValueError):
        ColumnStack(1, [], (-1,))
    with pytest.raises(ValueError):
        LabeledDiagram([ColumnStack(2, [2], (0, 0))], Partition())
    with pytest.raises(ValueError):
        LabeledDiagram([ColumnStack(1, [], (3,))], Partition([2]))


def test_stack_refuses_non_integers():
    # int() would truncate each of these to a valid stack
    for row_len, labels in ((1.0, (0,)), (True, (0,)), (2, (0, 1.5)),
                            (1, (True,)), ("1", (0,))):
        with pytest.raises(TypeError):
            ColumnStack(row_len, [], labels)


def _example_pair():
    lam = Partition([2, 1])
    first = ColumnStack(1, [], (0,))
    wide = ColumnStack(4, [4, 4, 2, 1], (0, 1, 0, 2))
    return LabeledDiagram([first, wide], lam)


def test_split_example():
    diagram = _example_pair()
    out = split(diagram, 1)
    assert out.stacks[1] == ColumnStack(1, [1, 1], (2,))
    assert out.stacks[2] == ColumnStack(3, [3, 3, 3, 3, 2, 1], (0, 1, 0))
    assert out.weight() == diagram.weight() == 18
    assert out.sign() == -diagram.sign()
    assert combine(out, 1) == diagram


def test_split_trivial():
    diagram = LabeledDiagram([ColumnStack(2, [], (0, 0))], Partition())
    out = split(diagram, 0)
    assert [st.to_json() for st in out.stacks] == [
        {"row_len": 1, "above": [], "labels": [0]},
        {"row_len": 1, "above": [], "labels": [0]},
    ]
    assert combine(out, 0) == diagram
    with pytest.raises(ValueError):
        split(out, 0)


def test_can_combine_examples():
    lam = Partition([2, 1])
    first = ColumnStack(1, [], (0,))
    col = ColumnStack(1, [1, 1], (2,))
    short = ColumnStack(3, [3, 3, 2, 1], (0, 1, 0))
    tall = ColumnStack(3, [3, 3, 3, 3, 2, 1], (0, 1, 0))
    assert can_combine(LabeledDiagram([first, col, short], lam), 1) is False
    assert can_combine(LabeledDiagram([first, col, tall], lam), 1) is True
    empty_pair = LabeledDiagram(
        [ColumnStack(1, [], (0,)), ColumnStack(1, [], (0,))], Partition()
    )
    assert can_combine(empty_pair, 0) is True
    with pytest.raises(IndexError):
        can_combine(empty_pair, 1)
    wide_at_one = LabeledDiagram(
        [first, short, ColumnStack(1, [], (0,))], Partition([1])
    )
    with pytest.raises(ValueError):
        can_combine(wide_at_one, 1)


def test_split_and_combine_refuse_indices_out_of_range():
    # a negative index used to reach the unchecked constructors: split(d, -1)
    # built stacks of another weight, and combine(d, -1) merged the last
    # stack with the first
    one = LabeledDiagram(
        [ColumnStack(1, [], (0,)), ColumnStack(2, [], (0, 1))], Partition([1])
    )
    pair = LabeledDiagram(
        [ColumnStack(1, [], (0,)), ColumnStack(1, [], (0,))], Partition()
    )
    for i in (-3, -1, 2, 3):
        with pytest.raises(IndexError):
            split(one, i)
    for i in (-3, -2, -1, 1, 2):
        with pytest.raises(IndexError):
            can_combine(pair, i)
        with pytest.raises(IndexError):
            combine(pair, i)
    assert split(one, 1).weight() == one.weight()
    assert len(combine(pair, 0).stacks) == 1


def test_combine_requires_precondition():
    lam = Partition([2, 1])
    bad = LabeledDiagram(
        [
            ColumnStack(1, [], (0,)),
            ColumnStack(1, [1, 1], (2,)),
            ColumnStack(3, [3, 3, 2, 1], (0, 1, 0)),
        ],
        lam,
    )
    with pytest.raises(ValueError):
        combine(bad, 1)


def test_round_trip_on_enumerated_diagrams():
    for k in (1, 2, 3):
        for n in range(1, 4):
            for lam in partitions_of(n):
                for diagram in diagrams_up_to(k, lam, 4):
                    for i, st in enumerate(diagram.stacks):
                        if st.row_len > 1:
                            assert combine(split(diagram, i), i) == diagram
                        elif i + 1 < len(diagram.stacks) and can_combine(
                            diagram, i
                        ):
                            assert split(combine(diagram, i), i) == diagram


def test_involution_pairs_and_cancels():
    for k in (1, 2, 3):
        for n in range(1, 5):
            for lam in partitions_of(n):
                poly = msequence_polynomial(lam, k)
                signed = [0] * 7
                fixed = [[] for _ in range(7)]
                for diagram in diagrams_up_to(k, lam, 6):
                    d = diagram.weight()
                    signed[d] += diagram.sign()
                    partner = involution(diagram)
                    if partner is None:
                        assert all(st.row_len == 1 for st in diagram.stacks)
                        fixed[d].append(fixed_to_msequence(diagram))
                    else:
                        assert partner.weight() == diagram.weight()
                        assert partner.sign() == -diagram.sign()
                        assert involution(partner) == diagram
                for d in range(7):
                    assert signed[d] == poly.coeff(d)
                    expected = sorted(
                        s.pairs for s in msequences(lam, k) if s.rho() == d
                    )
                    assert sorted(s.pairs for s in fixed[d]) == expected


def test_fixed_points_weights():
    for k in (1, 2, 3):
        for n in range(1, 5):
            for lam in partitions_of(n):
                for diagram in diagrams_up_to(k, lam, 5):
                    if involution(diagram) is None:
                        seq = fixed_to_msequence(diagram)
                        assert seq.rho() == diagram.weight() <= 5
                        assert seq.avec()[0] == 0


def test_fixed_to_msequence_rejects_wide():
    diagram = LabeledDiagram([ColumnStack(2, [], (2, 0))], Partition([2]))
    with pytest.raises(ValueError):
        fixed_to_msequence(diagram)


def test_noncombinability_survives_later_merge():
    # if stacks i, i+1 cannot merge and i+1 absorbs i+2, they still cannot
    for k in (2, 3):
        for n in range(1, 4):
            for lam in partitions_of(n):
                for diagram in diagrams_up_to(k, lam, 5):
                    stacks = diagram.stacks
                    for i in range(len(stacks) - 2):
                        if stacks[i].row_len != 1 or stacks[i + 1].row_len != 1:
                            continue
                        if can_combine(diagram, i):
                            continue
                        if not can_combine(diagram, i + 1):
                            continue
                        merged = combine(diagram, i + 1)
                        assert can_combine(merged, i) is False


def test_diagrams_up_to_counts_match_the_weight_series():
    # (2, 2, 2): rows (2) over partitions with parts <= 1, and rows (1, 1)
    # over the empty first stack and a second with parts <= 1
    assert diagram_count(1, [], 2) == (2, 2, 2)
    assert diagram_count(1, [1, 1, 1], 2) == (0, 0, 0)
    assert diagram_count(1, [1], -1) == ()
    for k in (1, 2, 3, _MAX_K):
        for n in range(5 if k < _MAX_K else 4):
            for lam in partitions_of(n):
                for cap in range(7 if k < _MAX_K else 6):
                    seen = list(diagrams_up_to(k, lam, cap))
                    assert len(set(seen)) == len(seen)
                    weights = Counter(x.weight() for x in seen)
                    assert all(w <= cap for w in weights)
                    assert tuple(weights[w] for w in range(cap + 1)) == (
                        diagram_count(k, lam, cap)
                    )


def _rebuilt_stack(st):
    return ColumnStack(st.row_len, list(st.above), list(st.labels))


def _memoized(st):
    """The stacks that ``st`` keeps from its split and its merges."""
    return (st._split_memo or ()) + tuple((st._merge_memo or {}).values())


def _rebuilt(diagram):
    """The diagram built again through the validating constructors."""
    return LabeledDiagram(
        [_rebuilt_stack(st) for st in diagram.stacks], list(diagram.lam)
    )


def test_unchecked_diagrams_are_valid():
    # the enumerator and split/combine skip validation; every object they
    # build passes it and rebuilds to an equal object with an equal hash (a
    # list where a Partition or tuple belongs would compare equal but hash
    # differently or not at all, and an unsorted partition tuple would not
    # compare equal).  The weights and hashes the stacks store agree with
    # those of the rebuilt objects.  Cap 6 yields the diagrams of every
    # smaller cap too.  The walk shares its stacks between diagrams, and
    # each stack keeps its split and its merges: a diagram's partner, asked
    # for twice, equals the partner of its rebuilt copy (new stacks, no
    # memo), the partner and its rebuilt copy both map back, and every
    # memoized half and merge rebuilds.  The walk hands each diagram its
    # weight and sign, which equal those its stacks give.
    for k in (1, 2, 3):
        for n in range(5):
            for lam in partitions_of(n):
                for diagram in diagrams_up_to(k, lam, 6):
                    assert diagram.weight() == sum(
                        st.weight() for st in diagram.stacks)
                    assert diagram.sign() == parity_sign(
                        [st.row_len for st in diagram.stacks])
                    partner = involution(diagram)
                    assert involution(diagram) == partner
                    if partner is not None:
                        assert involution(partner) == diagram
                    for built, image in ((diagram, partner), (partner, diagram)):
                        if built is not None:
                            again = _rebuilt(built)
                            assert involution(again) == image
                            assert again == built
                            assert hash(again) == hash(built)
                            assert again.weight() == built.weight()
                            assert again.sign() == built.sign()
                            for st, st_again in zip(built.stacks, again.stacks):
                                assert st.weight() == st_again.weight() == (
                                    st.above.size
                                    + sum(j * v for j, v in enumerate(st.labels)))
                                assert hash(st) == hash(st_again) == hash(
                                    (st.row_len, st.above, st.labels))
                                assert st.full_rows() == st_again.full_rows()
                                for kept in _memoized(st):
                                    assert _rebuilt_stack(kept) == kept
                                    assert hash(_rebuilt_stack(kept)) == hash(kept)


def _assert_walk_matches_diagrams(k, lam, degree_max):
    """The walk of (k, lam), checked: it yields, in order, the stacks of
    diagrams_up_to with the weight and sign that the diagram and its checked
    rebuild compute from the stacks, and _move gives the stacks of each
    diagram's partner, or None."""
    walk = list(_stack_walk(k, lam, degree_max))
    diagrams = list(diagrams_up_to(k, lam, degree_max))
    assert [stacks for stacks, _, _ in walk] == [d.stacks for d in diagrams]
    for (stacks, weight, sign), diagram in zip(walk, diagrams):
        again = _rebuilt(diagram)
        assert again.stacks == stacks
        assert (weight, sign) == (again.weight(), again.sign())
        assert (weight, sign) == (diagram.weight(), diagram.sign())
        partner = involution(diagram)
        assert _move(diagram.stacks) == (
            None if partner is None else partner.stacks)
    return walk


def test_stack_walk_and_move_match_the_diagrams():
    # the suite reads the walk's stacks tuples and moves them by _move
    for k in (1, 2, 3):
        for n in range(5):
            for lam in partitions_of(n):
                _assert_walk_matches_diagrams(k, lam, 6)


def test_walk_shares_one_stack_per_value():
    # the walk and the moves of its diagrams draw their stacks from one pool,
    # so a partner holds the very stacks of the walk's equal diagram
    for k in (1, 2, 3):
        for lam in partitions_of(3):
            walk = {x.stacks: x for x in diagrams_up_to(k, lam, 5)}
            for diagram in walk.values():
                partner = involution(diagram)
                if partner is not None:
                    mate = walk[partner.stacks]
                    assert all(a is b for a, b in zip(partner.stacks, mate.stacks))


def _stack_value(st):
    return st.row_len, st.above.parts, st.labels


def _walk_digests():
    """One digest per walk of k <= 3, |lam| <= 4 at degree 6: each diagram's
    stacks as values, its weight and sign, and its partner's stacks."""
    digests = []
    for k in (1, 2, 3):
        for n in range(5):
            for lam in partitions_of(n):
                rows = []
                for stacks, weight, sign in _stack_walk(k, lam, 6):
                    partner = _move(stacks)
                    rows.append((tuple(map(_stack_value, stacks)), weight, sign,
                                 partner and tuple(map(_stack_value, partner))))
                digests.append(hashlib.sha256(repr(rows).encode()).hexdigest())
    return digests


def test_walk_does_not_depend_on_earlier_walks():
    # the stack tables, the size tuples, the stack pool and the stacks' move
    # memos last for the process.  After walks of other lam at a smaller and
    # a larger degree bound, and the moves of their diagrams, a walk still
    # matches diagrams_up_to and its checked rebuild, and yields, with its
    # partners, what a process that ran no walk before it yields
    seen = {}
    for degree_max in (2, 8):
        for k in (1, 2, 3):
            for lam in partitions_of(5):
                for stacks, _, _ in _stack_walk(k, lam, degree_max):
                    for st in stacks + (_move(stacks) or ()):
                        seen.setdefault(_stack_value(st), st)
    shared = 0
    for k in (1, 2, 3):
        for n in range(5):
            for lam in partitions_of(n):
                for stacks, _, _ in _assert_walk_matches_diagrams(k, lam, 6):
                    for st in stacks:
                        earlier = seen.get(_stack_value(st))
                        if earlier is not None:
                            assert earlier is st
                            shared += 1
    assert shared
    src = os.path.dirname(os.path.dirname(deltaq1.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    script = ("import sys; sys.path.insert(0, %r); import test_diagrams; "
              "print(test_diagrams._walk_digests())" % os.path.dirname(__file__))
    cold = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, check=True).stdout
    assert ast.literal_eval(cold) == _walk_digests()


def test_size_tuples_are_the_differences_of_the_cuts():
    for m in range(1, 6):
        for room in range(-1, 9):
            for first_free in (False, True):
                expected = [
                    (tuple(b - a for a, b in zip((0,) + cuts, cuts)), cuts[-1])
                    for cuts in combinations_with_replacement(range(room + 1), m)
                    if first_free or not cuts[0]]
                assert list(_size_tuples(m, room, first_free)) == expected


def test_diagrams_of_weight_edge_cases():
    # more labels than cells, and a negative weight
    assert diagrams_of_weight(1, [1, 1, 1], 2) == []
    assert list(diagrams_up_to(1, [1, 1, 1], 2)) == []
    assert list(diagrams_up_to(2, [1], -1)) == []
    with pytest.raises(ValueError):
        diagrams_of_weight(1, [1], -1)


def test_diagram_json():
    diagram = _example_pair()
    assert diagram.to_json() == {
        "stacks": [
            {"row_len": 1, "above": [], "labels": [0]},
            {"row_len": 4, "above": [4, 4, 2, 1], "labels": [0, 1, 0, 2]},
        ]
    }
