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
    _POOL,
    ColumnStack,
    LabeledDiagram,
    _combinable,
    _move,
    _move_prefixes,
    _size_tuples,
    _stack_walk,
    diagram_count,
    diagrams_of_weight,
    fixed_to_msequence,
    involution,
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


def _diagram(stacks, lam):
    return LabeledDiagram._of(stacks, Partition(lam))


def _walk_diagrams(k, lam, degree_max):
    """The diagrams of the walk."""
    lam = Partition(lam)
    return [LabeledDiagram._of(stacks, lam)
            for stacks, _, _ in _stack_walk(k, lam, degree_max)]


def test_split_example():
    # label 3 fits in none of the wide stack's two full rows, so the move
    # splits the wide stack, and the move of the result merges it back
    first = ColumnStack(1, [], (3,))
    wide = ColumnStack(4, [4, 4, 2, 1], (0, 1, 0, 2))
    diagram = LabeledDiagram([first, wide], [3, 2, 1])
    out = _move(diagram.stacks)
    assert out == (first, ColumnStack(1, [1, 1], (2,)),
                   ColumnStack(3, [3, 3, 3, 3, 2, 1], (0, 1, 0)))
    partner = _diagram(out, diagram.lam)
    assert partner.weight() == diagram.weight() == 18
    assert partner.sign() == -diagram.sign()
    assert _move(out) == diagram.stacks


def test_split_trivial():
    diagram = LabeledDiagram([ColumnStack(2, [], (0, 0))], Partition())
    out = _move(diagram.stacks)
    assert [st.to_json() for st in out] == [
        {"row_len": 1, "above": [], "labels": [0]},
        {"row_len": 1, "above": [], "labels": [0]},
    ]
    # both halves are single cells: the move of the result merges them
    assert _move(out) == diagram.stacks


def test_can_combine_examples():
    first = ColumnStack(1, [], (0,))
    col = ColumnStack(1, [1, 1], (2,))
    short = ColumnStack(3, [3, 3, 2, 1], (0, 1, 0))
    tall = ColumnStack(3, [3, 3, 3, 3, 2, 1], (0, 1, 0))
    assert _combinable((first, col, short), 1) is False
    assert _combinable((first, col, tall), 1) is True
    assert _combinable((first, first), 0) is True
    # a column merged into first position must be empty
    assert _combinable((col, tall), 0) is False
    assert _combinable((first, col, tall), 0) is True


def test_combine_requires_precondition():
    # stack 0 (label 3) fits in none of col's two full rows, so the move
    # reaches col: it merges into a successor with four full rows, and
    # passes over one with two, whose split is the move
    first = ColumnStack(1, [], (3,))
    col = ColumnStack(1, [1, 1], (2,))
    short = ColumnStack(3, [3, 3, 2, 1], (0, 1, 0))
    tall = ColumnStack(3, [3, 3, 3, 3, 2, 1], (0, 1, 0))
    assert _move((first, col, tall)) == (
        first, ColumnStack(4, [4, 4, 2, 1], (0, 1, 0, 2)))
    assert _move((first, col, short)) == (first, col) + short._halves()


def test_round_trip_on_enumerated_diagrams():
    # a wide stack's tail absorbs its head back into the stack, and a merged
    # stack splits back into the column and the stack that absorbed it
    for k in (1, 2, 3):
        for n in range(1, 4):
            for lam in partitions_of(n):
                for stacks, _, _ in _stack_walk(k, lam, 4):
                    for i, st in enumerate(stacks):
                        if st.row_len > 1:
                            head, tail = st._halves()
                            assert tail._absorb(head.labels[0],
                                                head.above.size) is st
                        elif i + 1 < len(stacks) and _combinable(stacks, i):
                            big = stacks[i + 1]._absorb(st.labels[0],
                                                        st.above.size)
                            assert big._halves() == (st, stacks[i + 1])


def test_involution_pairs_and_cancels():
    for k in (1, 2, 3):
        for n in range(1, 5):
            for lam in partitions_of(n):
                poly = msequence_polynomial(lam, k)
                signed = [0] * 7
                fixed = [[] for _ in range(7)]
                for diagram in _walk_diagrams(k, lam, 6):
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
                for diagram in _walk_diagrams(k, lam, 5):
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
                for stacks, _, _ in _stack_walk(k, lam, 5):
                    for i in range(len(stacks) - 2):
                        st, col = stacks[i], stacks[i + 1]
                        if st.row_len != 1 or col.row_len != 1:
                            continue
                        if _combinable(stacks, i):
                            continue
                        if not _combinable(stacks, i + 1):
                            continue
                        big = stacks[i + 2]._absorb(col.labels[0],
                                                    col.above.size)
                        merged = stacks[: i + 1] + (big,) + stacks[i + 3 :]
                        assert _combinable(merged, i) is False


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
                    seen = list(_stack_walk(k, lam, cap))
                    assert len({stacks for stacks, _, _ in seen}) == len(seen)
                    weights = Counter(weight for _, weight, _ in seen)
                    assert all(w <= cap for w in weights)
                    assert tuple(weights[w] for w in range(cap + 1)) == (
                        diagram_count(k, lam, cap)
                    )


def _stack_value(st):
    return st.row_len, st.above.parts, st.labels


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
    # the walk and the moves skip validation; every stack they build passes
    # it and rebuilds to the very same stack (a list where a tuple belongs,
    # or an unsorted partition tuple, would be another value), and every
    # diagram rebuilds to an equal diagram with an equal hash.  The size,
    # full-row count and weight that each stack stores are those of its
    # value.  Cap 6 yields the diagrams of every smaller cap too.  The walk
    # shares its stacks between diagrams, and each stack keeps its split
    # and its merges: a diagram's partner, asked for twice, equals the
    # partner of its rebuilt copy, the partner and its rebuilt copy both
    # map back, and every memoized half and merge rebuilds.  The walk hands
    # each diagram its weight and sign, which equal those its stacks give.
    for k in (1, 2, 3):
        for n in range(5):
            for lam in partitions_of(n):
                for diagram in _walk_diagrams(k, lam, 6):
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
                                assert st_again is st
                                row_len, parts, labels = _stack_value(st)
                                size = sum(parts)
                                assert (st._size, st._full, st.weight()) == (
                                    size, parts.count(row_len),
                                    size + sum(j * v for j, v in enumerate(labels)))
                                for kept in _memoized(st):
                                    assert _rebuilt_stack(kept) is kept


def test_every_stack_is_the_pooled_stack_of_its_value():
    # a stack compares and hashes by identity, so every way of making one
    # gives the pool's stack of its value: the checking constructor, _of,
    # the walk, a split's halves and a merge
    def pooled(st):
        return _POOL.get(_stack_value(st)) is st

    made = ColumnStack(3, [1, 2], [0, 1, 0])
    assert pooled(made)
    assert ColumnStack(3, (2, 1), (0, 1, 0)) is made
    assert ColumnStack._of(3, (2, 1), (0, 1, 0)) is made
    assert pooled(ColumnStack._of(5, (3,), (0, 0, 0, 0, 7)))
    for k in (1, 2, 3):
        for n in range(5):
            for lam in partitions_of(n):
                for stacks, _, _ in _stack_walk(k, lam, 6):
                    for i, st in enumerate(stacks):
                        assert pooled(st)
                        assert _rebuilt_stack(st) is st
                        if st.row_len > 1:
                            assert all(map(pooled, st._halves()))
                        elif i + 1 < len(stacks) and _combinable(stacks, i):
                            assert pooled(stacks[i + 1]._absorb(
                                st.labels[0], st.above.size))


def _assert_walk_matches_diagrams(k, lam, degree_max):
    """The walk of (k, lam), checked: the checked rebuild of each diagram
    holds its stacks and computes from them the weight and sign that the
    walk gave, and ``involution`` gives the diagram of ``_move``'s stacks,
    or None."""
    walk = list(_stack_walk(k, lam, degree_max))
    for stacks, weight, sign in walk:
        again = _rebuilt(_diagram(stacks, lam))
        assert again.stacks == stacks
        assert (weight, sign) == (again.weight(), again.sign())
        partner = involution(again)
        assert _move(stacks) == (None if partner is None else partner.stacks)
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
            walk = {stacks: stacks for stacks, _, _ in _stack_walk(k, lam, 5)}
            for stacks in walk:
                partner = _move(stacks)
                if partner is not None:
                    assert all(a is b for a, b in zip(partner, walk[partner]))


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
    # matches its checked rebuild, and yields, with its partners, what a
    # process that ran no walk before it yields
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


def test_move_reads_only_its_prefix():
    # on every diagram of the involution suite's defaults (k <= 3, |lam| <=
    # 5, weight <= 8): the shortest prefix that moves moves as the whole
    # diagram does, and the stacks after it stay; a diagram with no such
    # prefix is fixed.  The descent yields each such prefix once, with the
    # (row length, labels) after it, and counts the diagrams that start
    # with it by weight
    for k in (1, 2, 3):
        for n in range(1, 6):
            for lam in partitions_of(n):
                starts = Counter()
                for stacks, weight, _ in _stack_walk(k, lam, 8):
                    partner = _move(stacks)
                    j = next((j for j in range(1, len(stacks) + 1)
                              if _move(stacks[:j]) is not None), len(stacks))
                    if partner is None:
                        assert j == len(stacks)
                    else:
                        assert _move(stacks[:j]) + stacks[j:] == partner
                    rest = tuple((st.row_len, st.labels) for st in stacks[j:])
                    starts[stacks[:j], rest, weight] += 1
                descent = list(_move_prefixes(k, lam, 8))
                assert len({(p, r) for p, r, *_ in descent}) == len(descent)
                counted = Counter()
                for prefix, rest, weight, _, completions in descent:
                    assert len(completions) <= 9 - weight
                    for w, c in enumerate(completions, weight):
                        if c:
                            counted[prefix, rest, w] += c
                assert counted == starts


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
    assert list(_stack_walk(1, [1, 1, 1], 2)) == []
    assert list(_stack_walk(2, [1], -1)) == []
    with pytest.raises(ValueError):
        diagrams_of_weight(1, [1], -1)
    # the walk's diagrams of one weight, in its order, with its sign
    assert [(x.stacks, x.weight(), x.sign())
            for x in diagrams_of_weight(2, [2, 1], 4)] == [
        row for row in _stack_walk(2, [2, 1], 4) if row[1] == 4]


def test_diagram_json():
    diagram = LabeledDiagram([ColumnStack(1, [], (0,)),
                              ColumnStack(4, [4, 4, 2, 1], (0, 1, 0, 2))], [2, 1])
    assert diagram.to_json() == {
        "stacks": [
            {"row_len": 1, "above": [], "labels": [0]},
            {"row_len": 4, "above": [4, 4, 2, 1], "labels": [0, 1, 0, 2]},
        ]
    }
