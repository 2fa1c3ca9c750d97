"""The involution suite's pass over move prefixes against a brute force that
checks every diagram of the walk, one by one."""

import pytest

from deltaq1 import verify
from deltaq1.diagrams import ColumnStack, LabeledDiagram, fixed_to_msequence
from deltaq1.partitions import partitions_of


def _full_walk(n, k, lam, degree_max, audit):
    """(verdicts, pairings, signed, walked, fixed) of the pair laws checked
    on every diagram of ``verify._stack_walk``, each moved by
    ``verify._move``, in the order of the walk: the first failing diagram
    of each weight, then a partner that is not a diagram of the walk, then
    the count, the fixed points and the signed count of each weight."""
    signed = [0] * (degree_max + 1)
    walked = [0] * len(signed)
    fixed = [[] for _ in signed]
    verdicts = [None] * len(signed)
    pairings = []

    def diagram(stacks):
        return LabeledDiagram._of(stacks, lam)

    mates = {}
    for stacks, w, sign in verify._stack_walk(k, lam, degree_max):
        walked[w] += 1
        mate = mates.pop(stacks, None)
        if verdicts[w]:
            continue
        signed[w] += sign
        if mate is not None:
            if w == audit:
                pairings.append({"diagram": diagram(stacks).to_json(),
                                 "partner": diagram(mate).to_json()})
            continue
        partner = verify._move(stacks)
        reason = None
        if partner is None:
            if any(st.row_len != 1 for st in stacks):
                reason = "wide fixed point"
            else:
                try:
                    fixed[w].append(fixed_to_msequence(diagram(stacks)).pairs)
                except ValueError:
                    reason = "fixed point is not an M-sequence"
        elif verify._weight_of(partner) != w:
            reason = "weight changed"
        elif verify._sign_of(partner) != -sign:
            reason = "sign not reversed"
        elif verify._move(partner) != stacks:
            reason = "not an involution"
        else:
            mates[partner] = stacks
            if w == audit:
                pairings.append({"diagram": diagram(stacks).to_json(),
                                 "partner": diagram(partner).to_json()})
        if reason:
            verdicts[w] = {"case": [n, k, lam.to_json(), w], "reason": reason,
                           "object": diagram(stacks).to_json()}
    for stacks in mates:
        w = verify._weight_of(stacks)
        if not verdicts[w]:
            verdicts[w] = {"case": [n, k, lam.to_json(), w],
                           "reason": "partner is not a diagram of the walk",
                           "object": diagram(stacks).to_json()}
    counts = verify.diagram_count(k, lam, degree_max)
    poly = verify.msequence_polynomial(lam, k)
    for d in range(degree_max + 1):
        if verdicts[d]:
            continue
        expected = sorted(seq.pairs for seq in verify.msequences(lam, k)
                          if seq.rho() == d)
        if walked[d] != counts[d]:
            reason = "diagram count %d != series count %d" % (walked[d], counts[d])
        elif sorted(fixed[d]) != expected:
            reason = "fixed points differ from M-sequences"
        elif signed[d] != poly.coeff(d):
            reason = "signed count %d != coefficient %d" % (signed[d], poly.coeff(d))
        else:
            continue
        verdicts[d] = {"case": [n, k, lam.to_json(), d], "reason": reason}
    return verdicts, pairings, signed, walked, fixed


def _assert_pass_matches_full_walk(n, k, lam, degree_max, audits=(None,)):
    """The verdicts and audit pairings of (n, k, lam) equal the brute
    force's, and so do the signed count, the number of diagrams and the
    fixed points of every weight that passes there; the number of failing
    weights."""
    verdicts, _, *full = _full_walk(n, k, lam, degree_max, None)
    factored = verify._prefix_pass(k, lam, degree_max)[:3]
    for d, verdict in enumerate(verdicts):
        if verdict is None:
            assert [tally[d] for tally in factored[:2]] == [
                tally[d] for tally in full[:2]]
            assert sorted(factored[2][d]) == sorted(full[2][d])
    for audit in audits:
        assert verify._involution_verdicts(n, k, lam, degree_max, audit) == (
            _full_walk(n, k, lam, degree_max, audit)[:2])
    return sum(map(bool, verdicts))


def test_prefix_pass_matches_the_full_walk_at_the_defaults():
    # every (n, k, lam, d) of `verify involution`: n <= 5, k <= 3, d <= 8
    for n in range(1, 6):
        for k in range(1, 4):
            for lam in partitions_of(n):
                assert _assert_pass_matches_full_walk(n, k, lam, 8) == 0


def test_prefix_pass_matches_the_full_walk_at_k_4():
    for n in range(1, 5):
        for lam in partitions_of(n):
            assert _assert_pass_matches_full_walk(n, 4, lam, 6) == 0


def _self_partner(real, chosen):
    return lambda s: s if s == chosen else real(s)


def _heavier_partner(real, chosen):
    heavier = (ColumnStack(3, [1, 1], (1, 2, 0)),)
    return lambda s: heavier if s == chosen else real(s)


def _no_move(real, chosen):
    return lambda s: None


def _partner_of_another(real, chosen):
    # chosen is sent to the partner of another diagram of its weight and
    # sign, which moves back to that diagram
    walk = list(verify._stack_walk(2, [2, 1], 3))
    weight, sign = next((w, sg) for s, w, sg in walk if s == chosen)
    other = next(s for s, w, sg in walk
                 if (w, sg) == (weight, sign) and s != chosen and real(s))
    return lambda s: real(other) if s == chosen else real(s)


@pytest.mark.parametrize("fault", [
    _self_partner, _heavier_partner, _no_move, _partner_of_another,
])
def test_faulty_moves_report_as_the_full_walk_does(monkeypatch, fault):
    # a _move that breaks a law on one wide diagram of (2, [2, 1]) of weight
    # 3, or fixes every diagram: the same verdicts, objects and audit
    # pairings as checking every diagram
    chosen = (ColumnStack(3, [1], (1, 2, 0)),)
    monkeypatch.setattr(verify, "_move", fault(verify._move, chosen))
    failing = sum(_assert_pass_matches_full_walk(n, k, lam, 4,
                                                 audits=(None, 2, 3, 4))
                  for n in range(1, 4) for k in (1, 2)
                  for lam in partitions_of(n))
    assert failing
