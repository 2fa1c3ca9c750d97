import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaq1.partitions import Partition, partitions_of, zee
from deltaq1 import symfunc
from deltaq1.symfunc import (
    BASES,
    SymFuncExpr,
    character,
    hall_inner,
    plethysm_geometric,
)
from deltaq1.tarith import ONE, RAT_ZERO, TPoly, TRat


def elem(basis, parts, coeff=1):
    return SymFuncExpr.basis_element(basis, parts, coeff)


def test_convert_examples():
    e2 = elem("e", [2]).convert("p")
    assert e2.coeff([1, 1]) == TRat(1, 2)
    assert e2.coeff([2]) == TRat(-1, 2)
    assert elem("s", [1, 1]).convert("e") == elem("e", [2])
    same = elem("e", [2, 1]).convert("e")
    assert same == elem("e", [2, 1])


def test_convert_round_trips():
    for n in range(7):
        for lam in partitions_of(n):
            for b1 in BASES:
                start = elem(b1, lam)
                for b2 in BASES:
                    assert start.convert(b2).convert(b1) == start


def test_degree_bound_guard():
    with pytest.raises(ValueError):
        elem("e", [symfunc.degree_bound() + 1]).convert("p")


def test_hall_inner_examples():
    assert hall_inner(elem("s", [2]), elem("s", [2])) == TRat(1)
    assert hall_inner(elem("s", [2]), elem("s", [1, 1])) == TRat(0)
    assert hall_inner(elem("e", [1, 1]), elem("p", [1, 1])) == TRat(2)
    with pytest.raises(ValueError):
        hall_inner(elem("e", [1]), elem("e", [2]))


def test_hall_duality():
    for n in range(1, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                expected = TRat(1 if lam == mu else 0)
                assert hall_inner(elem("e", lam), elem("f", mu)) == expected
                assert hall_inner(elem("h", lam), elem("m", mu)) == expected
                assert hall_inner(elem("s", lam), elem("s", mu)) == expected
                assert hall_inner(
                    elem("p", lam), elem("p", mu, Fraction(1, zee(mu)))
                ) == expected


def test_plethysm_examples():
    p2 = plethysm_geometric(elem("p", [2]))
    assert p2.coeff([2]) == TRat(ONE, ONE - TPoly.t_power(2))
    h1 = plethysm_geometric(elem("h", [1]))
    assert h1.coeff([1]) == TRat(ONE, ONE - TPoly.t_power(1))
    ip = hall_inner(plethysm_geometric(elem("h", [2])), elem("s", [2]))
    assert ip == TRat(ONE, (ONE - TPoly.t_power(1)) * (ONE - TPoly.t_power(2)))


def test_plethysm_inner_product_identity():
    for n in range(1, 7):
        sn = elem("s", [n])
        for mu in partitions_of(n):
            lhs = hall_inner(plethysm_geometric(elem("h", mu)), sn)
            den = ONE
            for part in mu:
                for j in range(1, part + 1):
                    den = den * (ONE - TPoly.t_power(j))
            assert lhs == TRat(ONE, den)


def test_character_values():
    # classical table for n = 3: rows lam, columns mu (3), (2,1), (1,1,1)
    assert character((3,), (3,)) == 1 and character((3,), (1, 1, 1)) == 1
    assert character((2, 1), (3,)) == -1
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((1, 1, 1), (2, 1)) == -1
    # column orthogonality: sum over lam of chi(mu) chi(nu) z_mu^-1 delta
    for n in range(1, 7):
        plist = partitions_of(n)
        for mu in plist:
            for nu in plist:
                total = sum(
                    character(lam.parts, mu.parts) * character(lam.parts, nu.parts)
                    for lam in plist
                )
                assert total == (zee(mu) if mu == nu else 0)


def test_expr_arithmetic_and_validation():
    a = elem("e", [2, 1], TPoly([1, 1]))
    assert a.coeff([2, 1]) == TRat(TPoly([1, 1]))
    assert a.coeff([3]).is_zero()
    assert SymFuncExpr(3, "e", {Partition([3]): 0}).is_zero()
    with pytest.raises(ValueError):
        SymFuncExpr(2, "e", {Partition([3]): 1})
    with pytest.raises(ValueError):
        SymFuncExpr(2, "q", {})
    # a TRat, TPoly, int or Fraction is a coefficient; the refusal of
    # anything else names the value
    for coeff in (TRat(ONE), ONE, 1, Fraction(1)):
        assert elem("e", [1], coeff).coeff([1]) == TRat(1)
    with pytest.raises(TypeError, match="cannot use 1.5 as a coefficient"):
        elem("e", [1], 1.5)


def test_expr_json_round_trip():
    expr = SymFuncExpr(
        3,
        "e",
        {
            Partition([3]): TRat(TPoly([0, 1])),
            Partition([2, 1]): TRat(ONE, ONE - TPoly.t_power(1)),
        },
    )
    assert SymFuncExpr.from_json(expr.to_json()) == expr


def test_expr_json_refuses_non_integer_coefficients():
    # int() would truncate 1.7 to 1 and read True as 1
    for coeff in ([1.7], [True], {"num": [1.7], "den": ["1"]}):
        data = {"degree": 1, "basis": "e",
                "terms": [{"partition": [1], "coeff": coeff}]}
        with pytest.raises(TypeError):
            SymFuncExpr.from_json(data)
    # a coefficient list written as a string is not read digit by digit
    # as the polynomial 3 + 5t
    for coeff, message in (("35", "'35'"), ({"num": "1", "den": ["1"]}, "'1'")):
        data = {"degree": 1, "basis": "e",
                "terms": [{"partition": [1], "coeff": coeff}]}
        with pytest.raises(TypeError) as err:
            SymFuncExpr.from_json(data)
        assert str(err.value) == "expected a list of coefficients, not " + message


def test_transition_tables_are_inverse():
    # each basis -> p table is read off the dual basis's p -> table, so
    # this checks Hall orthogonality between independent closed forms; the
    # basis -> p tables hold n! times their coefficients
    for n in range(symfunc.degree_bound() + 1):
        plist = [p.parts for p in partitions_of(n)]
        for basis in BASES:
            to_p, from_p = symfunc._to_p(basis, n), symfunc._from_p(basis, n)
            for lam in plist:
                row = {}
                for mu, c in to_p[lam].items():
                    for nu, d in from_p[mu].items():
                        row[nu] = row.get(nu, 0) + c * d
                assert {nu: c for nu, c in row.items() if c} == {
                    lam: factorial(n)}, (basis, lam)


def _termwise_convert(expr, target):
    """The conversion as one reduced TRat sum per term, for reference."""
    n, in_p = expr.degree, {}
    for lam, c in expr.terms():
        for mu, scalar in symfunc._to_p(expr.basis, n)[lam.parts].items():
            in_p[mu] = in_p.get(mu, RAT_ZERO) + c * Fraction(scalar, factorial(n))
    if target == "p":
        return SymFuncExpr(n, "p", in_p)
    out = {}
    for mu, c in in_p.items():
        for lam, scalar in symfunc._from_p(target, n)[mu].items():
            out[lam] = out.get(lam, RAT_ZERO) + c * scalar
    return SymFuncExpr(n, target, out)


def test_convert_matches_termwise_reference():
    # coefficients over constant, polynomial and mixed denominators, with
    # integer content on both sides of a ratio
    t = TPoly.t_power(1)
    pool = [
        0, 1, -3, 7, Fraction(2, 3), Fraction(-5, 12), TPoly([1, -2, 0, 1]),
        TRat(ONE, ONE - t), TRat(ONE + t, 2 - 2 * t * t),
        TRat(TPoly([3, 0, 1]), (ONE - t) * (ONE - t * t)),
        TRat(TPoly([0, 4]), 6 + 3 * t * t), TRat(-1, 2 * t), TRat(5, 4 - 4 * t),
    ]
    rng = random.Random(20161)
    for n in range(1, 6):
        plist = partitions_of(n)
        for source, target in itertools.product(BASES, repeat=2):
            for _ in range(4):
                terms = {lam: rng.choice(pool) for lam in plist
                         if rng.random() < 0.7}
                expr = SymFuncExpr(n, source, terms)
                assert expr.convert(target) == _termwise_convert(expr, target), (
                    n, source, target, terms)


@st.composite
def assignment_problems(draw):
    """Parts and slot sums, most of them reachable."""
    parts = tuple(draw(st.lists(st.integers(1, 4), max_size=6)))
    targets = [0] * draw(st.integers(1, 4))
    for part in parts:
        targets[draw(st.integers(0, len(targets) - 1))] += part
    bump = draw(st.sampled_from((0, 0, 1)))
    targets[draw(st.integers(0, len(targets) - 1))] += bump
    return parts, tuple(targets)


@given(assignment_problems())
@settings(max_examples=80, deadline=None)
def test_assignment_count_is_brute_force_and_slot_symmetric(problem):
    parts, targets = problem
    brute = 0
    for slots in itertools.product(range(len(targets)), repeat=len(parts)):
        sums = [0] * len(targets)
        for part, slot in zip(parts, slots):
            sums[slot] += part
        brute += sums == list(targets)
    for order in itertools.permutations(targets):
        assert symfunc._assignment_count(parts, order) == brute
