import ast
from itertools import combinations
from pathlib import Path

import pytest

import deltaq1
from deltaq1 import oracle, tarith
from deltaq1.msequences import msequence_polynomial
from deltaq1.oracle import delta_e, delta_general, elementary_eigenvalue
from deltaq1.partitions import Partition, partitions_of
from deltaq1.specialize import forgotten_coefficient
from deltaq1.symfunc import (
    SymFuncExpr,
    degree_bound,
    hall_inner,
    plethysm_geometric,
)
from deltaq1.tarith import ONE, TPoly, TRat


def elem(basis, parts):
    return SymFuncExpr.basis_element(basis, parts)


def test_elementary_eigenvalue():
    assert elementary_eigenvalue(Partition([2]), 1) == TPoly([1, 1])
    assert elementary_eigenvalue(Partition([2]), 2) == TPoly([0, 1])
    assert elementary_eigenvalue(Partition([1, 1]), 1) == TPoly([2])
    assert elementary_eigenvalue(Partition([1, 1]), 2) == TPoly([1])
    # e_k at the alphabet t^j, j < part, one block per part of mu: the sum
    # over its k-subsets of t^(sum of the chosen letters), zero past its size
    for n in range(1, 6):
        for mu in partitions_of(n):
            letters = [j for part in mu for j in range(part)]
            for k in range(n + 2):
                brute = [0] * (sum(letters) + 1)
                for chosen in combinations(letters, k):
                    brute[sum(chosen)] += 1
                assert elementary_eigenvalue(mu, k) == TPoly(brute)


def test_geometric_h_expansion_values():
    # e_n = sum over mu of f_mu[1-t] h_mu[X/(1-t)]: the image with every
    # eigenvalue 1 is e_n itself
    for n in range(1, 7):
        expected = elem("e", [n]).convert("p")
        assert oracle._geometric_image(n, lambda mu: ONE) == expected


def test_delta_spot_values():
    assert delta_e(1, 1) == elem("e", [1])
    d21 = delta_e(2, 1)
    assert d21.coeff([1, 1]) == TRat(1)
    assert d21.coeff([2]) == TRat(TPoly([1, 1]))
    d22 = delta_e(2, 2)
    assert d22.coeff([1, 1]) == TRat(1)
    assert d22.coeff([2]) == TRat(TPoly([0, 1]))


def test_delta_range_checks():
    with pytest.raises(ValueError):
        delta_e(2, 0)
    with pytest.raises(ValueError):
        delta_e(2, 3)
    with pytest.raises(ValueError):
        delta_e(degree_bound() + 1, 1)


def test_delta_general_refuses_a_degree_over_the_bound(monkeypatch):
    # refused before the partitions of n are walked: p(60) is 966,467
    calls = []
    monkeypatch.setattr(oracle, "forgotten_at_one_minus_t", calls.append)
    for n in (degree_bound() + 1, 60):
        message = "^degree %d exceeds bound %d$" % (n, degree_bound())
        with pytest.raises(ValueError, match=message):
            delta_general(elem("e", [2]), n)
    assert calls == []


def test_delta_coefficients_are_polynomials():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for lam, coeff in delta_e(n, k).terms():
                assert coeff.is_polynomial()
                assert all(c >= 0 for c in coeff.as_poly().coeffs)


def test_delta_matches_msequences():
    for n in range(1, 6):
        for k in range(1, n + 1):
            expr = delta_e(n, k)
            for lam in partitions_of(n):
                assert expr.coeff(lam) == TRat(msequence_polynomial(lam, k))


def test_delta_general_extends_delta_e():
    for n in range(1, 5):
        for k in range(1, n + 1):
            via_general = delta_general(elem("e", [k]), n).convert("e")
            assert via_general == delta_e(n, k)


def test_haglund_examples():
    # the Delta image paired with f_lam is the forgotten-basis coefficient
    for lam in ([2], [1, 1]):
        assert hall_inner(delta_e(2, 1), elem("f", lam)) == TRat(
            forgotten_coefficient(lam, 1))


def test_haglund_small_range():
    for n in range(1, 5):
        for k in range(1, n + 1):
            image = delta_e(n, k)
            for lam in partitions_of(n):
                assert hall_inner(image, elem("f", lam)) == TRat(
                    forgotten_coefficient(lam, k))


def test_each_image_applies_the_plethysm_once(monkeypatch):
    calls = []

    def counted(expr):
        calls.append(expr.degree)
        return plethysm_geometric(expr)

    monkeypatch.setattr(oracle, "plethysm_geometric", counted)
    oracle.delta_e(6, 3)
    assert calls == [6]
    oracle.delta_general(elem("s", [2, 1]), 5)
    assert calls == [6, 5]


SOURCE = Path(deltaq1.__file__).parent


def imports_of(module):
    """The names that one package module takes from each module it
    from-imports, keyed by that module's last dotted name.  Which modules an
    import loads is pinned at runtime (``test_imports``); which names come
    from where is read from the source."""
    tree = ast.parse((SOURCE / (module + ".py")).read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            imported.setdefault(source, set()).update(
                alias.name for alias in node.names)
    return imported


def test_oracle_side_imports_no_combinatorial_model():
    # the modules that importing the oracle loads are pinned in
    # test_imports; from the series module it takes the staircase alphabet
    # and f_mu[1-t], never the series route's answer
    assert imports_of("oracle")["specialize"] == {
        "_staircase_monomials", "forgotten_at_one_minus_t"}


def test_oracle_makes_no_constant_operand_gcd(monkeypatch):
    expected = delta_e(8, 4)
    calls, const_calls = [], []
    real_gcd = tarith.poly_gcd

    def counted(a, b):
        calls.append(1)
        if min(tarith._as_tpoly(x).degree for x in (a, b)) <= 0:
            const_calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(tarith, "poly_gcd", counted)
    assert delta_e(8, 4) == expected
    assert hall_inner(delta_e(5, 2), elem("f", [3, 1, 1])) == TRat(
        forgotten_coefficient([3, 1, 1], 2))
    assert calls and not const_calls
