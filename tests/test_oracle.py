import ast
from pathlib import Path

import pytest

import deltaq1
from deltaq1 import oracle
from deltaq1.msequences import msequence_polynomial
from deltaq1.oracle import (
    delta_e,
    delta_general,
    elementary_eigenvalue,
    eval_at_staircase,
    geometric_h_expansion,
    haglund_check,
    macdonald_q1,
)
from deltaq1.partitions import Partition, partitions_of
from deltaq1.specialize import forgotten_at_one_minus_t
from deltaq1.symfunc import SymFuncExpr, hall_inner, plethysm_geometric
from deltaq1.tarith import TPoly, TRat


def elem(basis, parts):
    return SymFuncExpr.basis_element(basis, parts)


def test_macdonald_small():
    assert macdonald_q1(Partition([1])) == elem("p", [1])
    assert macdonald_q1(Partition([2])) == elem("p", [1, 1])


def test_macdonald_normalization():
    # pairing with the single-row Schur function gives a monic-at-0 polynomial
    for n in range(1, 6):
        sn = elem("s", [n])
        for mu in partitions_of(n):
            ip = hall_inner(macdonald_q1(mu), sn)
            assert ip.is_polynomial()
            assert ip.as_poly().coeff(0) == 1


def test_elementary_eigenvalue():
    assert elementary_eigenvalue(Partition([2]), 1) == TPoly([1, 1])
    assert elementary_eigenvalue(Partition([2]), 2) == TPoly([0, 1])
    assert elementary_eigenvalue(Partition([1, 1]), 1) == TPoly([2])
    assert elementary_eigenvalue(Partition([1, 1]), 2) == TPoly([1])
    # matches the generic plethystic evaluation of e_k
    for n in range(1, 6):
        for mu in partitions_of(n):
            for k in range(1, n + 1):
                generic = eval_at_staircase(elem("e", [k]), mu)
                assert generic == TRat(elementary_eigenvalue(mu, k))


def test_geometric_h_expansion_values():
    assert geometric_h_expansion(1) == {Partition([1]): TPoly([1, -1])}
    out = geometric_h_expansion(2)
    assert out[Partition([2])] == TPoly([-1, 0, 1])
    assert out[Partition([1, 1])] == TPoly([1, -1])
    # reconstruction is asserted internally for every degree
    for n in range(1, 7):
        coeffs = geometric_h_expansion(n)
        assert coeffs == {
            mu: forgotten_at_one_minus_t(mu, n) for mu in partitions_of(n)
        }


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
        delta_e(11, 1)


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
    assert haglund_check(2, 1, elem("f", [2]))
    assert haglund_check(2, 1, elem("f", [1, 1]))
    with pytest.raises(ValueError):
        haglund_check(2, 1, elem("f", [2, 1]))


def test_haglund_small_range():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                assert haglund_check(n, k, elem("f", lam))


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


def test_oracle_side_imports_no_combinatorial_model():
    # Importing any module runs the package __init__, which imports every
    # module, so the imports are read from the source.
    combinatorial = {"msequences", "dyck", "diagrams", "bijection", "verify",
                     "cli"}
    source = Path(deltaq1.__file__).parent
    for module in ("tarith", "partitions", "symfunc", "specialize", "oracle"):
        tree = ast.parse((source / (module + ".py")).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[-1])
                if node.level and not node.module:
                    imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[-1] for alias in node.names)
        assert not imported & combinatorial, module
