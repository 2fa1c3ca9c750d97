"""Acceptance suite: one test per criterion, every check exact.

Each test prints a single PASS/FAIL line so the suite doubles as a
human-readable ledger when run with `pytest -s tests/test_acceptance.py`.
"""

from itertools import product

import pytest

from deltaq1.bijection import decorated_to_msequence, msequence_to_decorated
from deltaq1.dyck import DecoratedDyckPath, DyckPath, enumerate_decorated
from deltaq1.msequences import (
    generic_polynomial,
    m_expansion,
    msequence_polynomial,
    msequences,
    osp_polynomial,
    ssyt_polynomial,
)
from deltaq1.oracle import delta_e
from deltaq1.partitions import partitions_of
from deltaq1.specialize import forgotten_coefficient
from deltaq1.symfunc import SymFuncExpr, hall_inner
from deltaq1.tarith import TPoly, TRat
from deltaq1.verify import run_suite


def _conclude(label, ok):
    print("%s: criterion %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def test_criterion_1_main_expansion():
    """Eq (1): the e-basis expansion from M-sequences equals the
    eigenoperator computation for all n <= 6 and 1 <= k <= n."""
    ok = True
    for n in range(1, 7):
        for k in range(1, n + 1):
            expr = delta_e(n, k)
            for lam in partitions_of(n):
                if expr.coeff(lam) != TRat(msequence_polynomial(lam, k)):
                    ok = False
    spot = delta_e(2, 1)
    ok = ok and spot.coeff([1, 1]) == TRat(1) and spot.coeff([2]) == TRat(TPoly([1, 1]))
    spot = delta_e(2, 2)
    ok = ok and spot.coeff([1, 1]) == TRat(1) and spot.coeff([2]) == TRat(TPoly([0, 1]))
    _conclude("1 (Eq. (1) end-to-end, n <= 6)", ok)


def test_criterion_2_path_side():
    """Eq (2): M-polynomials equal area-weighted decoration sums over Dyck
    paths for all n <= 7, all k, all run partitions."""
    report = run_suite("eq2", n_max=7)
    _conclude("2 (Eq. (2), n <= 7)", report["status"] == "pass")


def test_criterion_3_bijection():
    """The bijection and its inverse are mutually inverse with the weight
    transported, for n <= 7, and both worked examples reproduce exactly."""
    report = run_suite("bijection", n_max=7)
    ok = report["status"] == "pass"

    first = DecoratedDyckPath(DyckPath((0, 1, 2, 3, 2, 3, 4, 2, 1, 2)), [4, 6, 10])
    seq = decorated_to_msequence(first)
    ok = ok and seq.pairs == ((0, 4), (2, 3), (4, 0), (2, 1), (2, 0), (1, 2), (1, 0), (0, 0))
    ok = ok and msequence_to_decorated(seq) == first

    second = DecoratedDyckPath(DyckPath((0, 1, 2, 3, 1, 2, 3, 3, 3, 4)), [0, 3, 6, 10])
    seq = decorated_to_msequence(second)
    ok = ok and seq.pairs == ((0, 4), (3, 0), (1, 3), (3, 1), (3, 2), (3, 0), (1, 0))
    ok = ok and msequence_to_decorated(seq) == second
    _conclude("3 (bijection round trips, n <= 7)", ok)


def test_criterion_4_involution():
    """The sign-reversing involution: pairs preserve weight and flip sign,
    fixed points are the M-sequences, and signed degree counts equal the
    M-polynomial coefficients, for k+1 <= 4, lam of n <= 5, d <= 8."""
    report = run_suite("involution", n_max=5, k_max=3, degree_max=8)
    _conclude("4 (involution, k+1 <= 4, n <= 5, d <= 8)", report["status"] == "pass")


def test_criterion_5_formal_series():
    """The formal-series route, summed to an exact polynomial, matches the
    oracle inner product with every forgotten basis element for n <= 5."""
    ok = True
    for n in range(1, 6):
        for k in range(1, n + 1):
            image = delta_e(n, k)
            for lam in partitions_of(n):
                inner = hall_inner(image, SymFuncExpr.basis_element("f", lam))
                if inner != TRat(forgotten_coefficient(lam, k)):
                    ok = False
    spot = forgotten_coefficient([2], 1)
    ok = ok and spot == TPoly([1, 1])
    _conclude("5 (formal series route, n <= 5)", ok)


def _parking_function_count(n):
    count = 0
    for candidate in product(range(1, n + 1), repeat=n):
        if all(v <= i + 1 for i, v in enumerate(sorted(candidate))):
            count += 1
    return count


def test_criterion_6_hilbert_series():
    """Ordered-set-partition polynomials equal the oracle Hilbert series for
    n <= 5, and at t=1, k=n they count classical parking functions."""
    ok = True
    for n in range(1, 6):
        p1n = SymFuncExpr.basis_element("p", [1] * n)
        for k in range(1, n + 1):
            if hall_inner(delta_e(n, k), p1n) != TRat(osp_polynomial(n, k)):
                ok = False
    for n in range(1, 5):
        if osp_polynomial(n, n)(1) != _parking_function_count(n):
            ok = False
    ok = ok and _parking_function_count(3) == 16
    _conclude("6 (Hilbert series, n <= 5; parking count, n <= 4)", ok)


def test_criterion_7_schur_expansion():
    """Tableau polynomials equal the oracle Schur coefficients for n <= 5,
    with every coefficient nonnegative; the forgotten-basis coefficients are
    nonnegative too."""
    ok = True
    for n in range(1, 6):
        for k in range(1, n + 1):
            image = delta_e(n, k)
            for lam in partitions_of(n):
                # the coefficient of s_lam in omega of the image
                combinatorial = ssyt_polynomial(lam, k)
                if TRat(combinatorial) != hall_inner(
                    image, SymFuncExpr.basis_element("s", lam.conjugate())
                ):
                    ok = False
                if any(c < 0 for c in combinatorial.coeffs):
                    ok = False
                via_forgotten = generic_polynomial(m_expansion("h", lam, k + 1), k)
                if image.convert("f").coeff(lam) != via_forgotten:
                    ok = False
                if any(c < 0 for c in via_forgotten.coeffs):
                    ok = False
    _conclude("7 (Schur expansion and t-positivity, n <= 5)", ok)


def test_criterion_8_haglund_identity():
    """The pairing duality holds for every forgotten basis element of degree
    n <= 5 and every 1 <= k <= n."""
    ok = True
    for n in range(1, 6):
        for k in range(1, n + 1):
            image = delta_e(n, k)
            for lam in partitions_of(n):
                inner = hall_inner(image, SymFuncExpr.basis_element("f", lam))
                if inner != TRat(forgotten_coefficient(lam, k)):
                    ok = False
    _conclude("8 (Haglund identity, n <= 5)", ok)
