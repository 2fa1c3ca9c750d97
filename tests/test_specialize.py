import pytest

from deltaq1.msequences import msequence_polynomial
from deltaq1.oracle import delta_general
from deltaq1.partitions import partitions_of
from deltaq1.specialize import (
    forgotten_at_one_minus_t,
    forgotten_coefficient,
    monomial_eval,
)
from deltaq1.symfunc import SymFuncExpr, hall_inner
from deltaq1.tarith import ONE, TPoly, TRat


def _times_one_minus_t_alphabet(expr):
    """Engine-side substitution X -> X(1-t): p_r picks up 1 - t^r."""
    out = {}
    pexpr = expr.convert("p")
    for lam, c in pexpr.terms():
        factor = TRat(1)
        for r in lam:
            factor = factor * (ONE - TPoly.t_power(r))
        out[lam] = c * factor
    return SymFuncExpr(expr.degree, "p", out)


@pytest.mark.parametrize(
    "mu, value", [([1, 1, 1], 1), ([2], -1), ([2, 1], -2)]
)
def test_forgotten_at_one_examples(mu, value):
    # f_mu at the alphabet 1 is the constant term of f_mu[1 - t]
    assert forgotten_at_one_minus_t(mu)(0) == value


def test_forgotten_at_one_vs_jacobi_trudi():
    # f_mu[1] is the h_mu coefficient of e_m expanded in the h basis
    for m in range(1, 9):
        hexp = SymFuncExpr.basis_element("e", [m]).convert("h")
        for mu in partitions_of(m):
            assert TRat(forgotten_at_one_minus_t(mu)(0)) == hexp.coeff(mu)


@pytest.mark.parametrize(
    "mu, coeffs",
    [([1, 1], [1, -1]), ([2], [-1, 0, 1]), ([2, 1], [-2, 1, 1]), ([1], [1, -1])],
)
def test_forgotten_at_one_minus_t_examples(mu, coeffs):
    assert forgotten_at_one_minus_t(mu) == TPoly(coeffs)


def test_forgotten_addition_formula_against_engine():
    # f_mu[1-t] is the h_mu coefficient of e_m[X(1-t)]
    for m in range(1, 7):
        em = _times_one_minus_t_alphabet(SymFuncExpr.basis_element("e", [m]))
        hexp = em.convert("h")
        for mu in partitions_of(m):
            assert hexp.coeff(mu) == TRat(forgotten_at_one_minus_t(mu))


@pytest.mark.parametrize(
    "lam, mu, coeffs",
    [([2], [2], [1, 0, 1]), ([1, 1], [2], [0, 1]), ([1, 1, 1], [2], [])],
)
def test_monomial_eval_examples(lam, mu, coeffs):
    assert monomial_eval(lam, mu) == TPoly(coeffs)


def test_monomial_eval_against_power_sum_route():
    # independent evaluation through the p basis: p_r at the staircase
    # alphabet substitutes t -> t^r into the alphabet sum; mu need not have
    # the size of lam, as in the series terms
    for n in range(1, 6):
        for lam in partitions_of(n):
            pexp = SymFuncExpr.basis_element("m", lam).convert("p")
            for m in range(1, 7):
                for mu in partitions_of(m):
                    powers = [j for part in mu for j in range(part)]
                    total = TRat(0)
                    for nu, c in pexp.terms():
                        factor = TRat(1)
                        for r in nu:
                            coeffs = [0] * (max(powers) * r + 1)
                            for j in powers:
                                coeffs[j * r] += 1
                            factor = factor * TPoly(coeffs)
                        total = total + c * factor
                    assert total == TRat(monomial_eval(lam, mu)), (lam, mu)


def test_forgotten_coefficient_series_examples():
    assert forgotten_coefficient([2], 1) == TPoly([1, 1])
    assert forgotten_coefficient([1, 1], 1) == ONE
    assert forgotten_coefficient([1], 1) == ONE


def test_forgotten_coefficient_series_vanishes_when_long():
    assert forgotten_coefficient([1, 1, 1], 1).is_zero()


def test_forgotten_coefficient_polynomiality():
    # the numerators over (t;t)_{k+1} sum to a multiple of it, a polynomial
    # of degree at most n(n-1)/2
    for n in range(2, 6):
        bound = n * (n - 1) // 2
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                assert forgotten_coefficient(lam, k).degree <= bound


def test_forgotten_coefficient_series_is_the_msequence_polynomial():
    # the signed diagram series against the M-polynomial, with no oracle:
    # both are the e_lam coefficient of the Delta image, compared exactly
    for n in range(1, 7):
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                assert forgotten_coefficient(lam, k) == (
                    msequence_polynomial(lam, k)), (lam, k)


def test_forgotten_coefficient_is_the_dual_delta_image():
    # Haglund's dual side, through the oracle: Delta for m_lam applied to
    # e_{k+1}, paired with s_{k+1}
    for n in range(1, 7):
        for k in range(1, n + 1):
            row = SymFuncExpr.basis_element("s", [k + 1])
            for lam in partitions_of(n):
                image = delta_general(SymFuncExpr.basis_element("m", lam), k + 1)
                assert TRat(forgotten_coefficient(lam, k)) == (
                    hall_inner(image, row)), (lam, k)


def test_forgotten_coefficient_range_checks():
    with pytest.raises(ValueError):
        forgotten_coefficient([2, 1], 0)
    with pytest.raises(ValueError):
        forgotten_coefficient([2, 1], 4)
