import pytest

from deltaq1.msequences import msequence_polynomial
from deltaq1.oracle import delta_general
from deltaq1.partitions import Partition, partitions_of
from deltaq1.specialize import (
    forgotten_at_one,
    forgotten_at_one_minus_t,
    forgotten_coefficient,
    forgotten_series_terms,
    hf_term_series,
    monomial_eval,
    partitions_bounded_series,
    truncated,
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
    assert forgotten_at_one(mu) == value


def test_forgotten_at_one_vs_jacobi_trudi():
    # f_mu[1] is the h_mu coefficient of e_m expanded in the h basis
    for m in range(1, 7):
        hexp = SymFuncExpr.basis_element("e", [m]).convert("h")
        for mu in partitions_of(m):
            assert TRat(forgotten_at_one(mu)) == hexp.coeff(mu)


@pytest.mark.parametrize(
    "mu, coeffs",
    [([1, 1], [1, -1]), ([2], [-1, 0, 1]), ([2, 1], [-2, 1, 1]), ([1], [1, -1])],
)
def test_forgotten_at_one_minus_t_examples(mu, coeffs):
    assert forgotten_at_one_minus_t(mu) == TPoly(coeffs)


def test_forgotten_at_t_zero_matches_at_one():
    for m in range(1, 9):
        for mu in partitions_of(m):
            assert forgotten_at_one_minus_t(mu)(0) == forgotten_at_one(mu)


def test_forgotten_addition_formula_against_engine():
    # f_mu[1-t] is the h_mu coefficient of e_m[X(1-t)]
    for m in range(1, 7):
        em = _times_one_minus_t_alphabet(SymFuncExpr.basis_element("e", [m]))
        hexp = em.convert("h")
        for mu in partitions_of(m):
            assert hexp.coeff(mu) == TRat(forgotten_at_one_minus_t(mu))


def test_truncated():
    a, b = TPoly([1, 1, 1]), TPoly([1, -1])
    assert truncated(3, a, b) == TPoly([1, 0, 0, -1])
    assert truncated(5, a) == a
    assert truncated(1, a) == TPoly([1, 1])
    assert truncated(0) == ONE
    # dropping terms early keeps every term up to the order
    for order in range(8):
        for factors in ([a, b], [a, a, b], [b, TPoly.t_power(3), a]):
            full = ONE
            for f in factors:
                full = full * f
            assert truncated(order, *factors) == TPoly(full.coeffs[: order + 1])


def test_bounded_partition_series_examples():
    assert partitions_bounded_series(0, 4) == ONE
    assert partitions_bounded_series(1, 3) == TPoly([1, 1, 1, 1])
    assert partitions_bounded_series(2, 4) == TPoly([1, 1, 2, 2, 3])


def test_bounded_partition_series_inverts_the_product():
    # the series inverts (1 - t)(1 - t^2)...(1 - t^r)
    for r in range(9):
        product = ONE
        for j in range(1, r + 1):
            product = product * (ONE - TPoly.t_power(j))
        assert truncated(40, partitions_bounded_series(r, 40), product) == ONE


def test_bounded_partition_series_recursion():
    # removing the largest-part-equal-to-r partitions leaves the r-1 family:
    # G_r = G_{r-1} + t^r G_r
    for r in range(1, 9):
        gr = partitions_bounded_series(r, 40)
        assert truncated(40, gr, TPoly.t_power(r)) + (
            partitions_bounded_series(r - 1, 40)) == gr


def test_negative_order_is_refused():
    for make in (
        lambda: partitions_bounded_series(0, -1),
        lambda: hf_term_series([], -1),
        lambda: hf_term_series([2, 1], -1),
        lambda: forgotten_series_terms([2, 1], 1, -1),
        lambda: forgotten_series_terms([1, 1, 1], 1, -1),
        lambda: truncated(-1, ONE),
    ):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            make()


def test_hf_term_series_examples():
    assert hf_term_series(Partition([1]), 5) == ONE
    assert hf_term_series(Partition([1, 1]), 3) == TPoly([1, 1, 1, 1])
    # G_2 * f_(2)[1-t] collapses to -1/(1-t)
    assert hf_term_series(Partition([2]), 3) == TPoly([-1, -1, -1, -1])
    # the empty product times f_()[1-t] = 1
    assert hf_term_series(Partition([]), 2) == ONE


def test_hf_term_series_double_route():
    # the removal sum against the product form: one bounded-partition
    # series per part of mu, times the closed form of f_mu[1-t]
    for m in range(1, 8):
        for mu in partitions_of(m):
            factors = [partitions_bounded_series(part, 30) for part in mu]
            assert hf_term_series(mu, 30) == (
                truncated(30, *factors, forgotten_at_one_minus_t(mu))
            ), mu


@pytest.mark.parametrize(
    "lam, mu, coeffs",
    [([2], [2], [1, 0, 1]), ([1, 1], [2], [0, 1]), ([1, 1, 1], [2], [])],
)
def test_monomial_eval_examples(lam, mu, coeffs):
    assert monomial_eval(lam, mu) == TPoly(coeffs)


def test_monomial_eval_against_power_sum_route():
    # independent evaluation through the p basis: p_r at the staircase
    # alphabet substitutes t -> t^r into the alphabet sum
    for n in range(1, 6):
        for mu in partitions_of(n):
            powers = [j for part in mu for j in range(part)]
            for lam in partitions_of(n):
                pexp = SymFuncExpr.basis_element("m", lam).convert("p")
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


def test_series_are_truncated_at_their_order():
    # below n(n-1)/2 the untruncated terms run past the order; the series
    # keep every term up to it and none beyond
    longer = 0
    for n in range(2, 7):
        bound = n * (n - 1) // 2
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                full = forgotten_series_terms(lam, k, bound)
                for order in range(bound):
                    for (mu, term), (nu, whole) in zip(
                            forgotten_series_terms(lam, k, order), full):
                        assert mu == nu and term.degree <= order
                        assert term == truncated(order, whole), (lam, k, mu)
                        longer += whole.degree > order
    assert longer
    for m in range(1, 7):
        for mu in partitions_of(m):
            for order in range(m * (m - 1) // 2):
                assert hf_term_series(mu, order).degree <= order


def test_forgotten_coefficient_polynomiality():
    # the series sums to a polynomial of degree at most n(n-1)/2: cut at any
    # order past that, it is the exact coefficient
    for n in range(2, 6):
        bound = n * (n - 1) // 2
        for k in range(1, n + 1):
            for lam in partitions_of(n):
                exact = forgotten_coefficient(lam, k)
                assert exact.degree <= bound
                for order in range(bound + 1, bound + 6):
                    terms = forgotten_series_terms(lam, k, order)
                    assert sum((term for _, term in terms), TPoly()) == exact


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
