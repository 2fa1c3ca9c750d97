"""Closed-form specializations of the forgotten basis and the formal
coefficient series built from them.

The key evaluations are f_mu at the one-letter alphabets 1 and 1-t, the
series factor h_mu[1/(1-t)] * f_mu[1-t], the evaluation of a monomial
symmetric function at the t-staircase alphabet of a partition, and the
formal power series that sums to the forgotten-basis inner product of the
Delta image.  ``forgotten_coefficient`` returns that inner product as an
exact polynomial: the series times a known denominator, divided out.

Each series is a ``TPoly`` truncated at its ``order``: ``truncated`` drops
every term past t^order, from each factor before it multiplies, and
refuses a negative order.

The coefficient series is the signed weight series of the labelled
diagrams: its term of mu, with the sign parity_sign(mu) undone, counts by
weight the diagrams whose rows rearrange mu, and the involution of
``diagrams`` cancels the sum down to the M-polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .partitions import (
    Partition,
    padded_rearrangements,
    parity_sign,
    partitions_of,
    rearrangement_count,
)
from .tarith import ONE, TPoly, divexact


def _as_partition(mu):
    return mu if isinstance(mu, Partition) else Partition(mu)


def _staircase_monomials(mu):
    """The t-staircase alphabet of mu as t-powers: 0..mu_i-1 per part."""
    return [j for part in mu for j in range(part)]


def truncated(order, *factors):
    """The product of the polynomial factors as a series up to t^order.
    Terms past t^order are dropped from each factor before it multiplies
    and from each partial product, so none is carried into the next
    product.  With no factor, the series 1."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    out = ONE
    for factor in factors:
        if factor.degree > order:
            factor = TPoly(factor.coeffs[: order + 1])
        out = out * factor
        if out.degree > order:
            out = TPoly(out.coeffs[: order + 1])
    return out


def partitions_bounded_series(r, order):
    """Series of partitions with largest part at most r, truncated at ``order``."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return _bounded_series(1, (r,), order)


def _bounded_series(c, parts, order):
    """c times the product of the series of partitions with largest part at
    most r, one for each r in ``parts``, truncated at ``order``.  That series
    is 1 / ((1-t)(1-t^2)...(1-t^r)), and dividing by 1 - t^j is a running
    sum with stride j."""
    coeffs = [c] + [0] * order
    for r in parts:
        for j in range(1, r + 1):
            for d in range(j, order + 1):
                coeffs[d] += coeffs[d - j]
    return truncated(order, TPoly(coeffs))  # which refuses a negative order


def forgotten_at_one(mu):
    """f_mu evaluated at the alphabet 1: a signed rearrangement count."""
    mu = _as_partition(mu)
    return parity_sign(mu) * rearrangement_count(mu)


def forgotten_at_one_minus_t(mu):
    """f_mu evaluated at the alphabet 1 - t, as an integer polynomial.

    The removal sum runs over distinct part values of mu: the underlying
    decomposition splits off a single part, so each value contributes once.
    """
    mu = _as_partition(mu)
    acc = TPoly.const(rearrangement_count(mu))
    for value in sorted(set(mu.parts)):
        acc = acc - TPoly.t_power(value) * rearrangement_count(mu.remove(value))
    return parity_sign(mu) * acc


def hf_term_series(mu, order):
    """The series h_mu[1/(1-t)] * f_mu[1-t], truncated at ``order``, as the
    single-removal sum G_{i-1} * prod G_{mu_j, j != one copy of i} *
    |R(mu-(i))| over the distinct parts i of mu, G_r the series of
    partitions with parts at most r; 1 for the empty partition.  The sign
    parity_sign(mu) is included."""
    return _removal_sum(_as_partition(mu), order)


@lru_cache
def _removal_sum(mu, order):
    # the same for every lam, so it is kept for the next one
    if not mu:
        return truncated(order)
    removal = TPoly()
    for value in sorted(set(mu.parts)):
        reduced = mu.remove(value)
        removal = removal + _bounded_series(
            rearrangement_count(reduced), (value - 1, *reduced), order)
    return removal * parity_sign(mu)


def _monomial_degree(lam, mu):
    """The degree of m_lam at the staircase alphabet of mu, when lam has at
    most as many parts as mu has cells: the largest power pairs the largest
    exponents with the largest parts."""
    return sum(map(mul, sorted(_staircase_monomials(mu), reverse=True), lam))


def monomial_eval(lam, mu):
    """m_lam evaluated at the alphabet of t-powers t^0..t^(mu_i - 1), one
    block per part of mu.  Zero when lam has more parts than mu has cells."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    cells = mu.size
    if len(lam) > cells:
        return TPoly()
    exponents = _staircase_monomials(mu)
    coeffs = [0] * (1 + _monomial_degree(lam, mu))
    for arrangement in padded_rearrangements(lam, cells):
        coeffs[sum(map(mul, exponents, arrangement))] += 1
    return TPoly(coeffs)


def forgotten_series_terms(lam, k, order):
    """The terms of the coefficient series, one per mu |- k+1: mu paired
    with hf_term_series(mu) * monomial_eval(lam, mu), truncated at
    ``order``.  The term of mu has the sign parity_sign(mu)."""
    lam = _as_partition(lam)
    return [(mu, truncated(order, hf_term_series(mu, order), monomial_eval(lam, mu)))
            for mu in partitions_of(k + 1)]


def forgotten_coefficient(lam, k):
    """The forgotten-basis coefficient of the Delta image,
    <Delta_{e_k} e_n, f_lam> at q=1, as an exact polynomial: the sum of
    ``forgotten_series_terms`` times D = (t;t)_{k+1}, divided by D.  Raises
    ValueError when D does not divide it, so the sum is no polynomial."""
    lam = _as_partition(lam)
    n = lam.size
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= %d, got k=%d" % (n, k))
    # The term of mu |- k+1 is m_lam[B_mu] f_mu[1-t] / prod_i (t;t)_{mu_i}.
    # Each prod_i (t;t)_{mu_i} divides D; the quotient is the t-multinomial
    # of mu, of degree deg D - sum_i C(mu_i + 1, 2), and f_mu[1-t] has
    # degree at most mu_1.  So the sum S times D is a polynomial N of degree
    # at most deg D plus the largest deg m_lam[B_mu] + mu_1 - sum_i
    # C(mu_i + 1, 2).  S and D cut at that degree multiply to N itself, and
    # S = N / D exactly, a polynomial when the division leaves no remainder.
    denominator = ONE
    for j in range(1, k + 2):
        denominator = denominator * (ONE - TPoly.t_power(j))
    order = denominator.degree + max(
        _monomial_degree(lam, mu) + mu[0] - sum(p * (p + 1) // 2 for p in mu)
        for mu in partitions_of(k + 1))
    series = sum((term for _, term in forgotten_series_terms(lam, k, order)),
                 TPoly())
    return divexact(truncated(order, series, denominator), denominator)
