"""Closed-form specializations of the forgotten basis, and the
forgotten-basis coefficient of the Delta image as an exact polynomial.

The key evaluations are f_mu at the one-letter alphabets 1 and 1-t, and
the evaluation of a monomial symmetric function at the t-staircase
alphabet of a partition.  The coefficient <Delta_{e_k} e_n, f_lam> at q=1
is a sum over mu |- k+1 of m_lam[B_mu] * f_mu[1-t] / prod_i (t;t)_{mu_i}.
Each denominator divides D = (t;t)_{k+1}, so each term is an exact
polynomial numerator over D: ``forgotten_series_terms`` lists the
numerators and ``forgotten_coefficient`` divides their sum by D.

The term of mu, with the sign parity_sign(mu) undone, is the weight series
of the labelled diagrams whose rows rearrange mu, and the involution of
``diagrams`` cancels the signed sum down to the M-polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .partitions import Partition, parity_sign, partitions_of, rearrangement_count
from .tarith import ONE, TPoly, divexact


def _as_partition(mu):
    return mu if isinstance(mu, Partition) else Partition(mu)


def _staircase_monomials(mu):
    """The t-staircase alphabet of mu as t-powers: 0..mu_i-1 per part."""
    return [j for part in mu for j in range(part)]


def _t_pochhammer(r):
    """(t;t)_r = (1 - t)(1 - t^2)...(1 - t^r); 1 for r = 0."""
    return prod((ONE - TPoly.t_power(j) for j in range(1, r + 1)), start=ONE)


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


def monomial_eval(lam, mu):
    """m_lam evaluated at the alphabet of t-powers t^0..t^(mu_i - 1), one
    block per part of mu.  One letter t^j at a time takes no part of lam or
    one part value v, for t^(j v); the coefficient lists are kept by the
    parts not yet placed, while the letters left can place them, and the
    answer is the one with none left.  Zero when lam has more parts than mu
    has cells."""
    lam, powers = _as_partition(lam), _staircase_monomials(mu)
    placing = {lam.parts: [1]} if len(lam) <= len(powers) else {}
    for room, j in zip(range(len(powers) - 1, -1, -1), powers):
        # room: the letters after this one
        taken = {rest: list(c) for rest, c in placing.items() if len(rest) <= room}
        for rest, coeffs in placing.items():
            for v in set(rest):
                i = rest.index(v)
                acc = taken.setdefault(rest[:i] + rest[i + 1:], [])
                acc += [0] * (j * v + len(coeffs) - len(acc))
                for d, x in enumerate(coeffs, j * v):
                    acc[d] += x
        placing = taken
    return TPoly(placing.get((), ()))


@lru_cache
def _mu_factor(mu):
    # f_mu[1-t] times the t-multinomial [|mu|; mu]_t, the same for every lam
    return forgotten_at_one_minus_t(mu) * divexact(
        _t_pochhammer(mu.size), prod(map(_t_pochhammer, mu), start=ONE))


def forgotten_series_terms(lam, k):
    """The terms of the coefficient series over the common denominator
    D = (t;t)_{k+1}, one per mu |- k+1: mu paired with the exact numerator
    monomial_eval(lam, mu) * f_mu[1-t] * [k+1; mu]_t, where the
    t-multinomial [k+1; mu]_t is D / prod_i (t;t)_{mu_i}.  The term of mu
    has the sign parity_sign(mu)."""
    lam = _as_partition(lam)
    return [(mu, monomial_eval(lam, mu) * _mu_factor(mu))
            for mu in partitions_of(k + 1)]


def forgotten_coefficient(lam, k):
    """The forgotten-basis coefficient of the Delta image,
    <Delta_{e_k} e_n, f_lam> at q=1, as an exact polynomial: the sum of the
    numerators of ``forgotten_series_terms`` divided by D = (t;t)_{k+1}.
    Raises ValueError when D does not divide it, so the sum is no
    polynomial."""
    lam = _as_partition(lam)
    n = lam.size
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= %d, got k=%d" % (n, k))
    numerator = sum((term for _, term in forgotten_series_terms(lam, k)), TPoly())
    return divexact(numerator, _t_pochhammer(k + 1))
