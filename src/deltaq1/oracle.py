"""Independent computation of the Delta operator image at q=1.

At q=1, e_n = sum over mu |- n of f_mu[1-t] * h_mu[X/(1-t)], and each
h_mu[X/(1-t)] is a scalar multiple of a modified Macdonald polynomial, so
the Delta operator for f scales the mu-th piece by its eigenvalue f[B_mu],
the plethystic evaluation of f at the t-staircase alphabet of mu.  The
plethysm X -> X/(1-t) is linear, so the image is one map: the eigenvalues
weight the h_mu coefficients f_mu[1-t], and the plethysm is applied once to
that sum.  Everything is exact and entirely at q=1.

The oracle takes only the staircase alphabet and f_mu[1-t] from
``specialize``, never another route's answer: ``verify`` compares its image
with the models and with the forgotten-basis series.
"""

from __future__ import annotations

from .partitions import Partition, partitions_of
from .specialize import _staircase_monomials, forgotten_at_one_minus_t
from .symfunc import SymFuncExpr, _check_degree, plethysm_geometric
from .tarith import ONE, TPoly, RAT_ZERO


def elementary_eigenvalue(mu, k):
    """e_k evaluated at the t-staircase alphabet of mu, exactly in TPoly."""
    mu = Partition(mu)
    if k < 0:
        raise ValueError("k must be nonnegative")
    coeffs = [ONE] + [TPoly()] * k
    for power in _staircase_monomials(mu):
        mono = TPoly.t_power(power)
        for j in range(k, 0, -1):
            coeffs[j] = coeffs[j] + coeffs[j - 1] * mono
    return coeffs[k]


def eval_at_staircase(expr, mu):
    """Plethystic evaluation of a symmetric function at the t-staircase
    alphabet of mu; each p_r substitutes t -> t^r into the alphabet sum.
    Coefficients of the expression are treated as scalars."""
    mu = Partition(mu)
    powers = _staircase_monomials(mu)
    pexpr = expr.convert("p")
    total = RAT_ZERO
    for lam, c in pexpr.terms():
        factor = ONE
        for r in lam:
            factor = factor * TPoly(_power_sum_coeffs(powers, r))
        total = total + c * factor
    return total


def _power_sum_coeffs(powers, r):
    top = max(powers, default=0) * r
    out = [0] * (top + 1)
    for j in powers:
        out[j * r] += 1
    return out


def _geometric_image(n, eigenvalue):
    """Sum over mu |- n of eigenvalue(mu) * f_mu[1-t] * h_mu[X/(1-t)], in
    power sums: the weighted h-basis sum, with the plethysm applied once.
    A degree over the bound is refused before any partition of n is met."""
    _check_degree(n)
    weighted = SymFuncExpr(n, "h", {
        mu: eigenvalue(mu) * forgotten_at_one_minus_t(mu)
        for mu in partitions_of(n)
    })
    return plethysm_geometric(weighted)


def delta_e(n, k):
    """The image of e_n under the Delta operator for e_k, at q=1, expanded
    in the elementary basis with integer polynomial coefficients."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    image = _geometric_image(n, lambda mu: elementary_eigenvalue(mu, k))
    result = image.convert("e")
    for lam, c in result.terms():
        if not c.is_polynomial():
            raise AssertionError(
                "coefficient of e_%r is not a polynomial: %r" % (lam, c)
            )
    return result


def delta_general(fexpr, n):
    """The image of e_n under the Delta operator for an arbitrary symmetric
    function, at q=1, in the power sum basis."""
    pexpr = fexpr.convert("p")
    return _geometric_image(n, lambda mu: eval_at_staircase(pexpr, mu))

