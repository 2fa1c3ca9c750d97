"""Independent computation of the Delta operator image at q=1.

At q=1 the modified Macdonald element indexed by mu is a product of
pochhammer factors and the geometric plethysm X -> X/(1-t) of h_mu, and
e_n = sum over mu of f_mu[1-t] * h_mu[X/(1-t)].  The Delta operator for f
scales the mu-th piece by its eigenvalue f[B_mu], the plethystic evaluation
of f at the t-staircase alphabet of mu.  The plethysm is linear, so the
image is one map: the eigenvalues weight the h_mu coefficients f_mu[1-t],
and the plethysm is applied once to that sum.  Everything is exact and
entirely at q=1.
"""

from __future__ import annotations

from .partitions import Partition, partitions_of
from .specialize import _staircase_monomials, forgotten_at_one_minus_t
from .symfunc import (
    SymFuncExpr,
    degree_bound,
    hall_inner,
    plethysm_geometric,
)
from .tarith import ONE, TPoly, RAT_ZERO, t_pochhammer


def elementary_eigenvalue(mu, k):
    """e_k evaluated at the t-staircase alphabet of mu, exactly in TPoly."""
    mu = mu if isinstance(mu, Partition) else Partition(mu)
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
    mu = mu if isinstance(mu, Partition) else Partition(mu)
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


def macdonald_q1(mu):
    """The modified Macdonald element at q=1, in the power sum basis."""
    mu = mu if isinstance(mu, Partition) else Partition(mu)
    conj = mu.conjugate()
    scalar = ONE
    for part in conj:
        scalar = scalar * t_pochhammer(part)
    expr = plethysm_geometric(SymFuncExpr.basis_element("h", conj))
    return expr.scaled(scalar)


def _geometric_image(n, eigenvalue):
    """Sum over mu |- n of eigenvalue(mu) * f_mu[1-t] * h_mu[X/(1-t)], in
    power sums: the weighted h-basis sum, with the plethysm applied once."""
    weighted = SymFuncExpr(n, "h", {
        mu: eigenvalue(mu) * forgotten_at_one_minus_t(mu, n)
        for mu in partitions_of(n)
    })
    return plethysm_geometric(weighted)


def geometric_h_expansion(n):
    """The coefficient map mu -> f_mu[1-t] expanding e_n over the geometric
    plethysms of h_mu, verified by exact reconstruction of e_n."""
    expected = SymFuncExpr.basis_element("e", Partition([n])).convert("p")
    if _geometric_image(n, lambda mu: ONE) != expected:
        raise AssertionError("reconstruction of e_%d failed" % n)
    return {mu: forgotten_at_one_minus_t(mu, n) for mu in partitions_of(n)}


def delta_e(n, k):
    """The image of e_n under the Delta operator for e_k, at q=1, expanded
    in the elementary basis with integer polynomial coefficients."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if n > degree_bound():
        raise ValueError("degree %d exceeds bound %d" % (n, degree_bound()))
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


def haglund_check(n, k, fexpr):
    """Whether the inner product of the Delta image with fexpr matches the
    dual evaluation: Delta for omega(fexpr) applied to e_{k+1}, paired with
    the single-row Schur function."""
    if fexpr.degree != n:
        raise ValueError("expected an expression of degree %d" % n)
    lhs = hall_inner(delta_e(n, k), fexpr)
    rhs_expr = delta_general(fexpr.omega(), k + 1)
    rhs = hall_inner(rhs_expr, SymFuncExpr.basis_element("s", Partition([k + 1])))
    return lhs == rhs
