"""Degree-bounded symmetric function algebra over TRat coefficients.

Bases: e (elementary), h (complete homogeneous), m (monomial), p (power
sum), s (Schur), f (forgotten).  Every conversion pivots through the power
sum basis, where the Hall inner product and the geometric plethysm
X -> X/(1-t) are diagonal.  Transition tables are built once per degree
and cached; all entries are exact rationals.  ``convert`` puts its input
over one denominator, n! times the lcm of the coefficients' denominators,
so the tables act on integer polynomial numerators, and it reduces one
``TRat`` per output coefficient.

Each p_mu has integer coefficients in every basis, and each row of the
p -> basis tables (``_from_p``) has a closed form:

* h: p_mu is the product of the p_r over the parts r of mu, where
  p_r = sum over lam |- r of (-1)^(l-1) r (l-1)! / prod_i m_i(lam)! h_lam
  (l the length of lam), from log H(t) = sum_r p_r t^r / r;
* e: eps_mu times the h row with h relabelled e, since omega swaps h and e
  and omega p_mu = eps_mu p_mu;
* s: the character chi^lam(mu) (Frobenius);
* m: the number of ways to fill the parts of lam with the parts of mu;
* f: eps_mu times the m row, by omega again.

The basis -> p tables (``_to_p``) need no construction of their own.  Under
the Hall scalar product, where <p_mu, p_nu> = z_mu delta(mu, nu), e and f
are dual bases, as are h and m, and s is self-dual.  So if b* is the dual
basis of b, the coefficient of p_mu in b_lam is the coefficient of b*_lam
in p_mu, divided by z_mu.  No table inverts a matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .partitions import Partition, parity_sign, partitions_of, zee
from .tarith import TRat, TPoly, ONE, RAT_ZERO, divexact, poly_gcd

BASES = ("e", "h", "m", "p", "s", "f")

_DEGREE_BOUND = 10


def degree_bound():
    """The largest degree whose transition tables are built; every command
    that takes a degree checks it first."""
    return _DEGREE_BOUND


def _check_degree(n):
    if n > _DEGREE_BOUND:
        raise ValueError("degree %d exceeds bound %d" % (n, _DEGREE_BOUND))


@lru_cache(maxsize=None)
def character(lam, mu):
    """Irreducible symmetric group character chi^lam(mu).

    Computed by border-strip removal on the beta-set of lam.
    """
    lam, mu = tuple(lam), tuple(mu)
    if not mu:
        return 1 if not lam else 0
    if sum(lam) != sum(mu):
        raise ValueError("character needs |lam| = |mu|")
    r, rest = mu[0], mu[1:]
    length = len(lam)
    beta = [lam[i] + (length - 1 - i) for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        lo = b - r
        if lo < 0 or lo in beta_set:
            continue
        height = sum(1 for x in beta if lo < x < b)
        newbeta = sorted((x if x != b else lo for x in beta), reverse=True)
        newlam = tuple(x - (length - 1 - i) for i, x in enumerate(newbeta))
        newlam = tuple(x for x in newlam if x > 0)
        total += (-1) ** height * character(newlam, rest)
    return total


def _pexp_mul(a, b):
    out = {}
    for la, ca in a.items():
        for lb, cb in b.items():
            key = tuple(sorted(la + lb, reverse=True))
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


@lru_cache(maxsize=None)
def _h_of_p(r):
    """p_r in the h basis, from log H(t) = sum_r p_r t^r / r."""
    out = {}
    for lam in partitions_of(r):
        length = len(lam)
        denom = 1
        for mult in lam.multiplicities().values():
            denom *= factorial(mult)
        coeff = r * factorial(length - 1) // denom
        out[lam.parts] = coeff if length % 2 else -coeff
    return out


@lru_cache(maxsize=None)
def _assignment_count(parts, targets):
    """Number of maps from the listed parts onto slots with required sums.

    The count does not depend on the order of the slots, so each recursive
    call passes them sorted in decreasing order and shares one memo entry
    among all their orderings."""
    if not parts:
        return 1 if all(x == 0 for x in targets) else 0
    head, tail = parts[0], parts[1:]
    total = 0
    for j, cap in enumerate(targets):
        if cap >= head:
            reduced = targets[:j] + (cap - head,) + targets[j + 1 :]
            total += _assignment_count(tail, tuple(sorted(reduced, reverse=True)))
    return total


# Hall dual bases: <b_lam, b*_nu> = delta(lam, nu).
_DUAL = {"e": "f", "f": "e", "h": "m", "m": "h", "s": "s"}


@lru_cache(maxsize=None)
def _to_p(basis, n):
    """Rows lam -> {mu: Fraction} expressing basis_lam in power sums: the
    p -> dual-basis table transposed, each entry (mu, lam) over z_mu."""
    _check_degree(n)
    plist = [p.parts for p in partitions_of(n)]
    if basis == "p":
        return {lam: {lam: Fraction(1)} for lam in plist}
    if basis not in _DUAL:
        raise ValueError("unknown basis %r" % (basis,))
    rows = {lam: {} for lam in plist}
    for mu, row in _from_p(_DUAL[basis], n).items():
        z = zee(mu)
        for lam, c in row.items():
            rows[lam][mu] = Fraction(c, z)
    return rows


@lru_cache(maxsize=None)
def _from_p(basis, n):
    """Rows mu -> {lam: int} expressing p_mu in the target basis, each from
    its closed form (see the module docstring)."""
    _check_degree(n)
    plist = [p.parts for p in partitions_of(n)]
    if basis == "p":
        return {mu: {mu: 1} for mu in plist}
    if basis == "s":
        return {
            mu: {lam: character(lam, mu) for lam in plist if character(lam, mu)}
            for mu in plist
        }
    if basis in ("h", "e"):
        rows = {}
        for mu in plist:
            acc = {(): 1}
            for part in mu:
                acc = _pexp_mul(acc, _h_of_p(part))
            rows[mu] = acc
    elif basis in ("m", "f"):
        rows = {
            mu: {
                lam: _assignment_count(mu, lam)
                for lam in plist
                if _assignment_count(mu, lam)
            }
            for mu in plist
        }
    else:
        raise ValueError("unknown basis %r" % (basis,))
    if basis in ("e", "f"):
        # omega swaps h with e and m with f, and omega p_mu = eps_mu p_mu.
        rows = {
            mu: {lam: parity_sign(mu) * c for lam, c in row.items()}
            for mu, row in rows.items()
        }
    return rows


def _lcm(a, b):
    """Least common multiple of two denominators (nonzero integer
    polynomials with positive leading coefficients), content included."""
    if a.degree <= 0 and b.degree <= 0:
        return TPoly._of((lcm(a.leading(), b.leading()),))
    if a.degree <= 0:
        a, b = b, a
    if b.degree <= 0:
        return a * (b.leading() // gcd(a.content(), b.leading()))
    # Gauss's lemma: the gcd is the gcd of the contents times the primitive gcd.
    quot = divexact(b, poly_gcd(a, b))
    return a * TPoly._of(x // gcd(a.content(), b.content()) for x in quot.coeffs)


def _add_multiple(acc, k, coeffs):
    """acc += k * coeffs, on coefficient lists."""
    if len(acc) < len(coeffs):
        acc.extend([0] * (len(coeffs) - len(acc)))
    for i, x in enumerate(coeffs):
        acc[i] += k * x


class SymFuncExpr:
    """A homogeneous symmetric function: basis tag plus a finite map from
    partitions of the degree to TRat coefficients (zeros pruned)."""

    __slots__ = ("_degree", "_basis", "_terms")

    def __init__(self, degree, basis, terms):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        clean = {}
        for lam, c in dict(terms).items():
            lam = Partition(lam)
            if lam.size != degree:
                raise ValueError("%r is not a partition of %d" % (lam, degree))
            coeff = TRat._coerce(c)
            if coeff is None:
                raise TypeError("cannot use %r as a coefficient" % (c,))
            if not coeff.is_zero():
                clean[lam] = coeff
        self._degree, self._basis, self._terms = degree, basis, clean

    @classmethod
    def basis_element(cls, basis, lam, coeff=1):
        lam = Partition(lam)
        return cls(lam.size, basis, {lam: coeff})

    @property
    def degree(self):
        return self._degree

    @property
    def basis(self):
        return self._basis

    def coeff(self, lam):
        lam = Partition(lam)
        return self._terms.get(lam, RAT_ZERO)

    def terms(self):
        """Pairs (Partition, TRat) in the canonical partition order."""
        return [
            (lam, self._terms[lam])
            for lam in partitions_of(self._degree)
            if lam in self._terms
        ]

    def is_zero(self):
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, SymFuncExpr):
            return NotImplemented
        return (
            self._degree == other._degree
            and self._basis == other._basis
            and self._terms == other._terms
        )

    def __repr__(self):
        if not self._terms:
            return "SymFuncExpr(%d, %r, 0)" % (self._degree, self._basis)
        bits = ", ".join(
            "%s%s: %r" % (self._basis, list(lam.parts), c) for lam, c in self.terms()
        )
        return "SymFuncExpr{%s}" % bits

    def convert(self, target):
        """The same symmetric function written in the target basis.

        The tables are integer matrices once every p-coefficient is scaled
        by n! (each z_mu divides n!), so the map runs on integer polynomial
        numerators over one denominator: n! times the lcm of the input's
        denominators.  Each output coefficient is reduced once, at the end.
        """
        if target not in BASES:
            raise ValueError("unknown basis %r" % (target,))
        if target == self._basis:
            return self
        n = self._degree
        den = ONE
        for c in self._terms.values():
            den = _lcm(den, c.den)
        scale = factorial(n)
        in_p = {}
        to_p = _to_p(self._basis, n)
        for lam, c in self._terms.items():
            if den.degree > 0:
                num = (c.num * divexact(den, c.den)).coeffs
            else:
                num = (c.num * (den.leading() // c.den.leading())).coeffs
            for mu, scalar in to_p[lam.parts].items():
                _add_multiple(in_p.setdefault(mu, []),
                              scalar.numerator * (scale // scalar.denominator), num)
        if target == "p":
            out = in_p
        else:
            out = {}
            from_p = _from_p(target, n)
            for mu, num in in_p.items():
                for lam, scalar in from_p[mu].items():
                    _add_multiple(out.setdefault(lam, []), scalar, num)
        den = den * scale
        return SymFuncExpr(n, target, {
            lam: TRat(TPoly._of(num), den) for lam, num in out.items() if any(num)
        })

    def to_json(self):
        out = []
        for lam, c in self.terms():
            coeff = c.num.to_json() if c.is_polynomial() else c.to_json()
            out.append({"partition": lam.to_json(), "coeff": coeff})
        return {"degree": self._degree, "basis": self._basis, "terms": out}

    @classmethod
    def from_json(cls, data):
        terms = {}
        for item in data["terms"]:
            raw = item["coeff"]
            coeff = TRat.from_json(raw) if isinstance(raw, dict) else TRat(TPoly.from_json(raw))
            terms[Partition(item["partition"])] = coeff
        return cls(data["degree"], data["basis"], terms)


def hall_inner(a, b):
    """Hall scalar product, computed in the power sum basis."""
    if a.degree != b.degree:
        raise ValueError("inner product needs equal degrees")
    pa, pb = a.convert("p"), b.convert("p")
    total = RAT_ZERO
    for lam, ca in pa._terms.items():
        cb = pb._terms.get(lam)
        if cb is not None:
            total = total + ca * cb * zee(lam)
    return total


def plethysm_geometric(expr):
    """The substitution X -> X/(1-t): each p_r picks up a factor 1/(1-t^r)."""
    pexpr = expr.convert("p")
    out = {}
    for lam, c in pexpr._terms.items():
        den = ONE
        for r in lam:
            den = den * (ONE - TPoly.t_power(r))
        out[lam] = c * TRat(ONE, den)
    return SymFuncExpr(expr.degree, "p", out)
