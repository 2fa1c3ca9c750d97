"""Degree-bounded symmetric function algebra over TRat coefficients.

Bases: e (elementary), h (complete homogeneous), m (monomial), p (power
sum), s (Schur), f (forgotten).  Every conversion pivots through the power
sum basis, where the Hall inner product and the geometric plethysm
X -> X/(1-t) are diagonal.  Transition tables are built once per degree
and cached; all entries are exact rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .partitions import Partition, partitions_of, zee
from .tarith import TRat, TPoly, ONE, RAT_ZERO

BASES = ("e", "h", "m", "p", "s", "f")

_DEGREE_BOUND = 10


def degree_bound():
    """The largest degree whose transition tables are built; every command
    that takes a degree checks it first."""
    return _DEGREE_BOUND


def _check_degree(n):
    if n > _DEGREE_BOUND:
        raise ValueError("degree %d exceeds bound %d" % (n, _DEGREE_BOUND))


def _eps(mu):
    """Sign of omega on p_mu."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


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
def _pexp_h(r):
    return {nu.parts: Fraction(1, zee(nu)) for nu in partitions_of(r)}


@lru_cache(maxsize=None)
def _pexp_e(r):
    return {nu.parts: Fraction(_eps(nu.parts), zee(nu)) for nu in partitions_of(r)}


@lru_cache(maxsize=None)
def _assignment_count(parts, targets):
    """Number of maps from the listed parts onto slots with required sums."""
    if not parts:
        return 1 if all(x == 0 for x in targets) else 0
    head, tail = parts[0], parts[1:]
    total = 0
    for j, cap in enumerate(targets):
        if cap >= head:
            reduced = targets[:j] + (cap - head,) + targets[j + 1 :]
            total += _assignment_count(tail, reduced)
    return total


def _invert(rows):
    """Inverse of a square matrix of Fractions by Gaussian elimination."""
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [r[n:] for r in aug]


@lru_cache(maxsize=None)
def _to_p(basis, n):
    """Rows lam -> {mu: Fraction} expressing basis_lam in power sums."""
    _check_degree(n)
    plist = [p.parts for p in partitions_of(n)]
    if basis == "p":
        return {lam: {lam: Fraction(1)} for lam in plist}
    if basis in ("e", "h"):
        row_of = _pexp_e if basis == "e" else _pexp_h
        out = {}
        for lam in plist:
            acc = {(): Fraction(1)}
            for part in lam:
                acc = _pexp_mul(acc, row_of(part))
            out[lam] = acc
        return out
    if basis == "s":
        return {
            lam: {
                mu: Fraction(character(lam, mu), zee(Partition(mu)))
                for mu in plist
                if character(lam, mu)
            }
            for lam in plist
        }
    if basis == "m":
        # p_mu = sum_lam R[mu][lam] m_lam; invert R to express m in p.
        r_rows = [
            [Fraction(_assignment_count(mu, lam)) for lam in plist] for mu in plist
        ]
        r_inv = _invert(r_rows)
        return {
            lam: {
                mu: r_inv[i][j]
                for j, mu in enumerate(plist)
                if r_inv[i][j]
            }
            for i, lam in enumerate(plist)
        }
    if basis == "f":
        mrows = _to_p("m", n)
        return {
            lam: {mu: c * _eps(mu) for mu, c in row.items()}
            for lam, row in mrows.items()
        }
    raise ValueError("unknown basis %r" % (basis,))


@lru_cache(maxsize=None)
def _from_p(basis, n):
    """Rows mu -> {lam: Fraction} expressing p_mu in the target basis."""
    _check_degree(n)
    if basis == "p":
        return {p.parts: {p.parts: Fraction(1)} for p in partitions_of(n)}
    plist = [p.parts for p in partitions_of(n)]
    table = _to_p(basis, n)
    rows = [[table[lam].get(mu, Fraction(0)) for mu in plist] for lam in plist]
    inv = _invert(rows)
    return {
        mu: {lam: inv[i][j] for j, lam in enumerate(plist) if inv[i][j]}
        for i, mu in enumerate(plist)
    }


def _coerce_coeff(c):
    if isinstance(c, TRat):
        return c
    if isinstance(c, (TPoly, int)):
        return TRat(c)
    if isinstance(c, Fraction):
        return TRat.from_fraction(c)
    raise TypeError("cannot use %r as a coefficient" % (c,))


class SymFuncExpr:
    """A homogeneous symmetric function: basis tag plus a finite map from
    partitions of the degree to TRat coefficients (zeros pruned)."""

    __slots__ = ("_degree", "_basis", "_terms")

    def __init__(self, degree, basis, terms):
        if basis not in BASES:
            raise ValueError("unknown basis %r" % (basis,))
        clean = {}
        for lam, c in dict(terms).items():
            lam = lam if isinstance(lam, Partition) else Partition(lam)
            if lam.size != degree:
                raise ValueError("%r is not a partition of %d" % (lam, degree))
            c = _coerce_coeff(c)
            if not c.is_zero():
                clean[lam] = c
        self._degree, self._basis, self._terms = degree, basis, clean

    @classmethod
    def basis_element(cls, basis, lam, coeff=1):
        lam = lam if isinstance(lam, Partition) else Partition(lam)
        return cls(lam.size, basis, {lam: coeff})

    @property
    def degree(self):
        return self._degree

    @property
    def basis(self):
        return self._basis

    def coeff(self, lam):
        lam = lam if isinstance(lam, Partition) else Partition(lam)
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

    def scaled(self, c):
        c = _coerce_coeff(c)
        return SymFuncExpr(
            self._degree,
            self._basis,
            {lam: v * c for lam, v in self._terms.items()},
        )

    def __add__(self, other):
        if not isinstance(other, SymFuncExpr):
            return NotImplemented
        if other._basis != self._basis or other._degree != self._degree:
            raise ValueError("cannot add expressions in different bases or degrees")
        terms = dict(self._terms)
        for lam, c in other._terms.items():
            terms[lam] = terms.get(lam, RAT_ZERO) + c
        return SymFuncExpr(self._degree, self._basis, terms)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def convert(self, target):
        """The same symmetric function written in the target basis."""
        if target not in BASES:
            raise ValueError("unknown basis %r" % (target,))
        if target == self._basis:
            return self
        _check_degree(self._degree)
        in_p = {}
        to_p = _to_p(self._basis, self._degree)
        for lam, c in self._terms.items():
            for mu, scalar in to_p[lam.parts].items():
                cur = in_p.get(mu, RAT_ZERO) + c * TRat.from_fraction(scalar)
                in_p[mu] = cur
        if target == "p":
            return SymFuncExpr(self._degree, "p", in_p)
        out = {}
        from_p = _from_p(target, self._degree)
        for mu, c in in_p.items():
            if c.is_zero():
                continue
            for lam, scalar in from_p[mu].items():
                out[lam] = out.get(lam, RAT_ZERO) + c * TRat.from_fraction(scalar)
        return SymFuncExpr(self._degree, target, out)

    def omega(self):
        """The standard involution: e <-> h, m <-> f, s_lam -> s_lam',
        p_r -> (-1)^(r-1) p_r."""
        swap = {"e": "h", "h": "e", "m": "f", "f": "m"}
        if self._basis in swap:
            return SymFuncExpr(self._degree, swap[self._basis], self._terms)
        if self._basis == "s":
            return SymFuncExpr(
                self._degree,
                "s",
                {lam.conjugate(): c for lam, c in self._terms.items()},
            )
        return SymFuncExpr(
            self._degree,
            "p",
            {lam: c * _eps(lam.parts) for lam, c in self._terms.items()},
        )

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
