"""Exact coefficient arithmetic in the variable t.

Two value types, both immutable:

* ``TPoly``    integer polynomial, coefficients indexed by power of t;
* ``TRat``     reduced ratio of two integer polynomials.

Every quantity this package ultimately reports is an integer polynomial in
t.  ``TRat`` is the field of the eigenoperator oracle: rationals appear only
among its intermediates (the plethysm, the Hall scalar product, the result
of a basis conversion).  A basis conversion, like ``specialize``, sums
integer polynomial numerators over one known denominator; ``specialize``
then divides it out with ``divexact``.  The polynomial arithmetic behind
``TRat`` is over ``int`` alone: ``poly_gcd`` is Euclid on primitive parts
with pseudo-remainders, ``divexact`` is integer long division, and a ratio
with a constant numerator or denominator needs no gcd at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .partitions import int_entries


def _strip(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _add(p, q):
    """Sum of two coefficient lists."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, x in enumerate(q):
        out[i] += x
    return out


class TPoly:
    """Integer polynomial in t. The zero polynomial has degree -1."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        self._c = tuple(_strip(int_entries(coeffs)))

    @classmethod
    def _of(cls, coeffs):
        """Unchecked: ``coeffs`` ints, as the arithmetic below builds them
        from coefficients already checked; trailing zeros are stripped."""
        poly = object.__new__(cls)
        poly._c = tuple(_strip(coeffs))
        return poly

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def t_power(cls, k):
        if k < 0:
            raise ValueError("negative power of t")
        return cls([0] * k + [1])

    @property
    def coeffs(self):
        return self._c

    @property
    def degree(self):
        return len(self._c) - 1

    def is_zero(self):
        return not self._c

    def coeff(self, i):
        return self._c[i] if 0 <= i < len(self._c) else 0

    def leading(self):
        return self._c[-1] if self._c else 0

    def content(self):
        g = 0
        for x in self._c:
            g = _int_gcd(g, abs(x))
        return g

    def shift(self, k):
        """Multiply by t**k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift")
        if not self._c:
            return self
        return TPoly._of((0,) * k + self._c)

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if isinstance(other, TPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == (() if other == 0 else (other,))
        return NotImplemented

    def __hash__(self):
        return hash(self._c)

    def __neg__(self):
        return TPoly._of(-x for x in self._c)

    def __add__(self, other):
        if isinstance(other, int):
            other = TPoly.const(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        return TPoly._of(_add(self._c, other._c))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = TPoly.const(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return TPoly._of(other * x for x in self._c)
        if not isinstance(other, TPoly):
            return NotImplemented
        if not self._c or not other._c:
            return TPoly._of(())
        out = [0] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return TPoly._of(out)

    __rmul__ = __mul__

    def __call__(self, x):
        out = 0
        for c in reversed(self._c):
            out = out * x + c
        return out

    def __repr__(self):
        if not self._c:
            return "0"
        bits = []
        for i, c in enumerate(self._c):
            if c == 0:
                continue
            if i == 0:
                bits.append(str(c))
            else:
                mono = "t" if i == 1 else "t^%d" % i
                if c == 1:
                    bits.append(mono)
                elif c == -1:
                    bits.append("-" + mono)
                else:
                    bits.append("%d*%s" % (c, mono))
        return " + ".join(bits).replace("+ -", "- ")

    def to_json(self):
        return [str(c) for c in self._c]

    @classmethod
    def from_json(cls, data):
        """Read what to_json writes: decimal strings are parsed, and any
        other entry must be an int itself; nothing is truncated."""
        return cls(int(s) if isinstance(s, str) else s for s in data)


ZERO = TPoly()
ONE = TPoly([1])


def _as_tpoly(x):
    if isinstance(x, TPoly):
        return x
    if isinstance(x, int):
        return TPoly.const(x)
    raise TypeError("cannot interpret %r as TPoly" % (x,))


def _primitive(coeffs):
    """The coefficient list divided by its integer content (sign kept)."""
    g = 0
    for x in coeffs:
        g = _int_gcd(g, x)
    return [x // g for x in coeffs] if g > 1 else coeffs


def _pseudo_remainder(a, b):
    """Remainder of lead(b)^k * a on division by b, over the integers.

    Each step scales the dividend by the divisor's leading coefficient and
    subtracts a multiple of the shifted divisor, so no step leaves Z.
    """
    r, lead, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        top = r.pop()
        shift = len(r) - db
        r = [x * lead for x in r]
        for j in range(db):
            r[shift + j] -= top * b[j]
        r = _strip(r)
    return r


def poly_gcd(a, b):
    """Primitive gcd of two integer polynomials, positive leading coefficient.

    Euclid on primitive parts: each step replaces (a, b) by (b, the
    primitive part of the pseudo-remainder of a by b).  By Gauss's lemma
    the last nonzero term is the primitive gcd up to sign.
    """
    a = _primitive(list(_as_tpoly(a).coeffs))
    b = _primitive(list(_as_tpoly(b).coeffs))
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    if not a:
        return ZERO
    return TPoly(a if a[-1] > 0 else [-x for x in a])


def divexact(a, b):
    """Quotient a / b, raising ValueError if it is not an integer polynomial.

    Long division with ``divmod`` on the leading coefficient: it stops at
    the first quotient coefficient that is not an integer, and at a nonzero
    final remainder.
    """
    a, b = _as_tpoly(a), _as_tpoly(b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, bc = list(a.coeffs), b.coeffs
    db, lead = len(bc) - 1, bc[-1]
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        if not rem[i]:
            continue
        q, r = divmod(rem[i], lead)
        if r:
            raise ValueError("quotient is not an integer polynomial")
        quot[i - db] = q
        for j in range(db):
            rem[i - db + j] -= q * bc[j]
    if any(rem[:db]):
        raise ValueError("inexact polynomial division")
    return TPoly(quot)


class TRat:
    """Reduced ratio of integer polynomials in t.

    Canonical form: numerator and denominator share no polynomial factor
    and no integer content, and the denominator has a positive leading
    coefficient.  Structural equality is mathematical equality.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=ONE):
        num, den = _as_tpoly(num), _as_tpoly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self._num, self._den = ZERO, ONE
            return
        # A nonzero constant shares no polynomial factor with anything.
        if num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = divexact(num, g), divexact(den, g)
        c = _int_gcd(num.content(), den.content())
        if c > 1:
            num = TPoly(x // c for x in num.coeffs)
            den = TPoly(x // c for x in den.coeffs)
        if den.leading() < 0:
            num, den = -num, -den
        self._num, self._den = num, den

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        return cls(TPoly.const(q.numerator), TPoly.const(q.denominator))

    @property
    def num(self):
        return self._num

    @property
    def den(self):
        return self._den

    def is_zero(self):
        return self._num.is_zero()

    def is_polynomial(self):
        return self._den == ONE

    def as_poly(self):
        if not self.is_polynomial():
            raise ValueError("%r is not a polynomial" % (self,))
        return self._num

    @staticmethod
    def _coerce(x):
        if isinstance(x, TRat):
            return x
        if isinstance(x, (TPoly, int)):
            return TRat(_as_tpoly(x))
        if isinstance(x, Fraction):
            return TRat.from_fraction(x)
        return None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __neg__(self):
        out = object.__new__(TRat)
        out._num, out._den = -self._num, self._den
        return out

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TRat(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return TRat(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero TRat")
        return self * TRat(other._den, other._num)

    def __repr__(self):
        if self.is_polynomial():
            return repr(self._num)
        return "(%r) / (%r)" % (self._num, self._den)

    def to_json(self):
        return {"num": self._num.to_json(), "den": self._den.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(TPoly.from_json(data["num"]), TPoly.from_json(data["den"]))


RAT_ZERO = TRat(ZERO)
