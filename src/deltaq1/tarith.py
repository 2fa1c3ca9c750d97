"""Exact coefficient arithmetic in the variable t.

Three value types, all immutable:

* ``TPoly``    integer polynomial, coefficients indexed by power of t;
* ``TSeries``  power series truncated at a fixed order;
* ``TRat``     reduced ratio of two integer polynomials.

Every quantity this package ultimately reports is an integer polynomial in
t; rationals appear only inside basis transitions and oracle intermediates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd


def _strip(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


class TPoly:
    """Integer polynomial in t. The zero polynomial has degree -1."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        vals = []
        for x in coeffs:
            if not isinstance(x, int):
                raise TypeError("TPoly coefficients must be int, got %r" % (x,))
            vals.append(x)
        self._c = tuple(_strip(vals))

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
        return TPoly((0,) * k + self._c)

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
        return TPoly(tuple(-x for x in self._c))

    def __add__(self, other):
        if isinstance(other, int):
            other = TPoly.const(other)
        if not isinstance(other, TPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return TPoly(out)

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
            return TPoly(tuple(other * x for x in self._c))
        if not isinstance(other, TPoly):
            return NotImplemented
        if not self._c or not other._c:
            return TPoly()
        out = [0] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return TPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = TPoly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        return cls(int(s) for s in data)


ZERO = TPoly()
ONE = TPoly([1])


def _as_tpoly(x):
    if isinstance(x, TPoly):
        return x
    if isinstance(x, int):
        return TPoly.const(x)
    raise TypeError("cannot interpret %r as TPoly" % (x,))


def poly_gcd(a, b):
    """Primitive gcd of two integer polynomials, positive leading coefficient."""
    fa = [Fraction(c) for c in _as_tpoly(a).coeffs]
    fb = [Fraction(c) for c in _as_tpoly(b).coeffs]

    def _fstrip(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    fa, fb = _fstrip(fa), _fstrip(fb)
    while fb:
        # fa mod fb by long division
        r = list(fa)
        lead = fb[-1]
        for i in range(len(r) - 1, len(fb) - 2, -1):
            if r[i] == 0:
                continue
            q = r[i] / lead
            for j in range(len(fb)):
                r[i - len(fb) + 1 + j] -= q * fb[j]
            r[i] = Fraction(0)
        fa, fb = fb, _fstrip(r)
    if not fa:
        return ZERO
    # Clear denominators, strip content, normalize sign.
    denom = 1
    for c in fa:
        denom = denom * c.denominator // _int_gcd(denom, c.denominator)
    ints = [int(c * denom) for c in fa]
    g = 0
    for c in ints:
        g = _int_gcd(g, abs(c))
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return TPoly(ints)


def divexact(a, b):
    """Quotient a / b, raising if the division is not exact over the integers."""
    a, b = _as_tpoly(a), _as_tpoly(b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in a.coeffs]
    quot = [Fraction(0)] * max(len(a.coeffs) - len(b.coeffs) + 1, 0)
    lead = Fraction(b.leading())
    for i in range(len(rem) - 1, len(b.coeffs) - 2, -1):
        if rem[i] == 0:
            continue
        q = rem[i] / lead
        quot[i - len(b.coeffs) + 1] = q
        for j, bc in enumerate(b.coeffs):
            rem[i - len(b.coeffs) + 1 + j] -= q * bc
    if any(rem):
        raise ValueError("inexact polynomial division")
    if any(q.denominator != 1 for q in quot):
        raise ValueError("quotient is not an integer polynomial")
    return TPoly(int(q) for q in quot)


class TSeries:
    """Integer power series in t truncated at ``order`` (inclusive).

    Arithmetic never claims accuracy past the smaller operand order: sums
    and products are truncated to it.
    """

    __slots__ = ("_order", "_c")

    def __init__(self, coeffs, order):
        if order < 0:
            raise ValueError("order must be nonnegative")
        vals = list(coeffs)[: order + 1]
        for x in vals:
            if not isinstance(x, int):
                raise TypeError("TSeries coefficients must be int")
        vals += [0] * (order + 1 - len(vals))
        self._order, self._c = order, tuple(vals)

    @classmethod
    def from_poly(cls, p, order):
        return cls(_as_tpoly(p).coeffs, order)

    @classmethod
    def zero(cls, order):
        return cls((), order)

    @classmethod
    def one(cls, order):
        return cls((1,), order)

    @property
    def order(self):
        return self._order

    @property
    def coeffs(self):
        return self._c

    def coeff(self, i):
        if not 0 <= i <= self._order:
            raise IndexError("coefficient %d beyond order %d" % (i, self._order))
        return self._c[i]

    def truncate(self, order):
        if order > self._order:
            raise ValueError("cannot extend accuracy from %d to %d" % (self._order, order))
        return TSeries(self._c, order)

    def is_zero(self):
        return not any(self._c)

    def __eq__(self, other):
        if isinstance(other, TSeries):
            return self._order == other._order and self._c == other._c
        return NotImplemented

    def __hash__(self):
        return hash((self._order, self._c))

    def __neg__(self):
        return TSeries((-x for x in self._c), self._order)

    def _coerce(self, other):
        if isinstance(other, (TPoly, int)):
            return TSeries.from_poly(_as_tpoly(other), self._order)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if not isinstance(other, TSeries):
            return NotImplemented
        order = min(self._order, other._order)
        return TSeries((self._c[i] + other._c[i] for i in range(order + 1)), order)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if not isinstance(other, TSeries):
            return NotImplemented
        order = min(self._order, other._order)
        out = [0] * (order + 1)
        for i, a in enumerate(self._c[: order + 1]):
            if a:
                for j in range(order + 1 - i):
                    b = other._c[j]
                    if b:
                        out[i + j] += a * b
        return TSeries(out, order)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse; requires constant term +1 or -1."""
        c0 = self._c[0]
        if c0 not in (1, -1):
            raise ValueError("series inverse needs constant term +-1, got %d" % c0)
        inv = [c0] + [0] * self._order
        for k in range(1, self._order + 1):
            acc = 0
            for j in range(1, k + 1):
                acc += self._c[j] * inv[k - j]
            inv[k] = -c0 * acc
        return TSeries(inv, self._order)

    def __repr__(self):
        return "%r + O(t^%d)" % (TPoly(_strip(list(self._c))), self._order + 1)


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

    def series(self, order):
        return TSeries.from_poly(self._num, order) * TSeries.from_poly(self._den, order).inverse()

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


def t_analog(m):
    """The t-analog [m]_t = 1 + t + ... + t^(m-1); zero for m = 0."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return TPoly([1] * m)


def t_pochhammer(k):
    """The product (1 - t)(1 - t^2)...(1 - t^k); empty product is 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = ONE
    for j in range(1, k + 1):
        out = out * (ONE - TPoly.t_power(j))
    return out


def partitions_bounded_series(r, order):
    """Series of partitions with largest part at most r, truncated at ``order``."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    c = [0] * (order + 1)
    c[0] = 1
    for j in range(1, r + 1):
        for d in range(j, order + 1):
            c[d] += c[d - j]
    return TSeries(c, order)


def partitions_bounded_rat(r):
    """The same generating function as a rational: 1 / prod_{j<=r} (1 - t^j)."""
    return TRat(ONE, t_pochhammer(r))
