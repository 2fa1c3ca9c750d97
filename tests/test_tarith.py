import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaq1.tarith import (
    ONE,
    TPoly,
    TRat,
    divexact,
    poly_gcd,
)

small_polys = st.lists(st.integers(-9, 9), max_size=6).map(TPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


def test_poly_basics():
    p = TPoly([1, 2, 0, 0])
    assert p.degree == 1 and p.coeffs == (1, 2)
    assert TPoly().degree == -1
    assert (TPoly([1, 1]) * TPoly([1, -1])) == TPoly([1, 0, -1])
    assert TPoly([0, 1]) * TPoly([0, 1]) * TPoly([0, 1]) == TPoly.t_power(3)
    assert TPoly([1, 2])(3) == 7
    with pytest.raises(TypeError):
        TPoly([1.5])


def test_poly_json():
    p = TPoly([10**30, -2, 3])
    assert TPoly.from_json(p.to_json()) == p
    assert p.to_json()[0] == str(10**30)


def test_poly_refuses_non_integers():
    # a bool is not an int: TPoly([True, 2]) used to write ['True', '2']
    with pytest.raises(TypeError):
        TPoly([True, 2])
    # the reader parses decimal strings and truncates nothing else
    assert TPoly.from_json(["2", "-3", 4]) == TPoly([2, -3, 4])
    for data in ([2.9, True], [1.7], ["1", None]):
        with pytest.raises(TypeError):
            TPoly.from_json(data)
    with pytest.raises(TypeError):
        TRat.from_json({"num": [1.7], "den": ["1"]})
    # a string or an object is not a list of coefficients, though Python
    # iterates both: "12" would read as 1 + 2t
    for data, message in (("12", "'12'"), ({"0": 1}, "{'0': 1}")):
        with pytest.raises(TypeError) as err:
            TPoly.from_json(data)
        assert str(err.value) == "expected a list of coefficients, not " + message


def test_rat_canonical_form():
    r = TRat(TPoly([1, 0, -1]), TPoly([1, -1]))
    assert r == TRat(TPoly([1, 1]))
    assert r.is_polynomial() and r.as_poly() == TPoly([1, 1])
    r = TRat(TPoly([2, 2]), TPoly([4]))
    assert r.num == TPoly([1, 1]) and r.den == TPoly([2])
    r = TRat(TPoly([1]), TPoly([-1, 1]))
    assert r.den.leading() > 0
    with pytest.raises(ZeroDivisionError):
        TRat(ONE, TPoly())


def test_rat_series_example():
    one = TRat(ONE, TPoly([1, -1])) * TPoly([1, -1])
    assert one == TRat(1)


def test_rat_json():
    r = TRat(TPoly([0, 1]), TPoly([1, 0, -1]))
    assert TRat.from_json(r.to_json()) == r


@given(small_polys, small_polys)
def test_poly_ring_commutes(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_poly_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(small_polys, small_polys, st.integers(-3, 3), st.integers(0, 3))
@settings(max_examples=60)
def test_poly_arithmetic_builds_checked_polys(a, b, c, k):
    # the arithmetic builds its results unchecked; each is the polynomial
    # the checking constructor makes of its coefficients, zeros stripped
    for result in (a + b, a - b, c - a, a + c, -a, a * b, a * c, c * a,
                   a.shift(k)):
        again = TPoly(result.coeffs)
        assert result == again
        assert hash(result) == hash(again)
        assert result.coeffs[-1:] != (0,)


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_rat_inverse_pairs(a, b):
    r = TRat(a, b)
    assert r * TRat(b, a) == TRat(1)


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert divexact(a, g) * g == a
    assert divexact(b, g) * g == b


def _primitive_part(p):
    c = p.content()
    q = TPoly(x // c for x in p.coeffs)
    return -q if q.leading() < 0 else q


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=100)
def test_rat_cancels_common_factor(a, b, c):
    assert TRat(a * c, b * c) == TRat(a, b)


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=100)
def test_gcd_keeps_planted_factor(a, b, c):
    g = poly_gcd(a * c, b * c)
    divexact(g, _primitive_part(c))  # raises unless the factor divides g
    assert g.content() == 1 and g.leading() > 0


def test_gcd_zero_and_constant_operands():
    assert poly_gcd(TPoly(), TPoly()) == TPoly()
    assert poly_gcd(TPoly(), TPoly([-2, -4])) == TPoly([1, 2])
    assert poly_gcd(TPoly([0, 3]), TPoly()) == TPoly([0, 1])
    assert poly_gcd(6, 4) == ONE
    assert poly_gcd(TPoly([-6]), TPoly([0, 4])) == ONE
    assert poly_gcd(TPoly([-1, 0, 1]), TPoly([2, 2])) == TPoly([1, 1])
    r = TRat(TPoly([0, -2]), -4)
    assert r.num == TPoly([0, 1]) and r.den == TPoly([2])
    r = TRat(6, TPoly([3, 9]))
    assert r.num == TPoly([2]) and r.den == TPoly([1, 3])


def test_divexact_integer_division():
    assert divexact(TPoly([2, 4]), 2) == TPoly([1, 2])
    assert divexact(TPoly([-1, 0, 1]), TPoly([-1, 1])) == TPoly([1, 1])
    assert divexact(TPoly(), TPoly([1, 1])) == TPoly()
    with pytest.raises(ValueError):
        divexact(1, 2)  # not an integer quotient
    with pytest.raises(ValueError):
        divexact(TPoly([1, 0, 1]), TPoly([1, 1]))  # remainder 2
    with pytest.raises(ValueError):
        divexact(TPoly([1, 1]), TPoly([1, 2]))
    with pytest.raises(ZeroDivisionError):
        divexact(ONE, TPoly())
