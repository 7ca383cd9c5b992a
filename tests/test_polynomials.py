"""Exact polynomial ring over rational coefficients."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mton.polynomials import (ExactPolynomial, NegativeExponent,
                              format_rational, parse_rational)

coeffs = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    max_size=6)
polys = coeffs.map(ExactPolynomial)
int_polys = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=-20, max_value=20),
    max_size=6).map(ExactPolynomial)


def test_zero_and_monomial():
    z = ExactPolynomial()
    assert not z.items() and z.degree is None
    m = ExactPolynomial.monomial(3, Fraction(1, 2))
    assert m.coefficient(3) == Fraction(1, 2)
    assert m.degree == 3


def test_zero_coefficients_are_dropped():
    p = ExactPolynomial({0: 1, 2: 0, 5: Fraction(0)})
    assert p == ExactPolynomial({0: 1})
    assert p.degree == 0
    # a coefficient is read as Fraction reads it, and only then tested
    assert ExactPolynomial({1: "0", 2: "1/2", 3: 0.0}).items() \
        == [(2, Fraction(1, 2))]


def test_integral_coefficients_are_kept_as_ints():
    p = ExactPolynomial({0: Fraction(4, 2), 1: Fraction(1, 2), 2: 3, 3: True})
    assert [type(c) for _, c in p.items()] == [int, Fraction, int, int]
    assert p.items() == [(0, 2), (1, Fraction(1, 2)), (2, 3), (3, 1)]
    assert p.coefficient(7) == 0 and type(p.coefficient(7)) is int
    # a ring operation whose coefficients cancel to integers returns ints
    half = ExactPolynomial({1: Fraction(1, 2)})
    assert type((half + half).coefficient(1)) is int
    assert type(half.scaled(4).coefficient(1)) is int
    # evaluation stays a Fraction, so a quotient of two values is exact
    assert type(ExactPolynomial({1: 3}).evaluate(2)) is Fraction


@given(int_polys, int_polys)
@settings(max_examples=50, deadline=None)
def test_integer_polynomials_keep_int_coefficients(p, q):
    for r in (p + q, p - q, p * q, p.derivative(), p.shifted(2),
              ExactPolynomial.from_json(p.to_json())):
        assert all(type(c) is int for _, c in r.items())


def test_negative_exponent_rejected():
    with pytest.raises(NegativeExponent):
        ExactPolynomial({-1: 1})
    p = ExactPolynomial({0: 1})
    with pytest.raises(NegativeExponent):
        p.shifted(-1)


def test_known_product():
    # t (1 + 2t) (1 + 3t) = t + 5t^2 + 6t^3
    p = ExactPolynomial.monomial(1) * ExactPolynomial({0: 1, 1: 2}) \
        * ExactPolynomial({0: 1, 1: 3})
    assert p == ExactPolynomial({1: 1, 2: 5, 3: 6})


def test_evaluate_and_derivative():
    p = ExactPolynomial({3: 6, 1: 5, 0: 1})
    assert p.evaluate(1) == 12
    assert p.derivative().evaluate(1) == 23
    assert p.derivative() == ExactPolynomial({2: 18, 0: 5})


def test_from_counts_and_str():
    p = ExactPolynomial({0: 1, 1: 5, 3: 6})
    assert str(p) == "6*t^3 + 5*t + 1"
    assert str(ExactPolynomial()) == "0"
    assert str(ExactPolynomial({2: -3, 0: 1})) == "-3*t^2 + 1"
    assert str(ExactPolynomial({1: -1})) == "-t"


def test_json_round_trip():
    p = ExactPolynomial({0: 7, 1: Fraction(5, 3)})
    blob = p.to_json()
    assert blob == {"coeffs": {"0": "7", "1": "5/3"}}
    assert ExactPolynomial.from_json(blob) == p


def test_rational_text_helpers():
    assert parse_rational("5/3") == Fraction(5, 3)
    assert parse_rational("-2") == Fraction(-2)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    assert format_rational(Fraction(8, 4)) == "2"
    assert format_rational(Fraction(23, 12)) == "23/12"


def test_parse_rational_refuses_what_it_cannot_read():
    # a non-string is named; a decimal exponent past the interpreter's
    # 4300-digit limit is refused before Fraction builds the power of ten
    with pytest.raises(ValueError, match="got 5"):
        parse_rational(5)
    for text in ("1e10000000", "1e-3000000", "2.5E+4301", "1e0_0004_301"):
        with pytest.raises(ValueError, match="past 4300"):
            parse_rational(text)
    assert parse_rational("1e4300") == 10 ** 4300
    assert parse_rational("2.5e-3") == Fraction(1, 400)


def test_format_rational_past_the_int_digit_limit():
    assert format_rational(10 ** 5000 + 7) == "1" + "0" * 4999 + "7"
    value = Fraction(-(3 ** 20000), 2 ** 20000 + 1)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = f"{value.numerator}/{value.denominator}"
    finally:
        sys.set_int_max_str_digits(old)
    assert format_rational(value) == want


def test_parse_rational_reads_back_past_the_int_digit_limit():
    big = 10 ** 5000 + 7
    for value in (big, -big, Fraction(3, 2 ** 16610 + 1),
                  Fraction(-(3 ** 10000), big), Fraction(big, 3)):
        assert parse_rational(format_rational(value)) == value
    poly = ExactPolynomial({0: big, 2: Fraction(-1, big)})
    assert ExactPolynomial.from_json(poly.to_json()) == poly
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational(format_rational(big) + "/0")


@settings(max_examples=80, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == ExactPolynomial()


@settings(max_examples=80, deadline=None)
@given(polys, polys)
def test_product_rule(a, b):
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(polys, st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_evaluation_is_a_homomorphism(a, x):
    assert (a * a).evaluate(x) == a.evaluate(x) * a.evaluate(x)
    assert (a + a).evaluate(x) == 2 * a.evaluate(x)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_json_round_trip_property(a):
    assert ExactPolynomial.from_json(a.to_json()) == a


@settings(max_examples=80, deadline=None)
@given(int_polys, st.integers(min_value=-5, max_value=5))
def test_str_reads_back_as_the_same_polynomial(p, x):
    text = str(p)
    if p != ExactPolynomial() and p.coefficient(p.degree) < 0:
        assert text.split(" ")[0].count("-") == 1, text
    assert eval(text.replace("^", "**"), {"t": x}) == p.evaluate(x), text
