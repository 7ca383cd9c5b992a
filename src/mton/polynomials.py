"""Sparse exact polynomials in one variable over the rationals.

Coefficients are `int` when integral and `fractions.Fraction` otherwise;
exponents are non-negative integers.  Construction drops zero coefficients
and rejects negative exponents, so ring operations stay in normal form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from collections.abc import Mapping

from .partitions import _field

Rational = int | Fraction


class NegativeExponent(ValueError):
    """A monomial with a negative exponent survived into a polynomial."""


# str() of an int below 10**1000 stays under the interpreter's default
# sys.get_int_max_str_digits() limit of 4300 digits
_CHUNK = 10 ** 1000


def _decimal(k: int) -> str:
    """Decimal text of an integer of any length (str() refuses past the
    interpreter's digit limit), written 1000 digits at a time."""
    if -_CHUNK < k < _CHUNK:
        return str(k)
    if k < 0:
        return "-" + _decimal(-k)
    chunks = []
    while k >= _CHUNK:
        k, low = divmod(k, _CHUNK)
        chunks.append(f"{low:01000d}")
    return str(k) + "".join(reversed(chunks))


def _integer(digits: str) -> int:
    """Value of a run of decimal digits of any length, read 1000 digits
    at a time: the inverse of :func:`_decimal`."""
    head = len(digits) % 1000 or 1000
    value = int(digits[:head])
    for i in range(head, len(digits), 1000):
        value = value * _CHUNK + int(digits[i:i + 1000])
    return value


_INTEGER_RATIO = re.compile(r"\s*([-+]?)(\d+)(?:/(\d+))?\s*")
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*$")
# the interpreter's default int digit limit, sys.get_int_max_str_digits():
# a decimal exponent past it asks for a power of ten that long
_MAX_EXPONENT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or plain integer strings of any length, as
    :func:`format_rational` writes them; other forms that ``Fraction``
    reads, such as "0.5", go to it, with a decimal exponent of at most
    4300."""
    if not isinstance(text, str):
        raise ValueError(f"a rational is read from a string, got {text!r}")
    match = _INTEGER_RATIO.fullmatch(text)
    try:
        if match is None:
            exponent = _EXPONENT.search(text)
            digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
            if len(digits) > 4 or int(digits or 0) > _MAX_EXPONENT:
                raise ValueError(
                    f"decimal exponent of {text.strip()!r} is past "
                    f"{_MAX_EXPONENT}, the interpreter's int digit limit")
            return Fraction(text.strip())
        sign, num, den = match.groups()
        den = _integer(den or "1")
        if den == 0:  # Fraction's own error would print the numerator
            raise ZeroDivisionError
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None
    value = Fraction(_integer(num), den)
    return -value if sign == "-" else value


def format_rational(value: Rational) -> str:
    """Render exactly: integers bare, otherwise "p/q"."""
    f = Fraction(value)
    if f.denominator == 1:
        return _decimal(f.numerator)
    return f"{_decimal(f.numerator)}/{_decimal(f.denominator)}"


def _normal_form(coeffs: Mapping[int, Rational]) -> dict[int, Rational]:
    """Zero coefficients dropped, integral ones as ints (an int passes with
    no call) and others as Fractions; a surviving negative exponent refused."""
    f = None  # bound below once a coefficient is converted
    clean = {e: c if type(c) is int else
             f.numerator if (f := Fraction(c)).denominator == 1 else f
             for e, c in coeffs.items() if c}
    if f is not None:  # a converted string, such as "0", may be zero
        clean = {e: c for e, c in clean.items() if c}
    low = min(clean, default=0)
    if low < 0:
        raise NegativeExponent(f"exponent {low} with coefficient {clean[low]}")
    return clean


class ExactPolynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        self._coeffs = _normal_form(coeffs) if coeffs else {}

    @classmethod
    def zero(cls) -> "ExactPolynomial":
        return cls()

    @classmethod
    def monomial(cls, exponent: int, coefficient: Rational = 1) -> "ExactPolynomial":
        return cls({exponent: coefficient})

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "ExactPolynomial":
        """Histogram {value: multiplicity} -> int sum of mult * t^value."""
        return cls(counts)

    def coefficient(self, exponent: int) -> Rational:
        return self._coeffs.get(exponent, 0)

    def items(self):
        return sorted(self._coeffs.items())

    @property
    def degree(self) -> int | None:
        """Largest exponent, or None for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else None

    def is_zero(self) -> bool:
        return not self._coeffs

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        merged = dict(self._coeffs)
        for e, c in other._coeffs.items():
            merged[e] = merged.get(e, 0) + c
        return ExactPolynomial(merged)

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        merged = dict(self._coeffs)
        for e, c in other._coeffs.items():
            merged[e] = merged.get(e, 0) - c
        return ExactPolynomial(merged)

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        out: dict[int, Rational] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return ExactPolynomial(out)

    def scaled(self, factor: Rational) -> "ExactPolynomial":
        f = Fraction(factor)
        return ExactPolynomial({e: c * f for e, c in self._coeffs.items()})

    def shifted(self, amount: int) -> "ExactPolynomial":
        """Multiply by t**amount; negative shifts must not underflow."""
        return ExactPolynomial({e + amount: c for e, c in self._coeffs.items()})

    def derivative(self) -> "ExactPolynomial":
        return ExactPolynomial({e - 1: c * e for e, c in self._coeffs.items() if e > 0})

    def evaluate(self, x: Rational) -> Fraction:
        """Always a Fraction, so a quotient of two values stays exact."""
        x = Fraction(x)
        return sum((c * x ** e for e, c in self._coeffs.items()), Fraction(0))

    def to_json(self) -> dict:
        return {"coeffs": {str(e): format_rational(c) for e, c in self.items()}}

    @classmethod
    def from_json(cls, data: dict) -> "ExactPolynomial":
        # each coefficient is a string, as to_json writes it: a JSON
        # number, even an integer, is refused
        coeffs = {}
        for e, c in _field(data, "coeffs", dict).items():
            try:
                coeffs[int(e)] = parse_rational(c)
            except (TypeError, ValueError):
                raise ValueError(
                    f"field 'coeffs' maps {e!r} to {c!r}, not an integer "
                    f"exponent to a rational string") from None
        return cls(coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPolynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"ExactPolynomial({dict(self.items())!r})"

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items(), reverse=True):
            coeff = format_rational(abs(c))
            if e == 0:
                term = coeff
            else:
                var = "t" if e == 1 else f"t^{e}"
                term = var if coeff == "1" else f"{coeff}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)
