"""Exact closed-form means and variances of the block statistics.

Each formula carries the validity range in which it matches the
enumeration; outside that range OutOfValidity is raised rather than
returning an extrapolated value.  Exact work uses Fractions throughout;
only the large-n asymptotic diagnostics drop to floats, where the
remaining error (~1e-12) sits far below every tolerance used on them.

Every exact running sum (H_n, H_n^(2), D_n = H_n - H_n^(2), the partial
odd harmonic sum of the area mean and the telescoped size-3 steps) is
made by :func:`_running_sum`, one forward cursor per sum.  The direct
variance form reads D_n, stepped by (m-1)/m^2, rather than subtracting
the two harmonic sums: the sums' denominators run to thousands of
digits, and their difference costs a gcd between two of them at every
n, while each step of D_n meets only the small denominator m^2.  The
shifted form still subtracts the two sums, so comparing the two forms
checks the running difference against them.

Every formula is named once, in :data:`FORMULAS`, the table that the
CLI's ``closed-form`` and :func:`asymptotic_report` read: its exact form
and, where a large-n regime is tracked, its float value and asymptote.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from operator import truediv

from .polynomials import Rational
from .stats import SecondKindInput
from .tree import FULL, PAIR, _radix, level_count

EULER_GAMMA = 0.57721566490153286060651209008240243104215933593992


class OutOfValidity(ValueError):
    """The requested n lies outside the formula's proven range."""


def _running_sum(term):
    """n -> term(1) + ... + term(n), exact.

    The sum is one forward cursor (m, S_m), stepped one term at a time
    and restarted from 0 when a smaller n is asked for: keeping every
    value would hold a list of thousand-digit fractions per sum.
    """
    m, total = 0, Fraction(0)

    def running_sum(n: int) -> Fraction:
        nonlocal m, total
        if n < 0:
            raise ValueError("n must be >= 0")
        if n < m:
            m, total = 0, Fraction(0)
        while m < n:
            m += 1
            total += term(m)
        return total
    return running_sum


# H_n, H_n^(2) and the running difference D_n = H_n - H_n^(2)
harmonic = _running_sum(lambda m: Fraction(1, m))
harmonic2 = _running_sum(lambda m: Fraction(1, m * m))
harmonic_difference = _running_sum(lambda m: Fraction(m - 1, m * m))
# Sum_{k=1..n} 1/(2k+1), the partial odd harmonic sum of the area mean
_odd_reciprocals = _running_sum(lambda k: Fraction(1, 2 * k + 1))


def _require(n: int, low: int, name: str) -> None:
    if n < low:
        raise OutOfValidity(f"{name} holds for n >= {low}, got {n}")


def expected_block_count(n: int) -> Fraction:
    """Mean number of blocks at level n of the full tree (n >= 2)."""
    _require(n, 2, "expected_block_count")
    return n - harmonic(n) + Fraction(3, 2) - Fraction(1, n + 1)


def variance_block_count(n: int) -> Fraction:
    """Variance of the block count (n >= 2)."""
    _require(n, 2, "variance_block_count")
    return harmonic_difference(n) - Fraction((n - 1) ** 2, 4 * (n + 1) ** 2)


def variance_block_count_alt(n: int) -> Fraction:
    """Same variance through the shifted harmonic form; must agree."""
    _require(n, 2, "variance_block_count_alt")
    return harmonic(n + 1) - harmonic2(n + 1) - Fraction(1, 4)


def expected_size1_blocks(n: int) -> Fraction:
    """Mean number of singleton blocks (n >= 3)."""
    _require(n, 3, "expected_size1_blocks")
    return n - 2 * harmonic(n) + Fraction(10, 3) - Fraction(3, n + 1)


def expected_size2_blocks(n: int) -> Fraction:
    """Mean number of two-element blocks (n >= 4)."""
    _require(n, 4, "expected_size2_blocks")
    return harmonic(n) - Fraction(51, 24) + Fraction(6 * n - 1, 2 * n * (n + 1))


def expected_size3plus_blocks(n: int) -> Fraction:
    """Mean number of blocks with at least three elements (n >= 4)."""
    _require(n, 4, "expected_size3plus_blocks")
    return Fraction(7, 24) - Fraction(2 * n - 1, 2 * n * (n + 1))


def size_count_increment(size: int, n: int) -> Fraction:
    """Step n-1 -> n of the mean count of blocks of the given size
    (n >= size + 2): ((n-size+1)^2 - (n-size)) / ((n-size+1)...(n+1))."""
    _require(n, size + 2, "size_count_increment")
    den = math.prod(range(n - size + 1, n + 2))
    return Fraction((n - size + 1) ** 2 - (n - size), den)


def telescoped_size3_expectation(n: int) -> Fraction:
    """Mean number of three-element blocks, telescoped from the exact
    level-4 value 1/10 (n >= 4).  Approaches 23/90."""
    _require(n, 4, "telescoped_size3_expectation")
    return Fraction(1, 10) + _size3_steps(n - 4)


# step k is the one into level k + 4
_size3_steps = _running_sum(lambda k: size_count_increment(3, k + 4))


def expected_outer_blocks(n: int) -> Fraction:
    """Mean number of outer blocks on the full tree: (2n+1)/3."""
    _require(n, 1, "expected_outer_blocks")
    return Fraction(2 * n + 1, 3)


def expected_interval_pairs(n: int) -> Fraction:
    """Mean number of interval pairs on the pair tree: (2n+1)/3."""
    _require(n, 1, "expected_interval_pairs")
    return Fraction(2 * n + 1, 3)


def expected_outer_pairs(n: int) -> Fraction:
    """Mean number of outer blocks on the pair tree:
    2^n n!/(2n-1)!! - 1, computed as the equal 4^n / C(2n, n) - 1."""
    _require(n, 1, "expected_outer_pairs")
    return Fraction(4 ** n, math.comb(2 * n, n)) - 1


def expected_area(n: int) -> Fraction:
    """Mean area under the pair-partition paths:
    (2n+1) * Sum_{k=1..n} 1/(2k+1)."""
    _require(n, 1, "expected_area")
    return (2 * n + 1) * _odd_reciprocals(n)


def total_area(n: int) -> Fraction:
    """Sum of areas over the whole pair level: mean times (2n-1)!!."""
    _require(n, 1, "total_area")
    return expected_area(n) * level_count(n, PAIR)


def expectation_recursion_step(law: SecondKindInput, prev: Rational, n: int,
                               kind: str = FULL) -> Fraction:
    """One mean-update step of a second-kind statistic from level n-1 to
    n: scale by (A + alpha - beta)/A and add the insertion average,
    where A is the child arity of level n-1: n+1 (full) or 2n-1 (pair)."""
    if n < 2:
        raise OutOfValidity("recursion step needs n >= 2")
    arity = _radix(n - 1, kind)
    prev = Fraction(prev)
    gain = Fraction(law.alpha * law.q + law.beta * (arity - law.q), arity)
    return Fraction(arity + law.alpha - law.beta, arity) * prev + gain


# ---------------------------------------------------------------------------
# asymptotic diagnostics (floats by design; see module docstring)

class AsymptoticReport(namedtuple(
        "AsymptoticReport", "formula n exact asymptotic difference ratio")):
    __slots__ = ()


def _float_reciprocals(denominators) -> float:
    """Sum of 1.0 / k over the ints k given: each term is divided in C
    rather than in a generator, and math.fsum rounds the sum correctly."""
    return math.fsum(map(truediv, repeat(1.0), denominators))


# name -> (exact form, None or the (float value, asymptote) functions of
# n); EY3 and EOutPair convert the exact value, the only rounding there
FORMULAS = {
    "EY": (expected_block_count, (
        lambda n: n - _float_reciprocals(range(1, n + 1)) + 1.5 - 1.0 / (n + 1),
        lambda n: (n - math.log(n)) + (1.5 - EULER_GAMMA))),
    "VarY": (variance_block_count, (
        lambda n: (_float_reciprocals(range(1, n + 1))
                   - _float_reciprocals(map(pow, range(1, n + 1), repeat(2)))
                   - (n - 1) ** 2 / (4.0 * (n + 1) ** 2)),
        lambda n: math.log(n) - (math.pi ** 2 / 6 + 0.25 - EULER_GAMMA))),
    "EY1": (expected_size1_blocks, (
        lambda n: (n - 2 * _float_reciprocals(range(1, n + 1))
                   + 10.0 / 3 - 3.0 / (n + 1)),
        lambda n: n - 2 * math.log(n) + (10.0 / 3 - 2 * EULER_GAMMA))),
    "EY2": (expected_size2_blocks, (
        lambda n: (_float_reciprocals(range(1, n + 1)) - 51.0 / 24
                   + (6 * n - 1) / (2.0 * n * (n + 1))),
        lambda n: math.log(n) - (51.0 / 24 - EULER_GAMMA))),
    "EY3": (telescoped_size3_expectation, (
        lambda n: float(telescoped_size3_expectation(n)),
        lambda n: 23.0 / 90)),
    "EYge3": (expected_size3plus_blocks, None),
    "EOut": (expected_outer_blocks, None),
    "EInt": (expected_interval_pairs, None),
    "EOutPair": (expected_outer_pairs, (
        lambda n: float(expected_outer_pairs(n)),
        lambda n: math.sqrt(math.pi * n))),
    "EArea": (expected_area, (
        lambda n: (2 * n + 1) * _float_reciprocals(range(3, 2 * n + 2, 2)),
        lambda n: n * math.log(n))),
    "STotal": (total_area, None),
}


def asymptotic_report(formula: str, n: int) -> AsymptoticReport:
    """Compare a closed form against its leading asymptote at large n."""
    floats = FORMULAS[formula][1] if formula in FORMULAS else None
    if floats is None:
        raise ValueError(f"no asymptote tracked for {formula!r}")
    if n < 100:
        raise OutOfValidity("asymptotic reports need n >= 100")
    value, asymptote = floats
    exact, asym = value(n), asymptote(n)
    return AsymptoticReport(formula, n, exact, asym, exact - asym,
                            exact / asym if asym else math.inf)
