"""Closed forms for means and variances, and their large-n regimes."""

import math
from fractions import Fraction

import pytest

from mton import closed_forms as cf
from mton import laplace
from mton.stats import (AREA, BLOCKS, INTERVAL_PAIRS, LARGE_BLOCKS, OUTER,
                        blocks_of_size)
from mton.tree import FULL, PAIR


def test_harmonic_helpers():
    assert cf.harmonic(1) == 1
    assert cf.harmonic(4) == Fraction(25, 12)
    assert cf.harmonic2(2) == Fraction(5, 4)
    assert cf.double_factorial_odd(4) == 105
    assert cf.double_factorial_odd(1) == 1


def test_running_difference_matches_the_harmonic_sums():
    # an ascending pass, then descending, so the cursor restarts from 0
    ns = (0, 1, 2, 3, 50, 999, 10001)
    cache = cf.HarmonicCache()
    for n in ns + ns[::-1]:
        assert cache.harmonic_difference(n) \
            == cache.harmonic(n) - cache.harmonic2(n), n
    with pytest.raises(ValueError):
        cache.harmonic_difference(-1)


def test_block_count_mean_and_variance_vs_enumeration():
    for n in range(2, 8):
        poly = laplace.bruteforce_transform(BLOCKS, n)
        assert laplace.expectation_from_laplace(poly) == cf.expected_block_count(n)
        assert laplace.variance_from_laplace(poly) == cf.variance_block_count(n)


def test_variance_two_printed_forms_agree():
    for n in range(2, 300):
        assert cf.variance_block_count(n) == cf.variance_block_count_alt(n)


def test_size_means_vs_enumeration():
    for n in range(3, 8):
        poly = laplace.bruteforce_transform(blocks_of_size(1), n)
        assert laplace.expectation_from_laplace(poly) == cf.expected_size1_blocks(n)
    for n in range(4, 8):
        poly = laplace.bruteforce_transform(blocks_of_size(2), n)
        assert laplace.expectation_from_laplace(poly) == cf.expected_size2_blocks(n)
        poly = laplace.bruteforce_transform(LARGE_BLOCKS, n)
        assert laplace.expectation_from_laplace(poly) == cf.expected_size3plus_blocks(n)


def test_size_decomposition_identity():
    for n in range(4, 200):
        assert (cf.expected_block_count(n)
                == cf.expected_size1_blocks(n) + cf.expected_size2_blocks(n)
                + cf.expected_size3plus_blocks(n))


def test_size_count_increment_telescopes():
    # the per-step increment accumulates the three-block mean exactly
    for n in range(5, 40):
        assert (cf.telescoped_size3_expectation(n)
                == cf.telescoped_size3_expectation(n - 1)
                + cf.size_count_increment(3, n))
    for n in range(5, 8):
        poly = laplace.bruteforce_transform(blocks_of_size(3), n)
        assert (laplace.expectation_from_laplace(poly)
                == cf.telescoped_size3_expectation(n))
    assert cf.telescoped_size3_expectation(400) < Fraction(23, 90)


def test_mean_spot_values():
    assert cf.expected_block_count(3) == Fraction(29, 12)
    assert cf.variance_block_count(3) == Fraction(59, 144)
    assert cf.expected_size1_blocks(3) == Fraction(23, 12)
    assert cf.telescoped_size3_expectation(4) == Fraction(1, 10)


def test_outer_and_interval_means():
    for n in range(1, 7):
        poly = laplace.bruteforce_transform(OUTER, n)
        assert laplace.expectation_from_laplace(poly) == cf.expected_outer_blocks(n)
        assert cf.expected_outer_blocks(n) == Fraction(2 * n + 1, 3)
    for n in range(1, 6):
        poly = laplace.bruteforce_transform(INTERVAL_PAIRS, n, PAIR)
        assert laplace.expectation_from_laplace(poly) == cf.expected_interval_pairs(n)
        poly = laplace.bruteforce_transform(OUTER, n, PAIR)
        assert laplace.expectation_from_laplace(poly) == cf.expected_outer_pairs(n)


def test_outer_pair_closed_form_shape():
    # the library reads 4^n / C(2n, n) - 1; the printed form is a product
    for n in range(1, 301):
        want = (Fraction(2 ** n * math.factorial(n),
                         cf.double_factorial_odd(n)) - 1)
        assert cf.expected_outer_pairs(n) == want


def test_area_means_and_total():
    for n in range(1, 6):
        poly = laplace.bruteforce_transform(AREA, n, PAIR)
        assert laplace.expectation_from_laplace(poly) == cf.expected_area(n)
        total = poly.derivative().evaluate(1)
        assert total == cf.total_area(n)
    assert cf.expected_area(2) == Fraction(8, 3)
    assert cf.total_area(2) == 8


def test_expectation_recursion_step_reproduces_closed_forms():
    from mton.stats import second_kind_input
    law_full = second_kind_input(OUTER, FULL)
    law_int = second_kind_input(INTERVAL_PAIRS, PAIR)
    law_pair = second_kind_input(OUTER, PAIR)
    for n in range(2, 120):
        assert cf.expectation_recursion_step(
            law_full, cf.expected_outer_blocks(n - 1), n, FULL) \
            == cf.expected_outer_blocks(n)
        assert cf.expectation_recursion_step(
            law_int, cf.expected_interval_pairs(n - 1), n, PAIR) \
            == cf.expected_interval_pairs(n)
        assert cf.expectation_recursion_step(
            law_pair, cf.expected_outer_pairs(n - 1), n, PAIR) \
            == cf.expected_outer_pairs(n)


def test_validity_guards():
    with pytest.raises(cf.OutOfValidity):
        cf.expected_block_count(1)
    with pytest.raises(cf.OutOfValidity):
        cf.expected_size1_blocks(2)
    with pytest.raises(cf.OutOfValidity):
        cf.expected_size2_blocks(3)
    with pytest.raises(cf.OutOfValidity):
        cf.size_count_increment(3, 4)
    with pytest.raises(cf.OutOfValidity):
        cf.asymptotic_report("EY", 50)
    with pytest.raises(ValueError):
        cf.asymptotic_report("nope", 1000)


def test_asymptotic_regimes_hold_at_moderate_size():
    r = cf.asymptotic_report("EY", 10 ** 4)
    assert abs(r.difference) < 1e-3
    r = cf.asymptotic_report("VarY", 10 ** 4)
    assert abs(r.difference) < 1e-3
    r = cf.asymptotic_report("EY3", 10 ** 3)
    assert abs(r.difference) < 1e-2
    r = cf.asymptotic_report("EOutPair", 10 ** 4)
    assert 0.99 <= r.ratio <= 1.01
    lo = cf.asymptotic_report("EArea", 10 ** 5)
    hi = cf.asymptotic_report("EArea", 10 ** 6)
    assert 0.9 <= hi.ratio <= 1.1
    assert abs(1 - hi.ratio) < abs(1 - lo.ratio)


def test_euler_gamma_constant():
    assert abs(cf.EULER_GAMMA - 0.5772156649015328606) < 1e-15
