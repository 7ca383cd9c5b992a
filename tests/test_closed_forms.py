"""Closed forms for means and variances, and their large-n regimes."""

import math
from fractions import Fraction
from itertools import repeat

import pytest

from mton import closed_forms as cf
from mton import laplace
from mton.stats import (AREA, BLOCKS, INTERVAL_PAIRS, LARGE_BLOCKS, OUTER,
                        blocks_of_size)
from mton.tree import FULL, PAIR, level_count


def test_float_sums_equal_their_generator_forms_bit_for_bit():
    n = 10 ** 5
    ks = range(1, n + 1)
    # the three denominator runs that FORMULAS passes
    assert cf._float_reciprocals(ks) == math.fsum(1.0 / k for k in ks)
    assert cf._float_reciprocals(map(pow, ks, repeat(2))) \
        == math.fsum(1.0 / (k * k) for k in ks)
    assert cf._float_reciprocals(range(3, 2 * n + 2, 2)) \
        == math.fsum(1.0 / (2 * k + 1) for k in ks)


def test_harmonic_helpers():
    assert cf.harmonic(1) == 1
    assert cf.harmonic(4) == Fraction(25, 12)
    assert cf.harmonic2(2) == Fraction(5, 4)
    assert level_count(4, PAIR) == 105
    assert level_count(1, PAIR) == 1


def test_running_difference_matches_the_harmonic_sums():
    # an ascending pass, then descending, so the cursors restart from 0
    ns = (0, 1, 2, 3, 50, 999, 10001)
    for n in ns + ns[::-1]:
        assert cf.harmonic_difference(n) \
            == cf.harmonic(n) - cf.harmonic2(n), n
    with pytest.raises(ValueError):
        cf.harmonic_difference(-1)


@pytest.mark.parametrize("running_sum, term", [
    (cf.harmonic, lambda k: Fraction(1, k)),
    (cf.harmonic2, lambda k: Fraction(1, k * k)),
    (cf.harmonic_difference, lambda k: Fraction(k - 1, k * k)),
    (cf._odd_reciprocals, lambda k: Fraction(1, 2 * k + 1)),
    (cf._size3_steps, lambda k: cf.size_count_increment(3, k + 4)),
], ids=["harmonic", "harmonic2", "harmonic_difference", "odd_reciprocals",
        "size3_steps"])
def test_running_sums_read_the_same_in_any_order(running_sum, term):
    ns = range(40)
    want = [sum(map(term, range(1, n + 1)), Fraction(0)) for n in ns]
    assert [running_sum(n) for n in ns] == want
    assert [running_sum(n) for n in reversed(ns)] == want[::-1]
    running_sum(200)  # restart from 0 at every n below
    assert [running_sum(n) for n in (7, 3, 39, 0, 12)] \
        == [want[n] for n in (7, 3, 39, 0, 12)]
    with pytest.raises(ValueError):
        running_sum(-1)


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


def test_the_size_means_step_as_the_recursion_means():
    # past the scan: the mean of the Y<size> recursion steps by
    # size_count_increment from n = size + 2, and the Y3 mean is the
    # telescoped sum
    for size in range(1, 6):
        stat = blocks_of_size(size)
        means = {n: laplace.expectation_from_laplace(
                     laplace.recursion_transform(stat, n))
                 for n in range(size + 1, 41)}
        for n in range(size + 2, 41):
            assert means[n] - means[n - 1] \
                == cf.size_count_increment(size, n), (size, n)
        if size == 3:
            for n in range(4, 41):
                assert means[n] == cf.telescoped_size3_expectation(n), n


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
                         level_count(n, PAIR)) - 1)
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


# every formula whose large-n regime is tracked, with its exact form
_TRACKED = {"EY": cf.expected_block_count, "VarY": cf.variance_block_count,
            "EY1": cf.expected_size1_blocks, "EY2": cf.expected_size2_blocks,
            "EY3": cf.telescoped_size3_expectation,
            "EOutPair": cf.expected_outer_pairs, "EArea": cf.expected_area}


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("name", sorted(_TRACKED))
def test_each_float_value_matches_its_exact_form(name, n):
    # the reports re-derive each closed form in floats; tie each copy to
    # the exact Fraction it copies
    want = float(_TRACKED[name](n))
    got = cf.asymptotic_report(name, n).exact
    assert abs(got - want) <= 1e-12 * abs(want), (name, n, got, want)


def test_one_table_names_every_formula():
    tracked = {name: exact for name, (exact, floats) in cf.FORMULAS.items()
               if floats is not None}
    assert tracked == _TRACKED
    untracked = sorted(set(cf.FORMULAS) - set(tracked))
    assert untracked == ["EInt", "EOut", "EYge3", "STotal"]
    for name in untracked:
        with pytest.raises(ValueError, match="no asymptote tracked"):
            cf.asymptotic_report(name, 1000)


def test_euler_gamma_constant():
    assert abs(cf.EULER_GAMMA - 0.5772156649015328606) < 1e-15
