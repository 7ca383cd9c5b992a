"""Ordering counts, moment/cumulant conversion, the counting triangle."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mton import cumulants as cm
from mton import reference
from mton.partitions import validate_noncrossing


def test_ordering_count_example():
    # (2,3) and (4,5) both nest inside (1,6): label 1 is forced onto the
    # host and the other two labels commute, so exactly 2 orderings
    p = validate_noncrossing([[1, 6], [2, 3], [4, 5]], 6)
    assert cm.ordering_count(p) == 2
    assert reference.ordering_count(p.blocks) == 2


def test_ordering_count_frozen_values():
    assert cm.ordering_count(validate_noncrossing([[1, 2, 3]], 3)) == 1
    assert cm.ordering_count(validate_noncrossing([[1], [2], [3]], 3)) == 6
    assert cm.ordering_count(validate_noncrossing([[1, 4], [2, 3]], 4)) == 1
    assert cm.ordering_count(validate_noncrossing([[1, 2], [3, 4]], 4)) == 2
    # the depth-9 figure node: 4 blocks, hook product 8
    p = validate_noncrossing([[1, 2], [3, 4, 7, 9], [5, 6], [8]], 9)
    assert cm.ordering_count(p) == 8


def test_hook_count_matches_filter_oracle_exhaustive():
    for n in range(1, 8):
        for blocks in reference.noncrossing_partitions(n):
            assert (cm._ordering_count_blocks(blocks)
                    == reference.ordering_count(blocks))


def test_ordering_counts_sum_to_level_size():
    for n in range(1, 9):
        total = sum(cm._ordering_count_blocks(b)
                    for b in reference.noncrossing_partitions(n))
        assert total == math.factorial(n + 1) // 2


def test_ordering_count_equals_k_factorial_iff_interval_partition():
    for n in range(1, 8):
        for blocks in reference.noncrossing_partitions(n):
            k = len(blocks)
            is_interval = all(b[-1] - b[0] == len(b) - 1 for b in blocks)
            hit = cm._ordering_count_blocks(blocks) == math.factorial(k)
            assert hit == is_interval


def test_moments_from_small_cumulants():
    mom = cm.moments_from_cumulants([Fraction(2), Fraction(3), Fraction(5)])
    assert mom[0] == 2
    assert mom[1] == 3 + 4
    assert mom[2] == 5 + Fraction(5, 2) * 2 * 3 + 8


def test_cumulants_from_small_moments():
    cum = cm.cumulants_from_moments([Fraction(1), Fraction(2), Fraction(5)])
    assert cum == (Fraction(1), Fraction(1), Fraction(3, 2))


def test_round_trip_seeded_random():
    rng = random.Random(7)
    for length in (8, 30):
        for _ in range(25):
            seq = [Fraction(rng.randint(-40, 40), rng.randint(1, 20))
                   for _ in range(length)]
            assert cm.cumulants_from_moments(cm.moments_from_cumulants(seq)) == tuple(seq)
            assert cm.moments_from_cumulants(cm.cumulants_from_moments(seq)) == tuple(seq)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=8),
                min_size=1, max_size=7))
def test_round_trip_property(seq):
    assert cm.cumulants_from_moments(cm.moments_from_cumulants(seq)) == tuple(seq)


def test_conversion_does_not_import_the_oracle_module():
    names = set()
    for node in ast.walk(ast.parse(Path(cm.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    assert "reference" not in names


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=8),
                min_size=1, max_size=7))
def test_recurrence_matches_partition_sum_oracle(seq):
    assert (cm.moments_from_cumulants(seq)
            == reference.moments_by_partition_sum(seq))


def test_upto_truncation():
    seq = [Fraction(1)] * 6
    assert len(cm.moments_from_cumulants(seq, upto=3)) == 3
    with pytest.raises(cm.InsufficientCumulants):
        cm.moments_from_cumulants([Fraction(1)], upto=3)
    with pytest.raises(cm.InsufficientMoments):
        cm.cumulants_from_moments([Fraction(1)], upto=2)
    assert cm.moments_from_cumulants(seq, upto=0) == ()
    for convert in (cm.moments_from_cumulants, cm.cumulants_from_moments):
        with pytest.raises(ValueError, match="upto must be >= 0"):
            convert(seq, upto=-1)


def test_triangle_frozen_rows():
    table = cm.stirling_by_recursion(6)
    assert table.row(1) == (1,)
    assert table.row(2) == (1, 2)
    assert table.row(3) == (1, 5, 6)
    assert table.row(4) == (1, 9, 26, 24)
    assert table.row(5) == (1, 14, 71, 154, 120)
    assert table.row(6) == (1, 20, 155, 580, 1044, 720)


def test_triangle_three_constructions_agree():
    rec = cm.stirling_by_recursion(20)
    closed = cm.stirling_by_closed_form(20)
    trees = cm.stirling_by_tree_count(7)
    for n in range(1, 21):
        assert rec.row(n) == closed.row(n)
    for n in range(1, 8):
        assert rec.row(n) == trees.row(n)


def test_triangle_edge_columns():
    table = cm.stirling_by_recursion(9)
    for n in range(1, 10):
        assert table.value(n, 1) == 1
        assert table.value(n, n) == math.factorial(n)
        assert sum(table.row(n)) == math.factorial(n + 1) // 2


def test_poisson_moments_at_one():
    assert cm.poisson_moments(Fraction(1), 4) == (
        Fraction(1), Fraction(2), Fraction(9, 2), Fraction(65, 6))


def test_poisson_equals_constant_cumulant_sequence():
    for alpha in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1),
                  Fraction(-7, 3)):
        assert (cm.poisson_moments(alpha, 30)
                == cm.moments_from_cumulants([alpha] * 30))
