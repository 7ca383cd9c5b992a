"""Acceptance gate: eleven criteria, each tied to named harness checks.

Every test pulls its checks from the shared registry, runs them, and
fails with the collected witnesses if any check misbehaves.  The
conftest summary hook prints one PASS/FAIL line per criterion.
"""

import pytest

from mton import harness, tree
from mton.tree import PAIR


@pytest.fixture(scope="module")
def registry():
    return harness.build_checks()


def run_ids(registry, *ids):
    failures = []
    for check_id in ids:
        report = registry[check_id].run()
        if report.status != "pass":
            failures.append((check_id, report.witness))
    assert not failures, failures


@pytest.mark.criterion(1, "level sizes match (n+1)!/2 and (2n-1)!!")
def test_criterion_01_cardinalities(registry):
    run_ids(registry, "count-full", "count-pair")
    # one level past the pair-suite bound, streamed without the formula
    assert sum(1 for _ in tree.stream_level(8, PAIR)) == 2027025


@pytest.mark.criterion(2, "tree walk equals the order-filter construction")
def test_criterion_02_cross_construction(registry):
    run_ids(registry, "enum-cross-check", "pair-enum-cross-check")


@pytest.mark.criterion(3, "block-count mean and variance closed forms")
def test_criterion_03_block_count_moments(registry):
    run_ids(registry, "block-count-mean", "block-count-variance",
            "block-count-spot", "variance-forms")


@pytest.mark.criterion(4, "size-stratified means and their decomposition")
def test_criterion_04_size_means(registry):
    run_ids(registry, "size1-mean", "size2-mean", "size3plus-mean",
            "size-decomposition")


@pytest.mark.criterion(5, "transform recursions reproduce enumeration")
def test_criterion_05_recursions(registry):
    run_ids(registry, "product-form", "block-count-recursion",
            "tally-recursions", "seed-resolution", "outer-full-recursion",
            "interval-pair-recursion", "outer-pair-recursion")


@pytest.mark.criterion(6, "structural lemmas on slices and child sums")
def test_criterion_06_structure(registry):
    run_ids(registry, "parent-chain-bijection", "singleton-slice",
            "area-child-split")


@pytest.mark.criterion(7, "insertion laws and means for outer/interval counts")
def test_criterion_07_second_kind(registry):
    run_ids(registry, "outer-full-mean", "outer-full-subsets",
            "interval-pair-mean", "interval-pair-subsets", "outer-pair-mean",
            "outer-pair-subsets", "outer-full-mean-recursion",
            "interval-mean-recursion", "outer-pair-mean-recursion")


@pytest.mark.criterion(8, "area statistic mean, total, and spot values")
def test_criterion_08_area(registry):
    run_ids(registry, "area-mean", "area-total", "area-spot")


@pytest.mark.criterion(9, "counting triangle and moment-cumulant machinery")
def test_criterion_09_triangle_cumulants(registry):
    run_ids(registry, "triangle-frozen", "triangle-tree-recursion",
            "triangle-recursion-closed", "triangle-row-sums",
            "triangle-poly-identity", "hook-vs-filter", "ordering-ratio",
            "ordering-sum", "roundtrip-random", "small-identities",
            "poisson-constant", "moments-partition-sum")


@pytest.mark.criterion(10, "large-n regimes within stated tolerances")
def test_criterion_10_asymptotics(registry):
    run_ids(registry, "mean-asymptote", "variance-asymptote", "size3-limit",
            "outer-pair-asymptote", "area-asymptote")


@pytest.mark.criterion(11, "corrupted formulas are caught and minimized")
def test_criterion_11_selftest(registry):
    run_ids(registry, "harness-selftest")
