"""Level transforms: enumeration, recursions, caches."""

import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mton import laplace
from mton.laplace import (InsufficientSeed, SizeBoundExceeded, ZeroPolynomial,
                          bruteforce_transform, expectation_from_laplace,
                          level_histograms, recurse_first_kind,
                          recurse_second_kind, recursion_transform,
                          scan_chunk, variance_from_laplace)
from mton.partitions import validate_noncrossing
from mton.polynomials import ExactPolynomial, NegativeExponent
from mton.stats import (AREA, BLOCKS, INTERVAL_PAIRS, LARGE_BLOCKS, OUTER,
                        AreaRequiresPairPartition, NotSecondKind,
                        SecondKindInput, blocks_of_size, evaluate,
                        first_kind_input, second_kind_input)
from mton.tree import FULL, PAIR, level_count, stream_level


def test_frozen_block_count_transforms():
    assert bruteforce_transform(BLOCKS, 1) == ExactPolynomial({1: 1})
    assert bruteforce_transform(BLOCKS, 2) == ExactPolynomial({1: 1, 2: 2})
    assert bruteforce_transform(BLOCKS, 3) == ExactPolynomial({1: 1, 2: 5, 3: 6})


def test_frozen_singleton_transform():
    got = bruteforce_transform(blocks_of_size(1), 3)
    assert got == ExactPolynomial({3: 6, 1: 5, 0: 1})
    assert expectation_from_laplace(got) == Fraction(23, 12)


def test_frozen_outer_transform():
    got = bruteforce_transform(OUTER, 3)
    assert got == ExactPolynomial({1: 2, 2: 4, 3: 6})
    assert expectation_from_laplace(got) == Fraction(7, 3)


def test_frozen_area_transform():
    got = bruteforce_transform(AREA, 2, PAIR)
    assert got == ExactPolynomial({2: 2, 4: 1})
    assert expectation_from_laplace(got) == Fraction(8, 3)


def test_transform_total_mass_is_level_count():
    for n in range(1, 7):
        poly = bruteforce_transform(BLOCKS, n)
        assert poly.evaluate(1) == level_count(n, FULL)
    for n in range(1, 6):
        poly = bruteforce_transform(AREA, n, PAIR)
        assert poly.evaluate(1) == level_count(n, PAIR)


def test_recursions_match_enumeration_all_stats():
    for s in (BLOCKS, blocks_of_size(1), blocks_of_size(2), blocks_of_size(3),
              LARGE_BLOCKS):
        for n in range(1, 8):
            assert recursion_transform(s, n) == bruteforce_transform(s, n)
    for s, kind in ((OUTER, FULL), (OUTER, PAIR), (INTERVAL_PAIRS, PAIR)):
        for n in range(1, 7):
            assert (recursion_transform(s, n, kind)
                    == bruteforce_transform(s, n, kind))


def test_first_kind_recursion_needs_enough_seeds():
    with pytest.raises(InsufficientSeed):
        recurse_first_kind((1, -1), [ExactPolynomial({1: 1})], 5)


def test_first_kind_recursion_rejects_negative_shift():
    with pytest.raises(NegativeExponent):
        recurse_first_kind((0, -1), [ExactPolynomial.zero(),
                                     ExactPolynomial({0: 1})], 4)


def test_second_kind_seeded_recursion_direct():
    # outer blocks on the full tree from the depth-1 seed
    law = SecondKindInput(1, 0, 1)
    seed = ExactPolynomial({1: 1})
    assert recurse_second_kind(law, seed, 3, FULL) \
        == bruteforce_transform(OUTER, 3)


# The polynomial-arithmetic steps that the fused integer loops replaced,
# kept as the reference for them; each returns levels 1..top.

def _oracle_first_kind(r, seeds, top):
    r = tuple(r) + (0,) * (2 - len(r))
    k = len(r)
    levels = list(seeds)
    prefix = [sum(r[:j]) for j in range(k)]
    for m in range(len(seeds) + 1, top + 1):
        acc = {}

        def add(poly, shift, scale):
            for e, c in poly.items():
                acc[e + shift] = acc.get(e + shift, Fraction(0)) + scale * c

        add(levels[m - 2], 0, 1)
        add(levels[m - 2], r[0], m)
        for j in range(2, k + 1):
            if r[j - 1]:
                add(levels[m - j - 1], r[j - 1] + prefix[j - 1], m - j + 1)
                add(levels[m - j - 1], prefix[j - 1], -(m - j + 1))
        levels.append(ExactPolynomial(acc))
    return levels[:top]


def _oracle_second_kind(law, seed, top, kind):
    levels = [seed]
    t_a = ExactPolynomial.monomial(law.alpha)
    t_b = ExactPolynomial.monomial(law.beta)
    deriv_factor = (ExactPolynomial.monomial(law.alpha + 1)
                    - ExactPolynomial.monomial(law.beta + 1))
    for m in range(2, top + 1):
        arity = m + 1 if kind == FULL else 2 * m - 1
        mult = t_a.scaled(law.q) + t_b.scaled(arity - law.q)
        cur = levels[-1]
        levels.append(mult * cur + deriv_factor * cur.derivative())
    return levels


_FRACTIONAL = ExactPolynomial({0: Fraction(1, 3), 1: -2, 3: Fraction(5, 2)})


def test_second_kind_steps_match_polynomial_arithmetic():
    for stat in (OUTER, INTERVAL_PAIRS):
        for kind in (FULL, PAIR):
            try:
                law = second_kind_input(stat, kind)
            except NotSecondKind:
                continue
            for seed in (bruteforce_transform(stat, 1, kind), _FRACTIONAL):
                want = _oracle_second_kind(law, seed, 40, kind)
                for n in range(1, 41):
                    assert recurse_second_kind(law, seed, n, kind) \
                        == want[n - 1], (stat.name, kind, seed, n)


def test_first_kind_steps_match_polynomial_arithmetic():
    for stat in (BLOCKS, blocks_of_size(1), blocks_of_size(2),
                 blocks_of_size(3), blocks_of_size(4), LARGE_BLOCKS):
        r = first_kind_input(stat)
        k = max(len(r), 2)
        seeds = [bruteforce_transform(stat, m) for m in range(1, k + 1)]
        fractional = [ExactPolynomial({0: Fraction(1, 7)})] + seeds[1:]
        for start in (seeds, fractional):
            want = _oracle_first_kind(r, start, 40)
            for n in range(1, 41):
                assert recurse_first_kind(r, start, n) == want[n - 1], \
                    (stat.name, n)


def test_second_kind_step_rejects_a_surviving_negative_exponent():
    seed = ExactPolynomial({0: 1})
    with pytest.raises(NegativeExponent):
        recurse_second_kind(SecondKindInput(-1, 0, 1), seed, 2, FULL)
    # level 2 is t^-1 - 3 and level 3 is -6: the t^-1 term cancels, so
    # only the check on every level catches it
    with pytest.raises(NegativeExponent, match="exponent -1 with coefficient 1"):
        recurse_second_kind(SecondKindInput(-1, 0, 1),
                            ExactPolynomial({0: 1, 1: -2}), 3, FULL)
    # with q = 0 the t^-1 coefficient q*c_0 is zero, and a zero
    # coefficient is dropped, as ExactPolynomial drops it
    assert recurse_second_kind(SecondKindInput(-1, 0, 0), seed, 2, FULL) \
        == ExactPolynomial({0: 3})


def test_size_guard():
    with pytest.raises(SizeBoundExceeded):
        bruteforce_transform(BLOCKS, laplace.DEFAULT_MAX_FULL + 1)
    with pytest.raises(SizeBoundExceeded):
        bruteforce_transform(AREA, laplace.DEFAULT_MAX_PAIR + 1, PAIR)
    # explicit override allows it (kept tiny here)
    poly = bruteforce_transform(BLOCKS, 4, max_n=4)
    assert poly.evaluate(1) == level_count(4, FULL)
    # a warm scan cache must not answer depth 0 with a missing level
    for n in (0, -1):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            bruteforce_transform(BLOCKS, n)


def test_zero_polynomial_moments():
    with pytest.raises(ZeroPolynomial):
        expectation_from_laplace(ExactPolynomial.zero())
    with pytest.raises(ZeroPolynomial):
        variance_from_laplace(ExactPolynomial.zero())


def test_variance_from_frozen_transform():
    poly = bruteforce_transform(BLOCKS, 3)
    assert variance_from_laplace(poly) == Fraction(59, 144)


def test_scan_tallies_every_node_once():
    for kind, depth in ((FULL, 6), (PAIR, 5)):
        whole = scan_chunk(kind, depth)
        assert set(whole) == set(range(1, depth + 1))
        for level, counter in whole.items():
            # the walk stops on digit exhaustion, so these totals are
            # evidence for the counting formula, not read from it
            assert sum(counter.values()) == level_count(level, kind)
            if level < depth:
                assert counter == scan_chunk(kind, level)[level], (kind, level)


def test_scan_is_one_serial_walk():
    imported = set()
    for node in ast.walk(ast.parse(Path(laplace.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert not imported & {"multiprocessing", "concurrent"}


def test_scan_cache_serves_shallower_depths():
    laplace.clear_scan_cache()
    deep = level_histograms(FULL, 6)
    shallow = level_histograms(FULL, 4)
    assert set(shallow) == set(range(1, 5))
    for level in shallow:
        assert shallow[level] == deep[level]


def test_scan_keys_are_canonical_partitions():
    for kind, depth, scale in ((FULL, 6, 1), (PAIR, 5, 2)):
        for level, counter in scan_chunk(kind, depth).items():
            for key in counter:
                assert key == validate_noncrossing(key, scale * level).blocks


def test_depth_one_scan_is_the_root_alone():
    assert scan_chunk(FULL, 1) == {1: Counter({((1,),): 1})}
    assert scan_chunk(PAIR, 1) == {1: Counter({((1, 2),): 1})}


_ALL_STATS = (BLOCKS, blocks_of_size(1), blocks_of_size(2), blocks_of_size(3),
              blocks_of_size(4), LARGE_BLOCKS, OUTER, INTERVAL_PAIRS)


def test_weighted_partitions_equal_a_per_node_tally():
    # the oracle evaluates every node and never reads a multiplicity
    for kind, top, stats in ((FULL, 6, _ALL_STATS),
                             (PAIR, 5, _ALL_STATS + (AREA,))):
        for n in range(1, top + 1):
            nodes = list(stream_level(n, kind))
            for stat in stats:
                want = ExactPolynomial.from_counts(
                    Counter(evaluate(stat, op) for op in nodes))
                assert bruteforce_transform(stat, n, kind) == want, \
                    (kind, n, stat.name)


def test_area_is_refused_on_the_full_tree_before_the_scan(monkeypatch):
    # full level 2 holds the pair partition ((1, 2),), so only an
    # explicit refusal keeps every full level out
    def no_scan(kind, depth):
        raise AssertionError("the scan was read")
    monkeypatch.setattr(laplace, "level_histograms", no_scan)
    for n in (1, 2, 3):
        with pytest.raises(AreaRequiresPairPartition):
            bruteforce_transform(AREA, n, FULL)
