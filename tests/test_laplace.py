"""Level transforms: enumeration, recursions, caches."""

import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from mton import laplace, stats, tree
from mton.laplace import (InsufficientSeed, SizeBoundExceeded, ZeroPolynomial,
                          bruteforce_transform, edge_witness,
                          expectation_from_laplace, level_histograms,
                          recurse_first_kind, recurse_second_kind,
                          recursion_transform, scan_chunk,
                          variance_from_laplace)
from mton.partitions import validate_noncrossing
from mton.polynomials import ExactPolynomial, NegativeExponent
from mton.stats import (AREA, BLOCKS, INTERVAL_PAIRS, LARGE_BLOCKS, OUTER,
                        AreaRequiresPairPartition, NotSecondKind,
                        SecondKindInput, blocks_of_size, evaluate,
                        first_kind_input, second_kind_input)
from mton.tree import FULL, PAIR, iter_level, level_count, stream_level


def test_frozen_block_count_transforms():
    assert bruteforce_transform(BLOCKS, 1) == ExactPolynomial({1: 1})
    assert bruteforce_transform(BLOCKS, 2) == ExactPolynomial({1: 1, 2: 2})
    assert bruteforce_transform(BLOCKS, 3) == ExactPolynomial({1: 1, 2: 5, 3: 6})


def test_transforms_keep_int_coefficients_and_read_out_fractions():
    # a transform counts nodes, so its coefficients are ints; its values
    # and the readouts divided from them are Fractions
    for poly in (bruteforce_transform(BLOCKS, 5),
                 recursion_transform(BLOCKS, 30),
                 recursion_transform(OUTER, 12, PAIR),
                 bruteforce_transform(AREA, 4, PAIR)):
        assert all(type(poly.coefficient(e)) is int
                   for e in range(poly.degree + 2))
        assert type(poly.evaluate(1)) is Fraction
        assert type(expectation_from_laplace(poly)) is Fraction
        assert type(variance_from_laplace(poly)) is Fraction
    assert expectation_from_laplace(bruteforce_transform(BLOCKS, 5)) \
        == Fraction(81, 20)


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


def test_block_count_recursion_needs_one_seed():
    # Y's vector (1,): L_m = (1 + m t) L_(m-1), so L_1 = t is the only seed
    want = t = ExactPolynomial.monomial(1)
    for n in range(1, 13):
        if n > 1:
            want = want * ExactPolynomial({0: 1, 1: n})
        assert recurse_first_kind((1,), [t], n) == want, n


def _no_vector(stat):
    raise AssertionError(f"the increment vector of {stat.name} was built")


def test_a_level_among_a_huge_vectors_seeds_is_scanned_without_it(
        monkeypatch):
    # Y<10**12>'s vector would hold 10**12 + 1 entries; level 3 is among
    # its seed levels, so the recursion reads it off the scan
    monkeypatch.setattr(laplace, "first_kind_input", _no_vector)
    huge = blocks_of_size(10 ** 12)
    assert recursion_transform(huge, 3) == bruteforce_transform(huge, 3)
    assert recursion_transform(huge, 3) == ExactPolynomial({0: 12})


def test_a_seed_past_the_scan_is_refused_before_the_vector(monkeypatch):
    # Y<10**7> seeds levels 1..10**7 + 1, and the scan stops at depth 10
    monkeypatch.setattr(laplace, "first_kind_input", _no_vector)
    with pytest.raises(SizeBoundExceeded):
        recursion_transform(blocks_of_size(10 ** 7), 12)


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


def test_size_guard(monkeypatch):
    # the scan's one limit is its record's id capacity: depth 11 is
    # refused on both trees before a child is built
    def no_child(*args):
        raise AssertionError("the scan built a child")
    with monkeypatch.context() as patch:
        patch.setattr(tree, "_kids", no_child)
        with pytest.raises(SizeBoundExceeded, match="82499"):
            bruteforce_transform(BLOCKS, 11)
        with pytest.raises(SizeBoundExceeded, match="82499"):
            bruteforce_transform(AREA, 11, PAIR)
    poly = bruteforce_transform(BLOCKS, 4)
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


# every level reuses each parent state's batch for many parents, most
# of all at full depth 7 and pair depth 6
_RECORD_DEPTHS = ((FULL, 6), (PAIR, 5), (FULL, 7), (PAIR, 6))


def test_the_record_lists_every_level_in_rank_order(walk_rank):
    # every rank's digit word, walked down the child-state batches,
    # reaches a state of the node's partition whose stored maximal-label
    # block is the labelled node's, by first point and size
    for kind, depth in _RECORD_DEPTHS:
        record = scan_chunk(kind, depth)
        laplace.clear_scan_cache()
        hist = level_histograms(kind, depth)
        for n in range(1, depth + 1):
            level = record.levels[n]
            walked = []
            for rank, op in enumerate(iter_level(n, kind)):
                state = walk_rank(record, rank, n)
                blocks = op.partition().blocks
                assert record.partitions[level.part[state]] == blocks
                top = op.max_label_block()
                assert level.top[state] == top[0], (kind, rank)
                assert level.size[state] == len(top), (kind, rank)
                walked.append(blocks)
            assert record[n] == hist[n] == Counter(walked), (kind, n)


def test_batches_are_each_parents_children_in_digit_order(walk_rank):
    # one batch per parent state, in increasing first rank: each is the
    # labelled children of the node at its rank, and each state's first
    # rank is the lowest rank whose digit word reaches it
    for kind, top in ((FULL, 8), (PAIR, 7)):
        children = tree.children if kind == FULL else tree.pair_children
        for depth in range(2, top + 1):
            record = scan_chunk(kind, depth)
            blocks = record.partitions.__getitem__
            for n in range(2, depth + 1):
                down = record.levels[n]
                yielded = []
                for rank, parent, kids in record.batches(n):
                    op = tree.unrank(rank, n - 1, kind)
                    want = children(op)
                    assert blocks(parent) == op.partition().blocks
                    assert [blocks(down.part[k]) for k in kids] == [
                        kid.partition().blocks for kid in want], (kind, n)
                    assert [down.size[k] for k in kids] == [
                        len(kid.max_label_block()) for kid in want], (kind, n)
                    assert rank > max(yielded, default=-1), (kind, n)
                    yielded.append(rank)
                lowest: dict = {}
                for rank in range(level_count(n - 1, kind)):
                    lowest.setdefault(walk_rank(record, rank, n - 1), rank)
                assert list(lowest) == list(range(len(yielded)))
                assert list(lowest.values()) == yielded, (kind, depth, n)


def test_a_depth_nine_record_keeps_fewer_cells_than_nodes():
    # the record keeps one row of cells per state, not one per node: all
    # of full depth 9 takes fewer cells than the nodes of level 9 alone
    record = scan_chunk(FULL, 9)
    cells = sum(len(getattr(states, field))
                for states in record.levels.values()
                for field in states.__slots__)
    assert cells < level_count(9) == 1_814_400


def test_the_record_keeps_five_cells_per_state_and_one_per_edge():
    # partition id, block start and size, first rank and node count per
    # state, and the child's state per edge: the counts README quotes
    for depth, want in ((8, 47_580), (9, 182_535)):
        levels = scan_chunk(FULL, depth).levels.values()
        states = sum(len(level.part) for level in levels)
        edges = sum(len(level.kids) for level in levels)
        cells = sum(len(getattr(level, field))
                    for level in levels for field in level.__slots__)
        assert cells == 5 * states + edges == want, depth


def test_state_numbers_past_two_bytes_are_kept_whole():
    # full level 10 holds more states than a 2-byte cell can number, and
    # the level-9 child-state batches reach every one of them
    record = scan_chunk(FULL, 10)
    top = record.levels[10]
    assert len(top.part) == 66_197 > 1 << 16
    assert set(record.levels[9].kids) == set(range(len(top.part)))
    assert sum(top.mult) == level_count(10)


def test_a_scan_with_more_partitions_than_ids_raises(monkeypatch):
    # levels 1..4 of the full tree hold 1 + 2 + 5 + 14 partitions
    monkeypatch.setattr(laplace, "_ID_CAPACITY", 21)
    with pytest.raises(SizeBoundExceeded):
        scan_chunk(FULL, 4)
    monkeypatch.setattr(laplace, "_ID_CAPACITY", 22)
    assert sum(scan_chunk(FULL, 4)[4].values()) == level_count(4)


def test_a_scan_past_the_id_capacity_is_refused_before_the_walk(monkeypatch):
    def no_child(*args):
        raise AssertionError("the scan built a child")
    monkeypatch.setattr(tree, "_kids", no_child)
    # levels 1..d hold Catalan(1) + ... + Catalan(d) distinct partitions:
    # 23,713 at d = 10 and 82,499 at d = 11, against 65,536 ids
    for kind in (FULL, PAIR):
        with pytest.raises(SizeBoundExceeded, match="82499"):
            scan_chunk(kind, 11)
        with pytest.raises(AssertionError, match="built a child"):
            scan_chunk(kind, 10)
    monkeypatch.setattr(laplace, "_ID_CAPACITY", 21)
    with pytest.raises(SizeBoundExceeded):
        scan_chunk(FULL, 4)


def test_the_elongation_child_depends_on_the_maximal_label_block():
    # one partition, two maximal-label blocks: the insertion children
    # agree as partitions, the elongation children do not, so the scan's
    # batch key carries the block
    def partitions(blocks):
        return [tuple(sorted(kid)) for kid in tree._kids(blocks, 2, 1)]
    first, second = partitions(((1,), (2,))), partitions(((2,), (1,)))
    assert first[:-1] == second[:-1]
    assert first[-1] == ((1,), (2, 3)) and second[-1] == ((1, 2), (3,))


def test_every_level_is_built_once_per_parent_state(monkeypatch):
    # the children of each level-m state (partition, maximal-label
    # block) are built once, and no level is walked node by node
    states = {(kind, m): len({(op.partition().blocks, op.max_label_block())
                              for op in iter_level(m, kind)})
              for kind, depth in ((FULL, 7), (PAIR, 6))
              for m in range(1, depth)}
    real = tree._kids
    calls = Counter()

    def counted(blocks, n, scale):
        calls[n] += 1
        return real(blocks, n, scale)

    def no_walk(*args):
        raise AssertionError("the scan walked a level")
    monkeypatch.setattr(tree, "_kids", counted)
    monkeypatch.setattr(tree, "_walk", no_walk)
    for kind, depth in ((FULL, 7), (PAIR, 6)):
        calls.clear()
        scan_chunk(kind, depth)
        scale = tree._scale(kind)
        assert calls == Counter({scale * m: states[kind, m]
                                 for m in range(1, depth)}), kind
        assert states[kind, depth - 1] < level_count(depth - 1, kind)


def _cells(record):
    # every cell of a record, level by level and field by field
    return (record.partitions, dict(record), record._tallies,
            {n: {field: getattr(states, field).tobytes()
                 for field in states.__slots__}
             for n, states in record.levels.items()})


def test_levels_read_in_any_order_are_each_built_once(monkeypatch):
    # the cache extends its record by the levels it lacks: read in a
    # scrambled order, each state's batch is built once, and the record
    # is cell for cell the one-shot scan
    reads = ((FULL, (3, 7, 5, 8)), (PAIR, (6, 2, 7)))
    whole = {kind: scan_chunk(kind, max(depths)) for kind, depths in reads}
    real = tree._kids
    built = Counter()

    def counted(blocks, n, scale):
        built[scale] += 1
        return real(blocks, n, scale)
    monkeypatch.setattr(laplace, "_scan_cache", {})
    monkeypatch.setattr(tree, "_kids", counted)
    for kind, depths in reads:
        for depth in depths:
            level_histograms(kind, depth)
        record, one_shot = laplace._scan_cache[kind], whole[kind]
        assert _cells(record) == _cells(one_shot), kind
        assert built[tree._scale(kind)] == sum(
            len(one_shot.levels[m].part) for m in range(1, max(depths))), kind


def test_an_extension_that_fails_leaves_the_record_whole(monkeypatch):
    # a child step that raises part way through an extension: the record
    # keeps its levels, and the next extension builds the one-shot scan
    record = scan_chunk(FULL, 4)
    real = tree._kids
    steps = []

    def fails_late(blocks, n, scale):
        steps.append(n)
        if len(steps) == 200:
            raise MemoryError("out of room")
        return real(blocks, n, scale)
    monkeypatch.setattr(tree, "_kids", fails_late)
    with pytest.raises(MemoryError):
        scan_chunk(FULL, 7, record)
    assert set(steps) == {4, 5, 6}  # levels 5 and 6 built, 7 part way
    monkeypatch.setattr(tree, "_kids", real)
    assert set(record) == {1, 2, 3, 4}
    assert scan_chunk(FULL, 7, record) is record
    assert _cells(record) == _cells(scan_chunk(FULL, 7))


def test_each_state_rebuilds_a_node_of_itself():
    # the node a state's batch is built from is a genuinely ordered
    # partition with the state's partition and maximal-label block
    for kind, depth in ((FULL, 8), (PAIR, 7)):
        record = scan_chunk(kind, depth)
        points = tree._scale(kind)
        for n, states in record.levels.items():
            for i, top in zip(states.part, states.top):
                blocks = laplace._node(record.partitions[i], top)
                op = tree.OrderedNcPartition.checked(points * n, blocks)
                assert op.partition().blocks == record.partitions[i]
                assert op.max_label_block()[0] == top, (kind, n)


def test_the_tallies_are_the_counts_of_the_rows(walk_rank):
    # each level's id tally is summed from its states' node counts, and
    # must be what counting the partition id of every rank's state gives
    for kind, depth in _RECORD_DEPTHS:
        record = scan_chunk(kind, depth)
        for n in range(1, depth + 1):
            part = record.levels[n].part
            row = Counter(part[walk_rank(record, rank, n)]
                          for rank in range(level_count(n, kind)))
            assert record._tallies[n] == row, (kind, n)


_PARENTS = {3: [[3, 4], [1, 2]], 4: [[5, 6], [3, 4], [1, 2]]}

# the witnesses of two wrong laws per law, as the walk over every parent
# and its children found them
_FROZEN_WITNESSES = [
    (OUTER, FULL, (1, 0, 2), 3,
     {"n": 3, "stat": "Out", "core_size": 3, "want": 4,
      "parent": {"n": 2, "blocks_by_label": [[2], [1]]}}),
    (OUTER, FULL, (1, 1, 1), 4,
     {"n": 4, "stat": "Out", "digit": 4, "increment": 0, "want": 1,
      "parent": {"n": 3, "blocks_by_label": [[3], [2], [1]]}}),
    (OUTER, PAIR, (1, 0, 0), 3,
     {"n": 3, "stat": "Out", "core_size": 3, "want": 2,
      "parent": {"n": 4, "blocks_by_label": _PARENTS[3]}}),
    (OUTER, PAIR, (1, 1, 1), 4,
     {"n": 4, "stat": "Out", "digit": 1, "increment": 0, "want": 1,
      "parent": {"n": 6, "blocks_by_label": _PARENTS[4]}}),
    (INTERVAL_PAIRS, PAIR, (1, 1, 0), 3,
     {"n": 3, "stat": "Int", "digit": 1, "increment": 0, "want": 1,
      "parent": {"n": 4, "blocks_by_label": _PARENTS[3]}}),
    (INTERVAL_PAIRS, PAIR, (0, 1, 1), 4,
     {"n": 4, "stat": "Int", "core_size": 3, "want": 4,
      "parent": {"n": 6, "blocks_by_label": _PARENTS[4]}}),
]


@pytest.mark.parametrize("stat, kind, law, n, want", _FROZEN_WITNESSES)
def test_second_kind_witness_of_a_wrong_law_is_frozen(stat, kind, law, n,
                                                      want):
    assert edge_witness(stat, kind, n, SecondKindInput(*law)) == want
    assert edge_witness(stat, kind, n) is None


def _walked_witness(stat, kind, n, law):
    # the oracle: every parent in rank order, each child built and
    # evaluated on its own
    for parent in iter_level(n - 1, kind):
        z = evaluate(stat, parent)
        core = stats.core_child_digits(stat, kind, parent)
        if len(core) != z + law.q:
            return {"n": n, "stat": stat.name, "parent": parent.to_json(),
                    "core_size": len(core), "want": z + law.q}
        kids = (tree.children(parent) if kind == FULL
                else tree.pair_children(parent))
        for digit, child in enumerate(kids):
            jump = law.alpha if digit in core else law.beta
            increment = evaluate(stat, child) - z
            if increment != jump:
                return {"n": n, "stat": stat.name, "digit": digit,
                        "parent": parent.to_json(),
                        "increment": increment, "want": jump}
    return None


_NESTED = ((1, 10), (2, 9), (3, 8), (4, 7), (5, 6))


@pytest.mark.parametrize("stat, kind, n, target", [
    (OUTER, FULL, 6, ((1, 2, 3, 4, 5, 6),)),
    (OUTER, PAIR, 5, _NESTED), (INTERVAL_PAIRS, PAIR, 5, _NESTED)])
def test_second_kind_witness_finds_a_child_deep_in_the_level(
        stat, kind, n, target, monkeypatch):
    # one partition, carried by a single level-n node, is evaluated one
    # too high: that node's parent is the witness, and the walk over
    # every parent and child finds the same one
    assert level_histograms(kind, n)[n][target] == 1
    real = stats._evaluate_blocks

    def off_by_one(s, blocks, points):
        hit = tuple(sorted(blocks)) == target
        return real(s, blocks, points) + hit
    monkeypatch.setattr(laplace, "_evaluate_blocks", off_by_one)
    monkeypatch.setattr(stats, "_evaluate_blocks", off_by_one)
    law = stats.second_kind_input(stat, kind)
    got = edge_witness(stat, kind, n, law)
    assert got is not None and "digit" in got
    assert got == _walked_witness(stat, kind, n, law)
    parent = tree.OrderedNcPartition.from_json(got["parent"])
    assert tree.rank_of(parent, kind) > 0


def _walked_first_kind_witness(stat, n, r):
    # the oracle: every parent in rank order, each child built, evaluated
    # and its labelled maximal-label block measured on its own
    step = (0,) + r + (0,) * n
    for parent in iter_level(n - 1, FULL):
        z = evaluate(stat, parent)
        for digit, child in enumerate(tree.children(parent)):
            size = len(child.max_label_block())
            increment = evaluate(stat, child) - z
            if increment != step[size]:
                return {"n": n, "stat": stat.name, "digit": digit,
                        "parent": parent.to_json(), "size": size,
                        "increment": increment, "want": step[size]}
    return None


@pytest.mark.parametrize("stat", [BLOCKS, blocks_of_size(2), LARGE_BLOCKS])
def test_first_kind_witness_finds_a_child_deep_in_the_level(stat,
                                                            monkeypatch):
    # the one-block partition of level 6 is carried by a single node,
    # the end of the elongation chain; evaluated one too high, its edge
    # is the first that breaks the law, as the labelled walk finds too
    target = ((1, 2, 3, 4, 5, 6),)
    assert level_histograms(FULL, 6)[6][target] == 1
    real = stats._evaluate_blocks

    def off_by_one(s, blocks, points):
        return real(s, blocks, points) + (tuple(sorted(blocks)) == target)
    r = first_kind_input(stat)
    assert edge_witness(stat, FULL, 6) is None
    monkeypatch.setattr(laplace, "_evaluate_blocks", off_by_one)
    monkeypatch.setattr(stats, "_evaluate_blocks", off_by_one)
    got = edge_witness(stat, FULL, 6)
    assert got is not None and got["size"] == 6
    assert got == _walked_first_kind_witness(stat, 6, r)
    with pytest.raises(ValueError):
        edge_witness(stat, FULL, 1)


@pytest.mark.parametrize("stat, kind, error", [
    *((s, FULL, None) for s in (BLOCKS, blocks_of_size(1), blocks_of_size(2),
                                 blocks_of_size(3), blocks_of_size(4),
                                 LARGE_BLOCKS, OUTER)),
    (OUTER, PAIR, None), (INTERVAL_PAIRS, PAIR, None),
    (AREA, PAIR, NotSecondKind), (INTERVAL_PAIRS, FULL, NotSecondKind)],
    ids=lambda v: getattr(v, "name", v))
def test_edge_witness_reads_the_law_of_the_recursion(stat, kind, error):
    # the default law is the recursion's: it holds on every edge into
    # full levels 2..6 and pair levels 2..5, and a pair without one
    # raises the law lookup's error
    for n in range(2, 7 if kind == FULL else 6):
        if error is None:
            assert edge_witness(stat, kind, n) is None, n
        else:
            with pytest.raises(error):
                edge_witness(stat, kind, n)
    with pytest.raises(ValueError, match="need n >= 2"):
        edge_witness(stat, kind, 1)


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


def test_the_door_refuses_past_the_guard_before_any_scan(monkeypatch):
    # both readers of the scan refuse depth 11, past the record's id
    # capacity, on a warm cache before a child is built
    def no_child(*args):
        raise AssertionError("the scan built a child")
    for kind in (FULL, PAIR):
        level_histograms(kind, 2)
    monkeypatch.setattr(tree, "_kids", no_child)
    for kind in (FULL, PAIR):
        for read in (level_histograms, laplace.scan_record):
            with pytest.raises(SizeBoundExceeded, match="82499"):
                read(kind, 11)


def test_the_library_scans_pair_level_nine():
    # the id capacity, not a depth setting, bounds the scan: pair level 9
    # holds 34,459,425 nodes on 4,862 distinct partitions
    assert sum(level_histograms(PAIR, 9)[9].values()) == level_count(9, PAIR)


def test_clearing_the_returned_mapping_leaves_the_cache_whole(monkeypatch):
    monkeypatch.setattr(laplace, "_scan_cache", {})
    for cache in ("cold", "warm"):
        level_histograms(FULL, 4).clear()
        poly = bruteforce_transform(BLOCKS, 4)
        assert poly.evaluate(1) == level_count(4, FULL), cache


def test_record_transform_weights_a_given_tally_of_ids(walk_rank):
    # the even ranks of full level 5 against an evaluation of each node
    record = scan_chunk(FULL, 5)
    part = record.levels[5].part
    even = Counter(part[walk_rank(record, rank, 5)]
                   for rank in range(0, level_count(5), 2))
    nodes = list(stream_level(5, FULL))[::2]
    for stat in _ALL_STATS:
        want = ExactPolynomial.from_counts(
            Counter(evaluate(stat, op) for op in nodes))
        assert record.transform(stat, 5, even) == want, stat.name
        assert record.transform(stat, 5) == bruteforce_transform(stat, 5)
