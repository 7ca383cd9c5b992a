"""Partition container, crossing detection, nesting."""

import itertools

import pytest

from mton.partitions import (Crossing, NcPartition, NotAPartition,
                             _nesting_sweep, _span_sweep, validate_noncrossing)
from mton.reference import has_crossing_naive, noncrossing_partitions
from mton.tree import OrderedNcPartition


def all_set_partitions(n):
    """Every set partition of {1..n} via restricted growth strings."""
    if n == 0:
        yield ()
        return
    for rgs in itertools.product(*(range(i + 1) for i in range(n))):
        top = 0
        ok = True
        for v in rgs:
            if v > top:
                ok = False
                break
            if v == top:
                top += 1
        if not ok:
            continue
        blocks = [[] for _ in range(top)]
        for point, v in enumerate(rgs, start=1):
            blocks[v].append(point)
        yield tuple(tuple(b) for b in blocks)


def test_construction_and_canonical_order():
    p = validate_noncrossing([[4], [1, 2], [3]], 4)
    assert p.blocks == ((1, 2), (3,), (4,))
    assert p.n == 4
    assert p.size == 3


def test_rejects_bad_covers():
    with pytest.raises(NotAPartition):
        validate_noncrossing([[1, 2]], 3)
    with pytest.raises(NotAPartition):
        validate_noncrossing([[1, 2], [2, 3]], 3)
    with pytest.raises(NotAPartition):
        validate_noncrossing([[1, 2], [3, 4]], 3)
    with pytest.raises(NotAPartition):
        validate_noncrossing([[1, 2], [3], []], 3)


def test_crossing_witness_is_the_classic_quadruple():
    with pytest.raises(Crossing) as exc:
        validate_noncrossing([[1, 3], [2, 4]], 4)
    assert exc.value.witness == (1, 2, 3, 4)


def test_crossing_witness_really_crosses():
    for n in range(1, 8):
        for blocks in all_set_partitions(n):
            try:
                validate_noncrossing(blocks, n)
            except Crossing as exc:
                a, b, c, d = exc.witness
                assert a < b < c < d
                owner = {}
                for i, blk in enumerate(blocks):
                    for x in blk:
                        owner[x] = i
                assert owner[a] == owner[c]
                assert owner[b] == owner[d]
                assert owner[a] != owner[b]


def test_stack_verdict_matches_naive_quartic_check():
    for n in range(1, 8):
        for blocks in all_set_partitions(n):
            fast = True
            try:
                validate_noncrossing(blocks, n)
            except Crossing:
                fast = False
            assert fast == (not has_crossing_naive(blocks))


def test_counts_are_catalan():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 8):
        assert len(noncrossing_partitions(n)) == catalan[n]


def test_nesting_parents_small():
    p = validate_noncrossing([[1, 6], [2, 3], [4, 5]], 6)
    parents = dict(_nesting_sweep(p.blocks))
    idx = {blk: i for i, blk in enumerate(p.blocks)}
    assert parents[idx[(2, 3)]] == idx[(1, 6)]
    assert parents[idx[(4, 5)]] == idx[(1, 6)]
    assert parents[idx[(1, 6)]] is None


def test_outer_blocks_have_no_parent():
    for blocks in noncrossing_partitions(7):
        p = NcPartition(7, blocks)
        # the span sweep's outer minima, in min order, are the blocks the
        # nesting sweep gives no parent
        assert _span_sweep(p.blocks) == [
            p.blocks[i][0] for i, par in _nesting_sweep(p.blocks)
            if par is None]


def test_the_nesting_sweep_reads_blocks_in_any_order():
    # the innermost enclosing block of each block, found from a reversed
    # and a rotated block list, is the one found from the canonical list
    for blocks in noncrossing_partitions(7):
        p = NcPartition(7, blocks)
        want = {p.blocks[i]: (p.blocks[par] if par is not None else None)
                for i, par in _nesting_sweep(p.blocks)}
        for order in (blocks[::-1], blocks[1:] + blocks[:1]):
            sweep = _nesting_sweep(order)
            assert [order[i][0] for i, _ in sweep] == sorted(
                b[0] for b in blocks)
            assert {order[i]: (order[par] if par is not None else None)
                    for i, par in sweep} == want


def test_json_round_trip():
    p = validate_noncrossing([[1, 4, 5], [2, 3]], 5)
    blob = p.to_json()
    assert blob == {"n": 5, "blocks": [[1, 4, 5], [2, 3]]}
    assert NcPartition.from_json(blob) == p


def test_json_rejects_a_boolean_ground_set_size():
    with pytest.raises(NotAPartition, match="True"):
        NcPartition.from_json({"n": True, "blocks": [[1]]})
    with pytest.raises(NotAPartition, match="True"):
        OrderedNcPartition.from_json({"n": True, "blocks_by_label": [[1]]})


def test_a_vast_ground_set_is_refused_by_the_points_given():
    # storage follows the one point given, not n: the first uncovered
    # element is named without a list of 10**18 owners
    with pytest.raises(NotAPartition, match="element 2 not covered"):
        NcPartition.from_json({"n": 10 ** 18, "blocks": [[1]]})
    # the first uncovered element, read off the sorted points
    for blocks, n, missing in (([[2]], 2, 1), ([[1], [4]], 4, 2),
                               ([[1, 2]], 3, 3)):
        with pytest.raises(NotAPartition, match=f"element {missing} not"):
            validate_noncrossing(blocks, n)


def test_pair_partition_predicate():
    assert validate_noncrossing([[1, 2], [3, 4]], 4).is_pair_partition()
    assert not validate_noncrossing([[1, 2, 3, 4]], 4).is_pair_partition()
