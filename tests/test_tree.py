"""Tree structure: children, parents, codes, ranking, enumeration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mton import reference, tree
from mton.tree import (FULL, PAIR, DigitOutOfRange, OrderedNcPartition,
                       RankOutOfRange, RootHasNoParent, TreeCode, child_at,
                       children, decode, encode, full_root, iter_level, level_count,
                       pair_children, pair_parent, pair_root, parent, rank_of,
                       stream_level, unrank)


def test_roots():
    assert full_root().blocks_by_label == ((1,),)
    assert pair_root().blocks_by_label == ((1, 2),)
    with pytest.raises(RootHasNoParent):
        parent(full_root())
    with pytest.raises(RootHasNoParent):
        pair_parent(pair_root())


def test_level_counts_formulae():
    for n in range(1, 8):
        assert level_count(n, FULL) == math.factorial(n + 1) // 2
        assert level_count(n, PAIR) == math.prod(range(1, 2 * n, 2))


def test_digit_out_of_range():
    # radix at depth i is i + 2, so digit 4 is illegal at depth 2
    with pytest.raises(DigitOutOfRange):
        decode(TreeCode(FULL, (0, 4)))
    with pytest.raises(DigitOutOfRange):
        decode(TreeCode(PAIR, (3,)))


def test_figure_path_decodes_to_frozen_partition():
    op = decode(TreeCode(FULL, (2, 3, 4, 3, 2, 7, 0, 9)))
    assert op.n == 9
    assert op.blocks_by_label == ((3, 4, 7, 9), (8,), (5, 6), (1, 2))
    assert op.max_label_block() == (1, 2)
    assert encode(op, FULL) == TreeCode(FULL, (2, 3, 4, 3, 2, 7, 0, 9))


def test_children_count_and_parent_inverse_full():
    for n in range(1, 6):
        for op in stream_level(n, FULL):
            kids = children(op)
            assert len(kids) == n + 2
            for kid in kids:
                assert parent(kid) == op
                OrderedNcPartition.checked(kid.n, kid.blocks_by_label)


def test_children_count_and_parent_inverse_pair():
    for n in range(1, 5):
        for op in stream_level(n, PAIR):
            kids = pair_children(op)
            assert len(kids) == 2 * n + 1
            for kid in kids:
                assert pair_parent(kid) == op
                assert kid.partition().is_pair_partition()


def _relabel_full(blocks, n, d):
    # the per-digit relabel that the sibling batches replaced
    if d <= n:
        m = d + 1
        return tuple(tuple(x + 1 if x >= m else x for x in b) for b in blocks) + ((m,),)
    q = blocks[-1][-1]
    return (tuple(tuple(x + 1 if x > q else x for x in b) for b in blocks[:-1])
            + (blocks[-1] + (q + 1,),))


def _relabel_pair(blocks, n, d):
    m = d + 1
    return tuple(tuple(x + 2 if x >= m else x for x in b) for b in blocks) + ((m, m + 1),)


def test_sibling_batches_match_the_single_step_and_the_old_relabel():
    for kind, top, scale, oracle in ((FULL, 7, 1, _relabel_full),
                                     (PAIR, 5, 2, _relabel_pair)):
        for depth in range(1, top + 1):
            for op in stream_level(depth, kind):
                blocks = op.blocks_by_label
                kids = tree._kids(blocks, op.n, scale)
                assert len(kids) == tree._radix(depth, kind)
                for d, kid in enumerate(kids):
                    assert (kid == tree._child(blocks, op.n, d, scale)
                            == oracle(blocks, op.n, d))


def test_pair_children_relabel_blocks_of_any_size():
    # a pair spliced into a full-tree node splits blocks of three or more
    op = decode(TreeCode(FULL, (2, 3, 4, 3, 2, 7, 0, 9)))
    assert op.blocks_by_label[0] == (3, 4, 7, 9)
    nodes = [op] + [node for node in stream_level(6, FULL)
                    if max(map(len, node.blocks_by_label)) >= 3]
    assert len(nodes) > 400
    for node in nodes:
        kids = pair_children(node)
        assert [kid.blocks_by_label for kid in kids] == [
            _relabel_pair(node.blocks_by_label, node.n, d) for d in range(node.n + 1)]
        assert {kid.n for kid in kids} == {node.n + 2}


def test_walk_matches_unrank_from_every_start():
    # the walk yields the raw blocks of every node in rank order, and
    # both level names yield the nodes themselves
    for kind, depths in ((FULL, (1, 2, 5)), (PAIR, (1, 2, 4))):
        for n in depths:
            nodes = [unrank(k, n, kind) for k in range(level_count(n, kind))]
            assert list(tree._walk(n, kind)) == [
                op.blocks_by_label for op in nodes], (kind, n)
            assert list(stream_level(n, kind)) == nodes, (kind, n)
            assert list(iter_level(n, kind)) == nodes, (kind, n)


def test_the_codec_steps_without_a_sibling_batch(monkeypatch):
    # unranking, ranking and single child or parent steps shift points
    # directly, so they work with the batch stepper gone
    def no_batch(*args):
        raise AssertionError("a single step built a sibling batch")
    monkeypatch.setattr(tree, "_rows", no_batch)
    for kind, n, up in ((FULL, 16, parent), (PAIR, 12, pair_parent)):
        total = level_count(n, kind)
        for k in (0, 1, total // 3, total - 2, total - 1):
            op = unrank(k, n, kind)
            assert rank_of(op, kind) == k
            assert unrank(k // tree._radix(n - 1, kind), n - 1, kind) == up(op)
            for d in (0, tree._radix(n, kind) - 1):
                kid = child_at(op, d, kind)
                assert up(kid) == op
                assert rank_of(kid, kind) == k * tree._radix(n, kind) + d


def test_the_walk_builds_every_node_from_one_batch_per_parent(monkeypatch):
    def no_single_step(*args):
        raise AssertionError("the walk took a single child step")
    real = tree._kids
    calls = []

    def counted(blocks, n, scale):
        calls.append(n)
        return real(blocks, n, scale)
    monkeypatch.setattr(tree, "_child", no_single_step)
    monkeypatch.setattr(tree, "_kids", counted)
    for kind, n in ((FULL, 6), (PAIR, 4)):
        calls.clear()
        assert sum(1 for _ in stream_level(n, kind)) == level_count(n, kind)
        assert len(calls) == sum(level_count(k, kind) for k in range(1, n))


def test_elongation_child_grows_max_block():
    op = decode(TreeCode(FULL, (2, 1)))
    last = children(op)[-1]
    assert len(last.max_label_block()) == len(op.max_label_block()) + 1


def test_parent_deletes_last_point_of_max_block():
    # two shapes: singleton max block disappears, longer one shrinks
    op = decode(TreeCode(FULL, (0, 0)))
    assert len(op.max_label_block()) == 1
    assert parent(op).n == op.n - 1
    op2 = decode(TreeCode(FULL, (0, 3)))  # elongated block
    assert op2.blocks_by_label == ((3,), (1, 2))
    assert len(op2.max_label_block()) == 2
    assert parent(op2).blocks_by_label == ((2,), (1,))


def test_rank_quotient_is_the_iterated_parent():
    # the rank-k node's s-fold ancestor has rank k // (7 * 6 * ... ) with
    # one factor per step: the child count of the level stepped up to
    for k, op in enumerate(stream_level(6, FULL)):
        cur, divisor = op, 1
        for step in range(1, 4):
            cur = parent(cur)
            divisor *= 8 - step
            assert rank_of(cur) == k // divisor, (k, step)


def test_pair_parent_is_parent_twice():
    for op in stream_level(4, PAIR):
        via_full = parent(parent(op))
        assert pair_parent(op) == via_full


def test_pair_parent_refuses_a_maximal_block_that_is_not_an_interval_pair():
    with pytest.raises(ValueError, match=r"\(1, 4\) is not an interval pair"):
        pair_parent(OrderedNcPartition(4, ((2, 3), (1, 4))))


def test_level_matches_filter_construction():
    for n in range(1, 7):
        walked = {op.blocks_by_label for op in stream_level(n, FULL)}
        assert walked == reference.ordered_partitions_by_filter(n)
    for n in range(1, 5):
        walked = {op.blocks_by_label for op in stream_level(n, PAIR)}
        assert walked == reference.ordered_pair_partitions_by_filter(n)


def test_rank_round_trip_exhaustive_small():
    for kind, bound in ((FULL, 6), (PAIR, 5)):
        for n in range(1, bound + 1):
            for k, op in enumerate(stream_level(n, kind)):
                assert rank_of(op, kind) == k
                assert unrank(k, n, kind) == op


def test_stream_level_terminates_without_formula():
    for n in range(1, 7):
        assert sum(1 for _ in stream_level(n, FULL)) == level_count(n, FULL)
    for n in range(1, 6):
        assert sum(1 for _ in stream_level(n, PAIR)) == level_count(n, PAIR)


def test_stream_level_rejects_depths_below_one(monkeypatch):
    # the check must not come from the counting formula
    monkeypatch.setattr(tree, "level_count", None)
    for kind in (FULL, PAIR):
        for n in (0, -1):
            with pytest.raises(ValueError, match="depth must be >= 1"):
                next(stream_level(n, kind))


def test_rank_out_of_range():
    with pytest.raises(RankOutOfRange):
        unrank(level_count(4, FULL), 4, FULL)


def test_code_json_round_trip():
    code = TreeCode(PAIR, (2, 4, 0))
    blob = code.to_json()
    assert blob == {"kind": "pair", "digits": [2, 4, 0]}
    assert TreeCode.from_json(blob) == code


def test_code_json_rejects_a_digit_that_is_not_an_integer():
    for bad in (1.7, "2", True):
        with pytest.raises(ValueError, match=repr(bad)):
            TreeCode.from_json({"kind": "full", "digits": [bad]})


def test_checked_rejects_badly_ordered_labels():
    # inner block must carry the larger label
    with pytest.raises(ValueError):
        OrderedNcPartition.checked(4, ((2, 3), (1, 4)))
    OrderedNcPartition.checked(4, ((1, 4), (2, 3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.data())
def test_unrank_rank_property_full(n, data):
    k = data.draw(st.integers(min_value=0, max_value=level_count(n, FULL) - 1))
    op = unrank(k, n, FULL)
    assert rank_of(op, FULL) == k
    assert op.n == n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_unrank_rank_property_pair(n, data):
    k = data.draw(st.integers(min_value=0, max_value=level_count(n, PAIR) - 1))
    op = unrank(k, n, PAIR)
    assert rank_of(op, PAIR) == k
    assert op.partition().is_pair_partition()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.data())
def test_adjacent_ranks_share_a_long_prefix(n, data):
    k = data.draw(st.integers(min_value=0, max_value=level_count(n, FULL) - 2))
    a = encode(unrank(k, n, FULL), FULL)
    b = encode(unrank(k + 1, n, FULL), FULL)
    assert a.digits != b.digits
    assert a.kind == b.kind == FULL
