"""Per-node statistics, path area, transition inputs, certificates."""

import csv
import io
from collections import Counter
from fractions import Fraction

import pytest

from mton import laplace, stats
from mton.partitions import validate_noncrossing
from mton.polynomials import ExactPolynomial
from mton.stats import (AREA, BLOCKS, INTERVAL_PAIRS, LARGE_BLOCKS, OUTER,
                        AreaRequiresPairPartition, NotFirstKind, NotSecondKind,
                        SecondKindInput, Statistic, blocks_of_size,
                        dyck_path, evaluate, first_kind_input, path_area,
                        second_kind_input, stats_table)
from mton.tree import (FULL, PAIR, OrderedNcPartition, TreeCode, child_at,
                       decode, stream_level)


def test_statistic_names_and_parse():
    assert BLOCKS.name == "Y"
    assert blocks_of_size(2).name == "Y2"
    assert LARGE_BLOCKS.name == "Yge3"
    assert OUTER.name == "Out"
    assert INTERVAL_PAIRS.name == "Int"
    assert AREA.name == "Area"
    for s in (BLOCKS, blocks_of_size(1), blocks_of_size(7), LARGE_BLOCKS,
              OUTER, INTERVAL_PAIRS, AREA):
        assert Statistic.parse(s.name) == s
    assert Statistic.parse("Y01") == blocks_of_size(1)
    assert Statistic.parse(" Out ") == OUTER
    for text in ("Y0", "nope", "y", "Y-1", "Yge", "out", "", "Y١", "Y²"):
        with pytest.raises(ValueError, match="unknown statistic"):
            Statistic.parse(text)


def test_parse_refuses_a_size_past_the_int_digit_limit():
    # int() refuses decimal text past 4300 digits, in wording of its own
    for digits in ("9" * 5000, "1" + "0" * 4300):
        with pytest.raises(ValueError, match="^unknown statistic 'Y"):
            Statistic.parse("Y" + digits)
    assert Statistic.parse("Y" + "9" * 4300) == blocks_of_size(10 ** 4300 - 1)


def test_name_writes_a_size_past_the_int_digit_limit():
    # str() refuses past 4300 digits, in wording of its own
    assert blocks_of_size(10 ** 4300).name == "Y1" + "0" * 4300


def test_parse_refuses_a_name_that_is_not_a_string():
    with pytest.raises(ValueError, match="got 5"):
        Statistic.parse(5)


def test_evaluate_on_frozen_node():
    op = decode(TreeCode(FULL, (2, 3, 4, 3, 2, 7, 0, 9)))
    # blocks: (3 4 7 9), (8), (5 6), (1 2)
    assert evaluate(BLOCKS, op) == 4
    assert evaluate(blocks_of_size(1), op) == 1
    assert evaluate(blocks_of_size(2), op) == 2
    assert evaluate(blocks_of_size(4), op) == 1
    assert evaluate(LARGE_BLOCKS, op) == 1
    assert evaluate(OUTER, op) == 2
    assert evaluate(INTERVAL_PAIRS, op) == 2


def test_interval_starts_are_the_adjacent_two_blocks():
    # any two-element interval counts, on a pair-partition or not
    p = validate_noncrossing([[1, 6], [2, 3], [4, 5]], 6)
    assert stats._interval_starts(p.blocks) == [2, 4]
    q = validate_noncrossing([[1, 3], [2], [4]], 4)
    assert stats._interval_starts(q.blocks) == []


def test_block_size_statistics_decompose_pointwise():
    for n in range(1, 8):
        for op in stream_level(n, FULL):
            total = sum(evaluate(blocks_of_size(size), op)
                        for size in range(1, n + 1))
            assert total == evaluate(BLOCKS, op)
            assert (evaluate(LARGE_BLOCKS, op)
                    == evaluate(BLOCKS, op)
                    - evaluate(blocks_of_size(1), op)
                    - evaluate(blocks_of_size(2), op))


def test_level_values_equal_the_six_evaluations(walk_rank):
    # the tree lemmas read the block-size statistics off the scan record
    assert [s.name for s in stats.SIZE_STATS] == ["Y", "Y1", "Y2", "Y3", "Y4", "Yge3"]
    record = laplace.scan_record(FULL, 7)
    for n in range(1, 8):
        values = [record.level_values(s, n) for s in stats.SIZE_STATS]
        part = record.levels[n].part
        for rank, op in enumerate(stream_level(n, FULL)):
            i = part[walk_rank(record, rank, n)]
            assert tuple(v[i] for v in values) == tuple(
                evaluate(s, op) for s in stats.SIZE_STATS), op


def test_area_evaluation_refuses_a_non_pair_block():
    for n, blocks in ((3, ((1, 2), (3,))), (4, ((1, 2, 3, 4),))):
        with pytest.raises(AreaRequiresPairPartition):
            evaluate(AREA, OrderedNcPartition(n, blocks))
    assert evaluate(AREA, OrderedNcPartition(4, ((1, 4), (2, 3)))) == 4


def test_area_only_on_pair_partitions():
    # the evaluator the scan reads on each partition's blocks
    p = validate_noncrossing([[1, 2, 3]], 3)
    with pytest.raises(AreaRequiresPairPartition):
        stats._evaluate_blocks(AREA, p.blocks, p.n)
    p = validate_noncrossing([[1, 4], [2, 3]], 4)
    # trapezoid rule over heights 1, 2, 1, 0
    assert stats._evaluate_blocks(AREA, p.blocks, p.n) == 4


def test_dyck_path_and_area_examples():
    p = validate_noncrossing([[1, 4], [2, 3]], 4)
    assert dyck_path(p) == (1, 1, -1, -1)
    assert path_area(dyck_path(p)) == 4
    q = validate_noncrossing([[1, 2], [3, 4]], 4)
    assert dyck_path(q) == (1, -1, 1, -1)
    assert path_area(dyck_path(q)) == 2


def test_path_area_rejects_broken_paths():
    with pytest.raises(ValueError):
        path_area((1, 1, -1))
    with pytest.raises(ValueError):
        path_area((1, -1, -1, 1))


def test_area_statistic_matches_path_area():
    for n in range(1, 6):
        for op in stream_level(n, PAIR):
            p = op.partition()
            assert evaluate(AREA, op) == path_area(dyck_path(p))


def test_first_kind_inputs():
    assert first_kind_input(BLOCKS) == (1,)
    assert first_kind_input(blocks_of_size(1)) == (1, -1)
    assert first_kind_input(blocks_of_size(2)) == (0, 1, -1)
    assert first_kind_input(blocks_of_size(3)) == (0, 0, 1, -1)
    assert first_kind_input(LARGE_BLOCKS) == (0, 0, 1)
    with pytest.raises(NotFirstKind):
        first_kind_input(OUTER)
    with pytest.raises(NotFirstKind):
        first_kind_input(AREA)


def test_seed_levels_are_the_vector_lengths_and_never_raise():
    for s in (BLOCKS, blocks_of_size(1), blocks_of_size(2), blocks_of_size(7),
              LARGE_BLOCKS):
        assert stats.seed_levels(s, FULL) == len(first_kind_input(s)), s.name
        assert stats.seed_levels(s, PAIR) == 1
    for s in (OUTER, INTERVAL_PAIRS, AREA):
        assert stats.seed_levels(s, FULL) == stats.seed_levels(s, PAIR) == 1
    assert stats.seed_levels(blocks_of_size(10 ** 12), FULL) == 10 ** 12 + 1


def test_second_kind_inputs():
    assert second_kind_input(OUTER, FULL) == SecondKindInput(1, 0, 1)
    assert second_kind_input(OUTER, PAIR) == SecondKindInput(1, 0, 1)
    assert second_kind_input(INTERVAL_PAIRS, PAIR) == SecondKindInput(0, 1, 0)
    with pytest.raises(NotSecondKind):
        second_kind_input(INTERVAL_PAIRS, FULL)
    with pytest.raises(NotSecondKind):
        second_kind_input(BLOCKS, FULL)


# one statistic per family, and blocks_of_size at three sizes
_EVERY_FAMILY = (BLOCKS, blocks_of_size(1), blocks_of_size(2),
                 blocks_of_size(7), LARGE_BLOCKS, OUTER, INTERVAL_PAIRS, AREA)


def _law_or_refusal(law, *args):
    try:
        return law(*args)
    except NotSecondKind as refusal:
        return str(refusal)


def test_transition_law_is_the_cut_vector_or_the_insertion_law():
    # on the full tree a vector's r_1..r_upto, all of it by default;
    # otherwise the insertion law, or its lookup's refusal
    assert {s.family for s in _EVERY_FAMILY} == set(stats._FAMILIES)
    for stat in _EVERY_FAMILY:
        for kind in (FULL, PAIR):
            try:
                whole = first_kind_input(stat) if kind == FULL else None
            except NotFirstKind:
                whole = None
            for upto in (None, *range(len(whole or ()) + 2)):
                want = (_law_or_refusal(second_kind_input, stat, kind)
                        if whole is None else whole[:upto])
                assert _law_or_refusal(stats.transition_law, stat, kind,
                                       upto) == want, (stat.name, kind, upto)
    # a vector of 10**12 + 1 entries, cut without being built
    assert stats.transition_law(blocks_of_size(10 ** 12), FULL, 3) == (0, 0, 0)


def _first_second_kind_witness(stat, kind, bound):
    # the clauses on every parent with depth <= bound, smallest first
    for n in range(2, bound + 2):
        witness = laplace.edge_witness(stat, kind, n)
        if witness is not None:
            return witness
    return None


def _first_first_kind_witness(stat, bound):
    # the increments on every edge with child depth <= bound, smallest first
    for n in range(2, bound + 1):
        witness = laplace.edge_witness(stat, FULL, n)
        if witness is not None:
            return witness
    return None


def test_certificates_pass_at_small_bounds():
    assert _first_first_kind_witness(BLOCKS, 5) is None
    assert _first_first_kind_witness(blocks_of_size(1), 5) is None
    assert _first_first_kind_witness(LARGE_BLOCKS, 5) is None
    assert _first_second_kind_witness(OUTER, FULL, 5) is None
    assert _first_second_kind_witness(OUTER, PAIR, 4) is None
    assert _first_second_kind_witness(INTERVAL_PAIRS, PAIR, 4) is None


def test_certificate_rejects_wrong_vector(monkeypatch):
    # r_2 = 1 where the elongation keeps the block count: the root's
    # elongation child, whose maximal-label block has two points
    with monkeypatch.context() as patch:
        patch.setattr(laplace, "transition_law", lambda *args: (1, 1))
        witness = _first_first_kind_witness(BLOCKS, 4)
    assert witness == {"n": 2, "stat": "Y", "digit": 2,
                       "parent": {"n": 1, "blocks_by_label": [[1]]},
                       "size": 2, "increment": 0, "want": 1}
    parent = OrderedNcPartition.from_json(witness["parent"])
    assert len(child_at(parent, witness["digit"]).max_label_block()) == 2
    # a wrong q: the root's core subset has the wrong size
    monkeypatch.setattr(laplace, "transition_law",
                        lambda *args: SecondKindInput(1, 0, 2))
    witness = _first_second_kind_witness(OUTER, FULL, 4)
    assert (witness["core_size"], witness["want"]) == (2, 3)
    # a wrong alpha: the witness is the first child whose jump is off
    monkeypatch.setattr(laplace, "transition_law",
                        lambda *args: SecondKindInput(1, 1, 0))
    witness = _first_second_kind_witness(INTERVAL_PAIRS, PAIR, 3)
    parent = OrderedNcPartition.from_json(witness["parent"])
    child = child_at(parent, witness["digit"], PAIR)
    assert child.blocks_by_label == ((1, 4), (2, 3))


def test_joint_distribution_streaming_pass():
    # one walk per level feeds every first-kind statistic at once
    for n in range(1, 8):
        tallies = {s: Counter() for s in (BLOCKS, blocks_of_size(1),
                                          blocks_of_size(2), LARGE_BLOCKS)}
        for op in stream_level(n, FULL):
            for s in tallies:
                tallies[s][evaluate(s, op)] += 1
        for s, counter in tallies.items():
            direct = laplace.bruteforce_transform(s, n)
            assert ExactPolynomial(counter) == direct


def test_csv_writer_layout():
    out = io.StringIO()
    csv.writer(out).writerows(stats_table(2, FULL, [BLOCKS, OUTER]))
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "rank,n,Y,Out"
    assert lines[1] == "0,2,2,2"
    assert lines[2] == "1,2,2,2"
    assert lines[3] == "2,2,1,1"
    assert lines[4] == "mean,2,5/3,5/3"


def test_csv_writer_pair_area():
    out = io.StringIO()
    csv.writer(out).writerows(stats_table(2, PAIR, [AREA]))
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "rank,n,Area"
    assert [l.split(",")[2] for l in lines[1:4]] == ["2", "4", "2"]
    assert lines[4] == "mean,2,8/3"
