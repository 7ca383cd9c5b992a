"""Check runner: pass/fail reports, witnesses, minimization."""

import copy
import json
from array import array
from collections import Counter

import pytest

from fractions import Fraction

from mton import closed_forms as cf
from mton import cumulants as cm
from mton import harness, laplace, partitions, reference, stats, tree
from mton.harness import (Check, CheckReport, CheckSpec, NotMinimizable,
                          SUITES, _count_kernel, _disagree, build_checks,
                          corrupted_checks, counterexample_minimize,
                          reports_to_jsonl, run_checks, run_suite,
                          suite_names, summary_table)
from mton.polynomials import ExactPolynomial, format_rational, parse_rational
from mton.stats import BLOCKS
from mton.tree import FULL, PAIR


def make_check(threshold):
    # fails for every n >= threshold
    def kernel(n):
        if n >= threshold:
            return {"n": n, "got": n * n, "want": -1}
        return None
    spec = CheckSpec("toy")
    return Check(spec, tuple(range(1, 10)), kernel)


def test_passing_check_report():
    report = make_check(100).run()
    assert report.status == "pass"
    assert report.witness is None
    assert report.elapsed >= 0.0


def test_failing_check_stops_at_first_witness():
    report = make_check(4).run()
    assert report.status == "fail"
    assert report.witness["n"] == 4


def test_raising_kernel_is_an_error_report_and_the_run_goes_on():
    def kernel(n):
        if n == 3:
            raise ZeroDivisionError("bad denominator")
        return None
    broken = Check(CheckSpec("broken"), (1, 2, 3, 4), kernel)
    reports = run_checks([broken, make_check(100)])
    assert [r.status for r in reports] == ["error", "pass"]
    witness = reports[0].witness
    assert witness["n"] == 3
    assert witness["error"] == "ZeroDivisionError: bad denominator"
    assert any("raise ZeroDivisionError" in line
               for line in witness["traceback"])
    assert "1 failing" in summary_table(reports)
    assert json.loads(reports_to_jsonl(reports).splitlines()[0]) == {
        "id": "broken", "status": "error", "witness": witness,
        "elapsed": round(reports[0].elapsed, 3)}


def test_minimize_recovers_smallest_size():
    check = make_check(3)
    report = CheckReport("toy", "fail", {"n": 7, "got": 49, "want": -1}, 0.0)
    minimized = counterexample_minimize(report, {"toy": check})
    assert minimized.witness["n"] == 3


def test_minimize_rejects_passing_report():
    check = make_check(3)
    with pytest.raises(NotMinimizable):
        counterexample_minimize(CheckReport("toy", "pass"), {"toy": check})


def test_minimize_rejects_unknown_id():
    with pytest.raises(NotMinimizable):
        counterexample_minimize(CheckReport("ghost", "fail", {"n": 1}), {})


def test_minimize_rejects_flaky_check():
    report = CheckReport("toy", "fail", {"n": 5}, 0.0)
    with pytest.raises(NotMinimizable):
        counterexample_minimize(report, {"toy": make_check(100)})


def test_registry_covers_every_suite():
    # both ways: a registered check in no suite would never run
    in_suites = [check_id for ids in SUITES.values() for check_id in ids]
    assert list(build_checks()) == in_suites
    assert suite_names()[0] == "all"


def test_deep_raises_bounds():
    shallow = build_checks(deep=False)
    deep = build_checks(deep=True)
    assert deep["count-full"].sizes[-1] == shallow["count-full"].sizes[-1] + 1
    assert deep["count-pair"].sizes[-1] == shallow["count-pair"].sizes[-1] + 1


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_reports_serialize_to_json_lines():
    reports = run_checks([make_check(100), make_check(2)])
    blob = reports_to_jsonl(reports)
    rows = [json.loads(line) for line in blob.splitlines()]
    assert rows[0]["status"] == "pass"
    assert rows[1]["status"] == "fail"
    assert rows[1]["witness"]["n"] == 2
    table = summary_table(reports)
    assert "1 failing" in table


def test_corrupted_twins_fail_and_minimize():
    twins = corrupted_checks()
    assert {suite: minimal for suite, (_, minimal) in twins.items()} == {
        "cardinality": 1, "thm16": 2, "thm17": 3, "lemmas": 2, "thm110": 1,
        "thm111": 1, "stirling": 2, "cumulants": 1}
    for suite, (check, minimal) in twins.items():
        report = check.run()
        assert report.status == "fail", suite
        minimized = counterexample_minimize(report, {check.spec.id: check})
        assert minimized.witness["n"] == minimal, suite


def test_corrupted_twins_run_their_suites_kernels():
    # each twin is a real kernel factory fed a wrong formula, not a copy
    checks = build_checks()
    for suite, (twin, _) in corrupted_checks().items():
        codes = {checks[i].kernel.__code__ for i in SUITES[suite]}
        assert twin.kernel.__code__ in codes, suite


def test_variance_forms_catch_a_wrong_running_difference(monkeypatch):
    # the direct form reads D_n, the shifted form the harmonic caches
    from mton import closed_forms

    real = closed_forms.harmonic_difference
    monkeypatch.setattr(closed_forms, "harmonic_difference",
                        lambda n: real(n) + (n == 5000))
    report = build_checks()["variance-forms"].run()
    assert report.status == "fail"
    assert report.witness["n"] == 5000


def test_selftest_suite_passes():
    reports = run_suite("selftest")
    assert [r.status for r in reports] == ["pass"]


def _selftest_with(monkeypatch, check, minimal):
    # the self-test's report when the one corrupted twin is this check
    monkeypatch.setattr(harness, "corrupted_checks",
                        lambda: {"toy": (check, minimal)})
    report, = run_suite("selftest")
    assert report.status == "fail"
    return report.witness


def test_selftest_fails_on_a_twin_that_passes(monkeypatch):
    assert _selftest_with(monkeypatch, make_check(100), 1) == {
        "suite": "toy", "check": "toy",
        "problem": "corrupted formula not caught", "status": "pass"}


def test_selftest_fails_on_a_twin_that_passes_on_its_rerun(monkeypatch):
    runs = []

    def kernel(n):
        runs.append(n)
        return {"n": n} if len(runs) == 1 else None
    flaky = Check(CheckSpec("flaky"), (1, 2, 3), kernel)
    assert _selftest_with(monkeypatch, flaky, 1) == {
        "suite": "toy", "check": "flaky",
        "problem": "failure not minimizable"}


def test_selftest_fails_on_a_twin_minimal_elsewhere(monkeypatch):
    assert _selftest_with(monkeypatch, make_check(4), 2) == {
        "suite": "toy", "check": "toy",
        "problem": "minimal witness not n=2",
        "witness": {"n": 4, "got": 16, "want": -1}}


def test_run_is_deterministic():
    first = run_suite("thm111")
    second = run_suite("thm111")
    assert [r.status for r in first] == [r.status for r in second]
    assert [r.witness for r in first] == [r.witness for r in second]


class _ScanCalls(list):
    """Each scan as its tree, its depth and the levels it found in the
    record; ``batches`` counts the child batches built, by tree."""

    def __init__(self):
        super().__init__()
        self.batches = Counter()


@pytest.fixture
def scan_calls(monkeypatch):
    # a cold scan cache whose scans and child batches are recorded; the
    # warm cache of the earlier tests comes back afterwards
    calls = _ScanCalls()
    real, real_kids = laplace.scan_chunk, tree._kids

    def counted(kind, depth, record=None):
        calls.append((kind, depth, len(record or ())))
        return real(kind, depth, record)

    def counted_kids(blocks, n, scale):
        calls.batches[FULL if scale == 1 else PAIR] += 1
        return real_kids(blocks, n, scale)

    monkeypatch.setattr(laplace, "_scan_cache", {})
    monkeypatch.setattr(laplace, "scan_chunk", counted)
    monkeypatch.setattr(tree, "_kids", counted_kids)
    return calls


# the states of levels 1, 2, ... of each tree, one batch each
_STATES = {FULL: (1, 3, 9, 29, 99, 351, 1275), PAIR: (1, 3, 10, 35, 126, 462)}


def _states_above(kind, depth):
    # the batches that a scan to depth builds once each
    return sum(_STATES[kind][:depth - 1])


def test_a_reader_extends_the_scan_one_level_at_a_time(scan_calls):
    # each size reads one level deeper than the last; every scan builds
    # only the level the record lacks, so every batch is built once
    totals = []

    def kernel(n):
        totals.append(laplace.bruteforce_transform(BLOCKS, n).evaluate(1))
        return None
    check = Check(CheckSpec("reader"), tuple(range(1, 6)), kernel)
    assert check.run().status == "pass"
    assert scan_calls == [(FULL, n, n - 1) for n in range(1, 6)]
    assert totals == [tree.level_count(n) for n in range(1, 6)]
    assert scan_calls.batches == {FULL: _states_above(FULL, 5)}


def test_a_suite_scans_each_tree_it_reads_once(scan_calls):
    assert [r.status for r in run_suite("thm111")] == ["pass"] * 4
    assert scan_calls.batches == {PAIR: _states_above(PAIR, 7)}


def test_the_lemmas_suite_scans_each_tree_once(scan_calls):
    assert [r.status for r in run_suite("lemmas")] == ["pass"] * 3
    assert scan_calls.batches == {FULL: _states_above(FULL, 8),
                                  PAIR: _states_above(PAIR, 7)}


def test_the_benchmarked_suites_share_one_scan_per_tree(scan_calls,
                                                         monkeypatch):
    # one process, as one verify run after another: no later suite
    # rebuilds a level, and no check walks a level of its own
    def no_walk(*args, **kwargs):
        raise AssertionError("a level was walked")
    monkeypatch.setattr(tree, "_walk", no_walk)
    for suite in ("lemmas", "thm110", "thm111", "selftest"):
        reports = run_suite(suite)
        assert [r.status for r in reports] == ["pass"] * len(reports), suite
    assert scan_calls.batches == {FULL: 1767, PAIR: 637}


def _report(check_id):
    return build_checks()[check_id].run()


def test_the_stepped_mean_finds_a_closed_form_wrong_at_one_size(monkeypatch):
    # the kernel keeps the closed form at n for the step into n + 1, so
    # each size evaluates it once, and the one wrong size is the witness
    real = cf.expected_outer_pairs
    calls = []

    def off_at_500(n):
        calls.append(n)
        return real(n) + (n == 500)
    monkeypatch.setattr(cf, "expected_outer_pairs", off_at_500)
    report = _report("outer-pair-mean-recursion")
    assert report.status == "fail"
    assert report.witness["n"] == 500
    assert report.witness["closed_form"] == format_rational(real(500) + 1)
    assert report.witness["stepped"] == format_rational(real(500))
    assert calls == list(range(1, 501))


def test_parent_chain_catches_a_wrong_second_increment(monkeypatch):
    # r_2 one too high: the elongation children of level 2 are the first
    # whose parent step breaks the padded shift
    real = stats.first_kind_input

    def wrong(stat):
        r = real(stat) + (0,)
        return r[:1] + (r[1] + 1,) + r[2:]
    monkeypatch.setattr(stats, "first_kind_input", wrong)
    report = _report("parent-chain-bijection")
    assert report.status == "fail"
    assert report.witness == {"n": 2, "ell": 2, "stat": "Y",
                              "node": {"n": 2, "blocks_by_label": [[1, 2]]},
                              "delta": 0, "want": 1}


def _altered(monkeypatch, level, field, index, value):
    # a copy of the warm full-tree record in which one cell of one
    # level's state arrays holds another value, served from the cache
    warm = laplace.scan_record(FULL, 8)
    levels = dict(warm.levels)
    states = levels[level] = copy.copy(warm.levels[level])
    cells = getattr(states, field)
    cells = array(cells.typecode, cells)
    cells[index] = value
    setattr(states, field, cells)
    record = laplace.ScanRecord(FULL, warm.partitions, levels)
    monkeypatch.setattr(laplace, "_scan_cache", {FULL: record})
    return record


def _singleton_state(record, level, past):
    # the first state of the level past the given one whose maximal-label
    # block is a singleton
    return record.levels[level].size.index(1, past + 1)


def test_singleton_slice_catches_a_moved_record_id(monkeypatch):
    # one singleton state of level 5, past the first states, carries the
    # one-block partition instead of its own
    warm = laplace.scan_record(FULL, 8)
    k = _singleton_state(warm, 5, 40)
    _altered(monkeypatch, 5, "part", k, warm.partitions.index(((1, 2, 3, 4, 5),)))
    report = _report("singleton-slice")
    assert report.status == "fail"
    assert report.witness["n"] == 5
    assert report.witness["stat"] == "Y"


def test_parent_chain_catches_a_misdirected_elongation_child(monkeypatch):
    # a singleton state of level 5 whose elongation entry points at the
    # previous singleton state's elongation child: that child is reached
    # by two chains, and the lost image, a later state, by none
    warm = laplace.scan_record(FULL, 8)
    width = tree._radix(5, FULL)
    other = _singleton_state(warm, 5, 10)
    s = _singleton_state(warm, 5, other)
    twice, lost = (warm.levels[5].kids[(t + 1) * width - 1] for t in (other, s))
    assert twice < lost
    record = _altered(monkeypatch, 5, "kids", (s + 1) * width - 1, twice)
    report = _report("parent-chain-bijection")
    assert report.status == "fail"
    node = tree.unrank(record.levels[6].first[twice], 6, FULL)
    assert report.witness == {"n": 6, "ell": 2, "node": node.to_json(),
                              "chains": 2, "want": 1}


def test_parent_chain_catches_a_node_count_off_its_image(monkeypatch):
    # a singleton state of level 5 counted one node too many: its
    # elongation child on level 6 keeps the true count
    warm = laplace.scan_record(FULL, 8)
    width = tree._radix(5, FULL)
    s = _singleton_state(warm, 5, 10)
    count = warm.levels[5].mult[s] + 1
    record = _altered(monkeypatch, 5, "mult", s, count)
    report = _report("parent-chain-bijection")
    assert report.status == "fail"
    image = record.levels[5].kids[(s + 1) * width - 1]
    node = tree.unrank(record.levels[6].first[image], 6, FULL)
    assert report.witness == {"n": 6, "ell": 2, "node": node.to_json(),
                              "count": record.levels[6].mult[image],
                              "source_count": count}


def test_singleton_slice_reads_the_one_evaluator(monkeypatch):
    # one level-5 partition of the singleton slice evaluated one too
    # high: the lemma reads it through ScanRecord.level_values, so every
    # level below passes and level 5 fails
    target = ((1,), (2,), (3,), (4,), (5,))
    real = stats._evaluate_blocks

    def off_by_one(s, blocks, points):
        return real(s, blocks, points) + (tuple(sorted(blocks)) == target)
    monkeypatch.setattr(laplace, "_evaluate_blocks", off_by_one)
    report = _report("singleton-slice")
    assert report.status == "fail"
    assert report.witness["n"] == 5


def test_first_kind_edges_pass_and_catch_a_wrong_vector(monkeypatch):
    assert _report("first-kind-edges").status == "pass"
    real = laplace.transition_law
    monkeypatch.setattr(laplace, "transition_law", lambda s, kind, upto=None:
                        (1, 1) if s == BLOCKS else real(s, kind, upto))
    report = _report("first-kind-edges")
    assert report.status == "fail"
    assert report.witness == {"n": 2, "stat": "Y", "digit": 2,
                              "parent": {"n": 1, "blocks_by_label": [[1]]},
                              "size": 2, "increment": 0, "want": 1}


_EDGE_CHECKS = ("first-kind-edges", "outer-full-subsets",
                "interval-pair-subsets", "outer-pair-subsets",
                "area-child-split")


def _no_rebuild(monkeypatch):
    def rebuilt(*args):
        raise AssertionError("a check built a child")
    monkeypatch.setattr(tree, "_kids", rebuilt)


def test_the_edge_laws_read_the_warm_record_alone(monkeypatch):
    # the increment, insertion and area-split laws and the two tree
    # lemmas take every batch, and every child size, from the record the
    # scan left
    laplace.scan_record(FULL, 8)
    laplace.scan_record(PAIR, 7)
    _no_rebuild(monkeypatch)
    for check_id in _EDGE_CHECKS + ("parent-chain-bijection",
                                    "singleton-slice"):
        assert _report(check_id).status == "pass", check_id


def test_first_kind_edges_read_the_stored_child_sizes(monkeypatch):
    # a copy of the full-tree record in which one level-5 state, past the
    # first states, stores its two-point maximal-label block one point
    # short: the elongation edge that first reaches it, read as a
    # singleton child, breaks Y's increment
    warm = laplace.scan_record(FULL, 8)
    width = tree._radix(4, FULL)
    k = warm.levels[5].size.index(2, 10 * width)
    short = _altered(monkeypatch, 5, "size", k, 1)
    _no_rebuild(monkeypatch)
    report = _report("first-kind-edges")
    assert report.status == "fail"
    rank, digit = divmod(short.levels[5].first[k], width)
    assert report.witness == {"n": 5, "stat": "Y", "digit": digit,
                              "parent": tree.unrank(rank, 4, FULL).to_json(),
                              "size": 1, "increment": 0, "want": 1}


def test_a_misplaced_elongation_column_fails_both_lemmas(monkeypatch):
    # the children at digit 0 and at the elongation digit of one
    # singleton state of level 4 swap their stored block sizes: the slice
    # takes the wrong state, and the chain reaches a state of the wrong
    # size
    warm = laplace.scan_record(FULL, 8)
    width = tree._radix(4, FULL)
    s = _singleton_state(warm, 4, 10)
    kids, sizes = warm.levels[4].kids, warm.levels[5].size
    first, last = kids[s * width], kids[(s + 1) * width - 1]
    assert (sizes[first], sizes[last]) == (1, 2)
    record = _altered(monkeypatch, 5, "size", first, 2)
    record.levels[5].size[last] = 1
    slice_report = _report("singleton-slice")
    assert slice_report.status == "fail"
    assert (slice_report.witness["n"], slice_report.witness["stat"]) == (5, "Y")
    report = _report("parent-chain-bijection")
    assert report.status == "fail"
    k = min(first, last)
    node = tree.unrank(record.levels[5].first[k], 5, FULL)
    assert report.witness == {"n": 5, "ell": 2, "node": node.to_json(),
                              "chains": int(k == last),
                              "want": int(k == first)}


def test_stat_cross_check_scans_each_tree_once(scan_calls):
    assert build_checks()["stat-cross-check"].run().status == "pass"
    assert scan_calls.batches == {FULL: _states_above(FULL, 7),
                                  PAIR: _states_above(PAIR, 6)}


def test_stat_cross_check_catches_a_wrong_span_sweep(scan_calls, monkeypatch):
    # the scanned values read the sweep through the evaluator in stats
    real = partitions._span_sweep

    def wrong(blocks):
        return real(blocks)[:2]  # at most two outer blocks
    monkeypatch.setattr(stats, "_span_sweep", wrong)
    report = build_checks()["stat-cross-check"].run()
    assert report.status == "fail"
    assert report.witness["n"] == 3
    assert (report.witness["stat"], report.witness["kind"]) == ("Out", FULL)


def _small_multiplicity_check():
    # the registered kernel, read to level 5 of each tree
    kernel = build_checks()["scan-multiplicities"].kernel
    return Check(CheckSpec("scan-multiplicities"), tuple(range(1, 6)), kernel)


def test_readout_witness_names_the_alt_form(monkeypatch):
    # the shifted variance form one too high at n = 4: the enumerated
    # value still equals the direct form, so only alt_form shows the fault
    from mton import closed_forms

    real = closed_forms.variance_block_count_alt
    monkeypatch.setattr(closed_forms, "variance_block_count_alt",
                        lambda n: real(n) + (n == 4))
    kernel = build_checks()["block-count-variance"].kernel
    report = Check(CheckSpec("block-count-variance"),
                   tuple(range(2, 6)), kernel).run()
    assert report.status == "fail"
    assert report.witness == {"n": 4, "enumerated": "2051/3600",
                              "closed_form": "2051/3600",
                              "alt_form": "5651/3600"}


def _served(monkeypatch, kind, alter):
    # a fresh level-5 scan of the tree, altered in place, served from an
    # otherwise cold cache
    record = laplace.scan_chunk(kind, 5)
    alter(record)
    monkeypatch.setattr(laplace, "_scan_cache", {kind: record})


def test_scan_multiplicities_catches_a_moved_tally(monkeypatch):
    # one level-3 node tallied under another partition: every smaller
    # level still passes, and the witness names the first partition off
    def moved(record):
        level = record[3]
        level[((1,), (2,), (3,))] -= 1
        level[((1, 2, 3),)] += 1
    _served(monkeypatch, FULL, moved)
    check = _small_multiplicity_check()
    report = check.run()
    assert report.status == "fail"
    assert report.witness == {"n": 3, "kind": FULL,
                              "blocks": [[1], [2], [3]],
                              "tallied": 5, "hook": 6}
    minimized = counterexample_minimize(report, {check.spec.id: check})
    assert minimized.witness == report.witness


def test_scan_multiplicities_catches_a_missing_partition(monkeypatch):
    # both level-2 pair partitions tallied as one: the totals still
    # hold, the number of distinct partitions does not
    def merged(record):
        level = record[2]
        level[((1, 2), (3, 4))] += level.pop(((1, 4), (2, 3)))
    _served(monkeypatch, PAIR, merged)
    report = _small_multiplicity_check().run()
    assert report.status == "fail"
    assert report.witness == {"n": 2, "kind": PAIR, "distinct": 1,
                              "catalan": 2}


def test_a_scan_past_the_guard_is_an_error_report(scan_calls, monkeypatch):
    # depth 11, past the scan record's id capacity, is refused on both
    # trees before a child is built, and each check reports the error
    def no_child(*args):
        raise AssertionError("the scan built a child")
    monkeypatch.setattr(tree, "_kids", no_child)
    for kind in (FULL, PAIR):
        def kernel(n):
            laplace.level_histograms(kind, n)
            return None
        check = Check(CheckSpec("too-deep"), (1, 11), kernel)
        report = check.run()
        assert report.status == "error"
        assert report.witness["n"] == 11
        assert report.witness["error"].startswith("SizeBoundExceeded")
    assert scan_calls == [(FULL, 1, 0), (FULL, 11, 1),
                          (PAIR, 1, 0), (PAIR, 11, 1)]


def test_count_kernel_reads_the_scan_not_a_stream(monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("a level was walked")
    monkeypatch.setattr(tree, "_walk", no_walk)
    assert _count_kernel(FULL, tree.level_count)(6) is None
    wrong = _count_kernel(FULL, lambda n, kind: tree.level_count(n, kind) + 1)
    assert wrong(6) == {"n": 6, "streamed": 2520, "formula": 2521}
    real_rank = tree.rank_of
    monkeypatch.setattr(tree, "rank_of",
                        lambda op, kind=FULL: real_rank(op, kind) + 1)
    assert _count_kernel(FULL, tree.level_count)(6) == {
        "n": 6, "position": 0, "rank": 1}


def test_area_total_alt_form_is_the_split_lemmas_level_sum(monkeypatch):
    # the mean area one too high at n = 4 moves the closed total, while
    # the level sum of the area-child-split lemma still matches the scan
    from mton import closed_forms

    real = closed_forms.expected_area
    monkeypatch.setattr(closed_forms, "expected_area",
                        lambda n: real(n) + (n == 4))
    kernel = build_checks()["area-total"].kernel
    report = Check(CheckSpec("area-total"), tuple(range(1, 6)), kernel).run()
    assert report.status == "fail"
    witness = report.witness
    assert witness["n"] == 4
    assert witness["alt_form"] == witness["enumerated"]
    assert witness["closed_form"] != witness["enumerated"]


def _off_at(name, n_bad):
    # closed_forms.name one too high at n_bad
    real = getattr(cf, name)
    return cf, name, lambda n: real(n) + (n == n_bad)


def _last_value_off(module, name, where):
    # module.name with its last value one too high where where(*args)
    real = getattr(module, name)
    return module, name, lambda *args: (
        *real(*args)[:-1], real(*args)[-1] + where(*args))


def _recursion_off_at(n_bad):
    # laplace.recursion_transform with 1 added at level n_bad
    real = laplace.recursion_transform
    return laplace, "recursion_transform", lambda stat, n, *rest: (
        real(stat, n, *rest) + ExactPolynomial({0: n == n_bad}))


def _last_row_reversed():
    real = cm.stirling_by_closed_form
    return cm, "stirling_by_closed_form", lambda n_max: cm.StirlingTable(
        real(n_max).rows[:-1] + (real(n_max).rows[-1][::-1],))


# moments 1..20 of the Poisson law of rate -1
_POISSON_MINUS_ONE = [
    "-1", "0", "1/2", "1/6", "-5/12", "-11/30", "13/40", "1579/2520",
    "-71/630", "-4663/5040", "-3379/10080", "1941803/1663200",
    "11420461/9979200", "-458222/405405", "-124516999/51891840",
    "21816971/55036800", "874646387/217945728", "24391178737/14472958500",
    "-724713447847/132324192000", "-17394064193071/2933186256000"]


def _fixed_report(exact, asymptote):
    return cf, "asymptotic_report", lambda formula, n: cf.AsymptoticReport(
        formula, n, exact, asymptote, exact - asymptote, exact / asymptote)


_PINNED = [
    ("outer-full-mean", lambda: _off_at("expected_outer_blocks", 3),
     {"n": 3, "stat": "Out", "enumerated": "7/3", "closed_form": "10/3"}),
    ("outer-pair-mean-recursion", lambda: _off_at("expected_outer_pairs", 5),
     {"n": 5, "stat": "Out", "stepped": "193/63", "closed_form": "256/63"}),
    ("variance-forms", lambda: _off_at("variance_block_count_alt", 3),
     {"n": 3, "direct": "59/144", "shifted": "203/144"}),
    ("size-decomposition", lambda: _off_at("expected_size2_blocks", 5),
     {"n": 5, "whole": "81/20", "sum_of_parts": "101/20"}),
    ("moments-partition-sum",
     lambda: _last_value_off(reference, "moments_by_partition_sum",
                             lambda seq: len(seq) == 3),
     {"n": 3, "recurrence": "346373/20412", "partition_sum": "366785/20412"}),
    ("block-count-recursion", lambda: _recursion_off_at(3),
     {"n": 3, "stat": "Y", "enumerated": {"1": "1", "2": "5", "3": "6"},
      "recursion": {"0": "1", "1": "1", "2": "5", "3": "6"}}),
    ("triangle-recursion-closed", _last_row_reversed,
     {"n": 2, "closed_form": ["2", "1"], "recursion": ["1", "2"]}),
    ("seed-resolution", lambda: _recursion_off_at(3),
     {"n": 3, "enumerated": [{"0": "1", "1": "5", "3": "6"}, "23/12"],
      "recursion": [{"0": "2", "1": "5", "3": "6"}, "23/13"],
      "frozen": [{"0": "1", "1": "5", "3": "6"}, "23/12"]}),
    ("poisson-constant",
     lambda: _last_value_off(cm, "poisson_moments",
                             lambda alpha, upto: alpha == -1),
     {"n": 4, "alpha": "-1",
      "triangle": _POISSON_MINUS_ONE[:-1] + ["-14460877937071/2933186256000"],
      "recurrence": _POISSON_MINUS_ONE}),
    ("mean-asymptote", lambda: _fixed_report(10.5, 10.25),
     {"n": 10000, "mode": "float", "exact": 10.5, "asymptote": 10.25,
      "difference": 0.25, "tolerance": 1e-3}),
    ("outer-pair-asymptote", lambda: _fixed_report(3.0, 2.0),
     {"n": 10000, "mode": "float", "exact": 3.0, "asymptote": 2.0,
      "ratio": 1.5, "tolerance": 0.01}),
]


@pytest.mark.parametrize("check_id, corrupt, witness", _PINNED,
                         ids=[case[0] for case in _PINNED])
def test_a_corrupted_route_gives_its_pinned_witness(monkeypatch, check_id,
                                                    corrupt, witness):
    # one route of each comparison shape made wrong: the witness names
    # every route's value and the reported fields, exactly
    monkeypatch.setattr(*corrupt())
    report = build_checks()[check_id].run()
    assert report.status == "fail"
    assert report.witness == witness


def test_a_witness_of_any_exact_value_survives_json():
    # an integer past str()'s default 4300-digit limit, a fraction, a
    # polynomial and a nested tuple each read back exactly
    big = 7 ** 6000
    poly = ExactPolynomial({0: Fraction(-1, 3), 5: big})
    witness = _disagree(4, {"integer": big, "fraction": Fraction(-5, 7),
                            "polynomial": poly,
                            "nested": ((big, Fraction(2, 3)), [poly])},
                        stat="Y")
    back = json.loads(json.dumps(witness))
    assert (back["n"], back["stat"]) == (4, "Y")
    assert parse_rational(back["integer"]) == big
    assert parse_rational(back["fraction"]) == Fraction(-5, 7)
    assert ExactPolynomial.from_json({"coeffs": back["polynomial"]}) == poly
    (whole, part), [inner] = back["nested"]
    assert (parse_rational(whole), parse_rational(part)) == (
        big, Fraction(2, 3))
    assert ExactPolynomial.from_json({"coeffs": inner}) == poly
