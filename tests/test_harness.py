"""Check runner: pass/fail reports, witnesses, minimization."""

import json
from array import array

import pytest

from fractions import Fraction

from mton import closed_forms as cf
from mton import cumulants as cm
from mton import laplace, partitions, reference, stats, tree
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
    spec = CheckSpec("toy", "fails at and past a threshold")
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
    broken = Check(CheckSpec("broken", "raises at n=3"), (1, 2, 3, 4), kernel)
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


def test_run_is_deterministic():
    first = run_suite("thm111")
    second = run_suite("thm111")
    assert [r.status for r in first] == [r.status for r in second]
    assert [r.witness for r in first] == [r.witness for r in second]


@pytest.fixture
def scan_calls(monkeypatch):
    # a cold scan cache whose walks are recorded; the warm cache of the
    # earlier tests comes back afterwards
    calls = []
    real = laplace.scan_chunk

    def counted(kind, depth):
        calls.append((kind, depth))
        return real(kind, depth)

    monkeypatch.setattr(laplace, "_scan_cache", {})
    monkeypatch.setattr(laplace, "scan_chunk", counted)
    return calls


def test_scan_reader_asks_for_its_deepest_level_once(scan_calls):
    totals = []

    def kernel(n):
        totals.append(laplace.bruteforce_transform(BLOCKS, n).evaluate(1))
        return None
    check = Check(CheckSpec("reader", "reads the full-tree scan"),
                  tuple(range(1, 6)), kernel, ((FULL, 5),))
    assert check.run().status == "pass"
    assert scan_calls == [(FULL, 5)]
    assert totals == [tree.level_count(n) for n in range(1, 6)]


def test_a_suite_scans_each_tree_it_reads_once(scan_calls):
    assert [r.status for r in run_suite("thm111")] == ["pass"] * 4
    assert scan_calls == [(PAIR, 7)]


def test_the_lemmas_suite_scans_each_tree_once(scan_calls):
    assert [r.status for r in run_suite("lemmas")] == ["pass"] * 3
    assert scan_calls == [(FULL, 8), (PAIR, 7)]


def test_the_benchmarked_suites_share_one_scan_per_tree(scan_calls,
                                                         monkeypatch):
    # one process, as one verify run after another: no later suite
    # rescans a tree, and no check walks a level of its own
    def no_walk(*args, **kwargs):
        raise AssertionError("iter_level was called")
    monkeypatch.setattr(tree, "iter_level", no_walk)
    for suite in ("lemmas", "thm110", "thm111", "selftest"):
        reports = run_suite(suite)
        assert [r.status for r in reports] == ["pass"] * len(reports), suite
    assert scan_calls == [(FULL, 8), (PAIR, 7)]


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


def test_singleton_slice_catches_a_moved_record_id(monkeypatch):
    # a copy of the full-tree record in which one level-5 node of the
    # singleton slice carries the one-block partition instead of its own
    warm = laplace.scan_record(FULL, 8)
    ranked = {level: array("H", warm.ranked[level]) for level in range(1, 9)}
    moved = laplace.ScanRecord(FULL, list(warm.partitions), ranked,
                               warm._tallies)
    k = tree.max_label_block_sizes(5).index(1, 100)  # past the first batches
    ranked[5][k] = moved.partitions.index(((1, 2, 3, 4, 5),))
    monkeypatch.setattr(laplace, "_scan_cache", {FULL: (8, moved)})
    report = _report("singleton-slice")
    assert report.status == "fail"
    assert report.witness["n"] == 5
    assert report.witness["stat"] == "Y"


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
    real = laplace.first_kind_input
    monkeypatch.setattr(laplace, "first_kind_input",
                        lambda s: (1, 1) if s == BLOCKS else real(s))
    report = _report("first-kind-edges")
    assert report.status == "fail"
    assert report.witness == {"n": 2, "stat": "Y", "digit": 2,
                              "parent": {"n": 1, "blocks_by_label": [[1]]},
                              "size": 2, "increment": 0, "want": 1}


def test_a_misplaced_elongation_column_fails_both_lemmas(monkeypatch):
    # sizes built as if the elongation were digit 0: the labelled tie at
    # rank 0 of level 2 sees a singleton where the digits claim two points
    def elongation_first(n):
        sizes = array("B", [1])
        for m in range(2, n + 1):
            longer = array("B", [s + 1 for s in sizes])
            sizes = array("B", [1]) * (len(sizes) * (m + 1))
            sizes[0::m + 1] = longer
        return sizes
    monkeypatch.setattr(tree, "max_label_block_sizes", elongation_first)
    for check_id in ("parent-chain-bijection", "singleton-slice"):
        report = _report(check_id)
        assert report.status == "fail", check_id
        assert report.witness == {
            "n": 2, "node": {"n": 2, "blocks_by_label": [[2], [1]]},
            "max_block": [1], "digit_size": 2}, check_id


def test_stat_cross_check_scans_each_tree_once(scan_calls):
    assert build_checks()["stat-cross-check"].run().status == "pass"
    assert scan_calls == [(FULL, 7), (PAIR, 6)]


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
    return Check(CheckSpec("scan-multiplicities", "to level 5"),
                 tuple(range(1, 6)), kernel, ((FULL, 5), (PAIR, 5)))


def test_readout_witness_names_the_alt_form(monkeypatch):
    # the shifted variance form one too high at n = 4: the enumerated
    # value still equals the direct form, so only alt_form shows the fault
    from mton import closed_forms

    real = closed_forms.variance_block_count_alt
    monkeypatch.setattr(closed_forms, "variance_block_count_alt",
                        lambda n: real(n) + (n == 4))
    kernel = build_checks()["block-count-variance"].kernel
    report = Check(CheckSpec("block-count-variance", "to level 5"),
                   tuple(range(2, 6)), kernel, ((FULL, 5),)).run()
    assert report.status == "fail"
    assert report.witness == {"n": 4, "enumerated": "2051/3600",
                              "closed_form": "2051/3600",
                              "alt_form": "5651/3600"}


def test_scan_multiplicities_catches_a_moved_tally(monkeypatch):
    # one level-3 node tallied under another partition: every smaller
    # level still passes, and the witness names the first partition off
    real = laplace.scan_chunk

    def moved(kind, depth):
        hist = real(kind, depth)
        if kind == FULL and depth >= 3:
            level = hist[3]
            level[((1,), (2,), (3,))] -= 1
            level[((1, 2, 3),)] += 1
        return hist
    monkeypatch.setattr(laplace, "_scan_cache", {})
    monkeypatch.setattr(laplace, "scan_chunk", moved)
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
    real = laplace.scan_chunk

    def merged(kind, depth):
        hist = real(kind, depth)
        if kind == PAIR and depth >= 2:
            level = hist[2]
            level[((1, 2), (3, 4))] += level.pop(((1, 4), (2, 3)))
        return hist
    monkeypatch.setattr(laplace, "_scan_cache", {})
    monkeypatch.setattr(laplace, "scan_chunk", merged)
    report = _small_multiplicity_check().run()
    assert report.status == "fail"
    assert report.witness == {"n": 2, "kind": PAIR, "distinct": 1,
                              "catalan": 2}


def test_a_scan_past_the_guard_is_an_error_report(scan_calls):
    def kernel(n):
        raise AssertionError("the kernel ran")
    too_deep = laplace.DEFAULT_MAX_FULL + 1
    check = Check(CheckSpec("too-deep", "asks past the guard"),
                  (1, too_deep), kernel, ((FULL, too_deep),))
    report = check.run()
    assert report.status == "error"
    assert report.witness["n"] == too_deep
    assert report.witness["error"].startswith("SizeBoundExceeded")
    assert scan_calls == []


def test_declared_scans_stay_within_the_library_guard():
    limits = {FULL: laplace.DEFAULT_MAX_FULL, PAIR: laplace.DEFAULT_MAX_PAIR}
    for deep in (False, True):
        declared = {i: c for i, c in build_checks(deep).items() if c.scans}
        assert {"count-full", "count-pair", "product-form", "seed-resolution",
                "triangle-tree-recursion"} <= set(declared)
        for check_id, check in declared.items():
            for kind, depth in check.scans:
                assert depth <= limits[kind], (deep, check_id)


def test_count_kernel_reads_the_scan_not_a_stream(monkeypatch):
    def no_stream(*args, **kwargs):
        raise AssertionError("stream_level was called")
    monkeypatch.setattr(tree, "stream_level", no_stream)
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
    report = Check(CheckSpec("area-total", "to level 5"),
                   tuple(range(1, 6)), kernel, ((PAIR, 5),)).run()
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
