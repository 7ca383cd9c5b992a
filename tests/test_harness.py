"""Check runner: pass/fail reports, witnesses, minimization."""

import json

import pytest

from mton.harness import (Check, CheckReport, CheckSpec, NotMinimizable,
                          SUITES, build_checks, corrupted_checks,
                          counterexample_minimize, reports_to_jsonl,
                          run_checks, run_suite, suite_names, summary_table)


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
