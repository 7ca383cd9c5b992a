"""Command-line surface, exercised through main() with captured output."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mton import closed_forms as cf
from mton import cumulants as cm
from mton import cli, harness, laplace, stats, tree
from mton.harness import SUITES
from mton.cli import main
from mton.polynomials import ExactPolynomial, format_rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--limit", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0] == {"rank": 0, "n": 3, "blocks_by_label": [[3], [2], [1]]}
    assert len(rows) == 2


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "count")
    assert code == 0
    assert out.strip() == "60"


def test_enumerate_count_stops_at_the_limit(capsys):
    for limit, want in (("2", "2"), ("0", "0"), (None, "12")):
        extra = () if limit is None else ("--limit", limit)
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--format",
                           "count", *extra)
        assert (code, out.strip()) == (0, want), limit


def test_enumerate_guard_refuses_big_levels(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "11", "--format", "count")
    assert code == 2
    assert "--force" in err


@pytest.mark.parametrize("argv, bound", [
    (("enumerate", "--n", "2000", "--format", "count"), 10),
    (("stats", "--n", str(10 ** 7)), 8)], ids=["n2000", "n1e7"])
def test_a_refusal_far_past_the_bound_counts_no_deep_level(capsys, monkeypatch,
                                                           argv, bound):
    # (n+1)!/2 at n = 2000 has 5,739 digits and at n = 10**7 is out of
    # reach: the refusal reads the count of level 20 at most
    real = tree.level_count

    def shallow(n, kind="full"):
        assert n <= 20, f"level_count({n}) evaluated"
        return real(n, kind)
    monkeypatch.setattr(tree, "level_count", shallow)
    code, out, err = run(capsys, "enumerate", "--n", "11", "--format", "count")
    assert (code, out) == (2, "")
    assert err == ("level 11 of the full tree holds 239500800 nodes, over "
                   "the default bound 10; pass --force\n")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"level {argv[2]} of the full tree holds more than "
                   f"25545471085854720000 nodes, over the default bound "
                   f"{bound}; pass --force\n")


def test_stats_csv_stdout(capsys):
    code, out, _ = run(capsys, "stats", "--n", "2", "--kind", "pair")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,n,Out,Int,Area"
    assert lines[-1] == "mean,2,5/3,5/3,8/3"


def test_stats_csv_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, _, _ = run(capsys, "stats", "--n", "3", "--out", str(target))
    assert code == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("rank,n,Y")
    assert len(lines) == 14  # 12 nodes + header + mean row


def test_stats_refuses_before_any_output(tmp_path, capsys):
    # a statistic off its tree, or a bad depth, leaves stdout empty and
    # an existing --out file untouched
    target = tmp_path / "table.csv"
    target.write_bytes(b"kept,1\r\n")
    for argv in (("stats", "--kind", "full", "--stat", "Area", "--n", "2"),
                 ("stats", "--n", "0")):
        for extra in ((), ("--out", str(target))):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (2, ""), argv + extra
            assert err.startswith("error: ") and err.count("\n") == 1, err
    assert target.read_bytes() == b"kept,1\r\n"


def test_laplace_both_methods_agree(capsys):
    code, out, _ = run(capsys, "laplace", "--stat", "Y1", "--n", "3")
    assert code == 0
    assert "EQUAL" in out
    assert "6*t^3 + 5*t + 1" in out
    assert "23/12" in out


def test_laplace_both_methods_say_whether_they_agree(capsys, monkeypatch):
    code, out, _ = run(capsys, "laplace", "--stat", "Y1", "--n", "3", "--json")
    assert (code, json.loads(out)["equal"]) == (0, True)
    monkeypatch.setattr(laplace, "recursion_transform",
                        lambda stat, n, kind: ExactPolynomial({1: 1}))
    code, out, _ = run(capsys, "laplace", "--stat", "Y1", "--n", "3")
    assert (code, out.splitlines()[-1]) == (1, "DIFFER")
    code, out, _ = run(capsys, "laplace", "--stat", "Y1", "--n", "3", "--json")
    assert (code, json.loads(out)["equal"]) == (1, False)


def test_laplace_brute_force_past_its_level_is_refused(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("the level was scanned")
    monkeypatch.setattr(laplace, "bruteforce_transform", no_scan)
    code, out, err = run(capsys, "laplace", "--stat", "Y", "--n", "11",
                         "--method", "brute")
    assert (code, out) == (2, "")
    assert err.startswith("level 11 of the full tree holds") and "--force" in err


def test_laplace_refuses_a_size_past_the_int_digit_limit(capsys):
    # int() and str() refuse past 4300 digits, in wording of their own
    code, out, err = run(capsys, "laplace", "--stat", "Y" + "9" * 5000,
                         "--n", "3", "--method", "brute")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown statistic"), err[:80]
    # the largest size parsed seeds a level of 4301 digits
    code, out, err = run(capsys, "laplace", "--stat", "Y" + "9" * 4300,
                         "--n", "3", "--method", "recursion")
    assert (code, out) == (2, "")
    assert err == (f"the recursion to level 1{'0' * 4300} is over the bound "
                   "1000; pass --force\n"), err[:80]


def test_laplace_json(capsys):
    code, out, _ = run(capsys, "laplace", "--stat", "Area", "--n", "2",
                       "--kind", "pair", "--method", "brute", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["brute"] == {"coeffs": {"2": "2", "4": "1"}}


def test_laplace_recursion_is_not_held_to_the_enumeration_bound(capsys):
    code, out, err = run(capsys, "laplace", "--stat", "Y", "--n", "50",
                         "--method", "recursion")
    assert code == 0, err
    code, forced, _ = run(capsys, "laplace", "--stat", "Y", "--n", "50",
                          "--method", "recursion", "--force")
    assert out == forced
    # the seeds of Y12 reach level 13, past the library bound of 10
    code, _, err = run(capsys, "laplace", "--stat", "Y12", "--n", "13",
                       "--method", "recursion")
    assert code == 2
    assert "13" in err


def test_a_recursion_past_its_bound_needs_force(capsys, monkeypatch):
    # the degree-n recursion's coefficients grow like n!, so a level far
    # past the bound is refused before the recursion starts
    calls = []

    def recorded(stat, n, kind=tree.FULL):
        calls.append(n)
        return ExactPolynomial({1: 1})
    monkeypatch.setattr(laplace, "recursion_transform", recorded)
    for method in ("recursion", "both"):
        code, out, err = run(capsys, "laplace", "--stat", "Y", "--n", "2000",
                             "--method", method)
        assert (code, out) == (2, ""), method
        assert "2000" in err and "--force" in err
    assert calls == []
    code, out, err = run(capsys, "laplace", "--stat", "Y", "--n", "2000",
                         "--method", "recursion", "--force")
    assert code == 0, err
    assert calls == [2000]


# each row of the bounds table: a command that reads it, ending with the
# option that takes the bounded size, the library call that does the
# bounded work, and what that call returns once forced
_BOUNDED = {
    tree.FULL: (("enumerate", "--format", "count", "--n"), tree,
                "stream_level", lambda n, kind: iter(())),
    tree.PAIR: (("enumerate", "--kind", "pair", "--format", "count", "--n"),
                tree, "stream_level", lambda n, kind: iter(())),
    f"{tree.FULL} per node": (("enumerate", "--n"), tree, "stream_level",
                              lambda n, kind: iter(())),
    f"{tree.PAIR} per node": (("stats", "--kind", "pair", "--n"), tree,
                              "stream_level", lambda n, kind: iter(())),
    "the recursion to level": (
        ("laplace", "--stat", "Y", "--method", "recursion", "--n"), laplace,
        "recursion_transform", lambda stat, n, kind: ExactPolynomial({1: 1})),
    "the triangle to row": (("stirling", "--n"), cm, "stirling_by_recursion",
                            lambda n: cm.StirlingTable(((1,),) * n)),
    "the closed form at level": (
        ("closed-form", "--formula", "EY", "--asymptotic", "--n"), cf,
        "asymptotic_report",
        lambda formula, n: cf.AsymptoticReport(formula, n, 1.0, 1.0, 0.0, 1.0)),
    "the moments to order": (("poisson", "--alpha", "1", "--upto"), cm,
                             "poisson_moments", lambda alpha, upto: [1]),
}


def test_every_bound_has_a_row_here():
    assert sorted(_BOUNDED) == sorted(cli._BOUNDS)


@pytest.mark.parametrize("cost", sorted(_BOUNDED))
def test_every_bound_refuses_before_its_work_unless_forced(capsys, monkeypatch,
                                                           cost):
    argv, module, name, forced = _BOUNDED[cost]
    over = str(cli._BOUNDS[cost] + 1)

    def refused(*args):
        raise AssertionError(f"{name} ran")
    monkeypatch.setattr(module, name, refused)
    code, out, err = run(capsys, *argv, over)
    assert (code, out) == (2, "")
    assert over in err and err.endswith(
        f"bound {cli._BOUNDS[cost]}; pass --force\n"), err
    calls = []

    def recorded(*args):
        calls.append(args)
        return forced(*args)
    monkeypatch.setattr(module, name, recorded)
    code, out, err = run(capsys, *argv, over, "--force")
    assert (code, err) == (0, "")
    assert len(calls) == 1 and int(over) in calls[0]


def test_laplace_rejects_mismatched_stat_kind(capsys):
    code, _, err = run(capsys, "laplace", "--stat", "Area", "--n", "3")
    assert code == 2
    assert "pair" in err


def test_a_scan_far_past_its_ids_is_refused_at_once():
    # the refusal once summed Catalan(1..n) first: at n = 8000 that took
    # about 20 s and then failed to print the sum, and n = 10**5 ran longer
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for n in ("8000", "100000"):
        done = subprocess.run(
            [sys.executable, "-m", "mton", "laplace", "--stat", "Y", "--n", n,
             "--method", "brute", "--force"],
            capture_output=True, text=True, env=env, timeout=10)
        assert (done.returncode, done.stdout) == (2, ""), n
        assert done.stderr == (
            f"error: levels 1..{n} hold more than 82499 distinct partitions, "
            f"more than the 65536 ids of a scan record\n")


def test_laplace_refuses_a_statistic_without_a_law_before_any_scan(
        capsys, monkeypatch):
    # Area has no insertion law on the pair tree: under --method both the
    # recursion's refusal comes before the brute force scans the level
    def no_scan(*args):
        raise AssertionError("the scan was started")
    monkeypatch.setattr(laplace, "_scan_cache", {})
    monkeypatch.setattr(laplace, "scan_chunk", no_scan)
    for extra in ((), ("--n", "9", "--force")):
        code, out, err = run(capsys, "laplace", "--stat", "Area", "--kind",
                             "pair", "--n", "8", *extra)
        assert (code, out) == (2, ""), extra
        assert err == "error: Area on the pair tree\n", extra


def test_laplace_reads_a_laws_existence_without_its_vector(capsys,
                                                          monkeypatch):
    # Y100000000's increment vector would hold 10**8 + 1 entries; level 3
    # lies among its seed levels, so --force scans it and builds no vector
    real = stats.transition_law

    def no_vector(stat, kind, upto=None):
        if upto != 0:
            raise AssertionError(f"built the increment vector of {stat.name}")
        return real(stat, kind, upto)
    monkeypatch.setattr(laplace, "transition_law", no_vector)
    monkeypatch.setattr(stats, "transition_law", no_vector)
    code, out, err = run(capsys, "laplace", "--stat", "Y100000000", "--n",
                         "3", "--method", "recursion", "--force")
    assert (code, err) == (0, "")
    assert out.split("\n") == ["recursion  12", "mean       0",
                               "variance   0", ""]
    for name, kind in (("Int", "full"), ("Area", "pair"), ("Y2", "pair")):
        code, out, err = run(capsys, "laplace", "--stat", name, "--kind",
                             kind, "--n", "3", "--method", "recursion")
        assert (code, out) == (2, ""), name
        assert err == f"error: {name} on the {kind} tree\n", name


def test_closed_form_exact(capsys):
    code, out, _ = run(capsys, "closed-form", "--formula", "EY", "--n", "3")
    assert code == 0
    assert out.strip() == "29/12"


def test_closed_form_asymptotic(capsys):
    code, out, _ = run(capsys, "closed-form", "--formula", "EY",
                       "--n", "10000", "--asymptotic")
    assert code == 0
    assert "difference" in out
    code, out, err = run(capsys, "closed-form", "--formula", "EOut",
                         "--n", "200", "--asymptotic")
    assert code == 2
    assert out == ""
    assert err.strip() == "no asymptotic regime recorded for EOut"


def test_closed_form_out_of_validity(capsys):
    code, _, err = run(capsys, "closed-form", "--formula", "EY", "--n", "1")
    assert code == 2
    assert "error" in err


def test_cumulants_round_trip(capsys):
    code, out, _ = run(capsys, "cumulants", "--from-moments", "1,2,5")
    assert code == 0
    assert out.strip() == "cumulants 1,1,3/2"
    code, out, _ = run(capsys, "cumulants", "--from-cumulants", "1,1,3/2")
    assert code == 0
    assert out.strip() == "moments 1,2,5"
    code, out, _ = run(capsys, "cumulants", "--from-cumulants",
                       ",".join("1" * 30))
    assert code == 0
    assert out.strip() == "moments " + ",".join(
        format_rational(v) for v in cm.poisson_moments(1, 30))


def test_stirling_rows(capsys):
    code, out, _ = run(capsys, "stirling", "--n", "4", "--check")
    assert code == 0
    assert out.strip().splitlines() == ["1", "1 2", "1 5 6", "1 9 26 24"]


def test_stirling_check_caps_the_exponential_tables(capsys, monkeypatch):
    asked = {}

    def recording(name):
        def table(n_max):
            asked[name] = n_max
            return cm.stirling_by_recursion(n_max)
        return table

    monkeypatch.setattr(cm, "stirling_by_closed_form", recording("closed"))
    monkeypatch.setattr(cm, "stirling_by_tree_count", recording("tree"))
    code, out, _ = run(capsys, "stirling", "--n", "30", "--check")
    assert code == 0
    assert asked == {"closed": 20, "tree": 9}
    assert len(out.strip().splitlines()) == 30


@pytest.mark.parametrize("name, route", [
    ("stirling_by_closed_form", "closed form"),
    ("stirling_by_tree_count", "tree count")])
def test_stirling_check_names_the_first_row_that_differs(capsys, monkeypatch,
                                                         name, route):
    real = getattr(cm, name)

    def off_at_row_4(n_max):
        rows = list(real(n_max).rows)
        rows[3] = (rows[3][0] + 1,) + rows[3][1:]
        return cm.StirlingTable(tuple(rows))
    monkeypatch.setattr(cm, name, off_at_row_4)
    code, out, err = run(capsys, "stirling", "--n", "6", "--check")
    assert (code, out) == (1, "")
    assert err == f"recursion and {route} differ at row 4\n"


def test_stirling_writes_entries_past_the_int_digit_limit(capsys,
                                                          monkeypatch):
    # str() refuses past 4300 digits; row n ends in n!, and 1559! has 4303
    monkeypatch.setattr(cm, "stirling_by_recursion",
                        lambda n_max: cm.StirlingTable(((1, 10 ** 5000),)))
    code, out, err = run(capsys, "stirling", "--n", "1")
    assert (code, err) == (0, "")
    assert out == "1 1" + "0" * 5000 + "\n"


def test_a_triangle_past_its_bound_needs_force(capsys, monkeypatch):
    # row n holds integers up to (n+1)!/2, so rows far past the bound
    # take the machine's memory; the refusal comes before any row
    def refused(n_max):
        raise AssertionError(f"built {n_max} rows")
    monkeypatch.setattr(cm, "stirling_by_recursion", refused)
    for extra in ((), ("--check",)):
        code, out, err = run(capsys, "stirling", "--n", "501", *extra)
        assert (code, out) == (2, ""), extra
        assert "501" in err and "500" in err and "--force" in err
    built = []

    def recorded(n_max):
        built.append(n_max)
        return cm.StirlingTable(((1,),) * n_max)
    monkeypatch.setattr(cm, "stirling_by_recursion", recorded)
    for argv in (("--n", "500"), ("--n", "501", "--force")):
        code, out, err = run(capsys, "stirling", *argv)
        assert (code, err) == (0, ""), argv
        assert out.count("\n") == built[-1]
    assert built == [500, 501]


def test_poisson(capsys):
    code, out, _ = run(capsys, "poisson", "--alpha", "1", "--upto", "4")
    assert code == 0
    assert out.strip() == "1,2,9/2,65/6"


def test_poisson_reads_a_negative_rate_after_a_space(capsys):
    code, out, err = run(capsys, "poisson", "--alpha", "-1/2", "--upto", "3")
    assert (code, err) == (0, "")
    assert out == run(capsys, "poisson", "--alpha=-1/2", "--upto", "3")[1]
    assert out.strip() == ",".join(
        format_rational(v) for v in cm.poisson_moments(Fraction(-1, 2), 3))
    # an option in the value's place is still a missing value
    with pytest.raises(SystemExit) as exc:
        main(["poisson", "--alpha", "--upto", "3"])
    assert exc.value.code == 2


def test_cumulants_read_negative_moments_after_a_space(capsys):
    code, out, err = run(capsys, "cumulants", "--from-moments", "-1,2,5")
    assert (code, err) == (0, "")
    assert out.strip() == "cumulants " + ",".join(
        format_rational(v) for v in cm.cumulants_from_moments([-1, 2, 5]))


def test_poisson_reads_a_negative_rate_after_an_abbreviation(capsys):
    code, out, err = run(capsys, "poisson", "--alph", "-1/2", "--upto", "3")
    assert (code, err) == (0, "")
    assert out == run(capsys, "poisson", "--alpha", "-1/2", "--upto", "3")[1]


def test_cumulants_read_negative_moments_after_an_abbreviation(capsys):
    code, out, err = run(capsys, "cumulants", "--from-m", "-1,2,5")
    assert (code, err) == (0, "")
    assert out == run(capsys, "cumulants", "--from-moments", "-1,2,5")[1]
    # a prefix of both list options is still ambiguous
    with pytest.raises(SystemExit) as exc:
        main(["cumulants", "--from-", "-1,2,5"])
    assert exc.value.code == 2


def test_cumulants_read_negative_cumulants_after_a_space(capsys):
    code, out, err = run(capsys, "cumulants", "--from-cumulants", "-1/2,1")
    assert (code, err) == (0, "")
    assert out.strip() == "moments " + ",".join(
        format_rational(v)
        for v in cm.moments_from_cumulants([Fraction(-1, 2), 1]))


def test_verify_suite_table(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm111")
    assert code == 0
    assert "area-mean" in out
    assert "0 failing" in out


def test_verify_prints_the_witness_of_a_failing_check(capsys, monkeypatch):
    # the corrupted twin of the thm111 suite fails at n = 1
    check, _ = harness.corrupted_checks()["thm111"]
    monkeypatch.setattr(harness, "run_suite",
                        lambda name, deep=False: [check.run()])
    code, out, _ = run(capsys, "verify", "--suite", "thm111")
    assert code == 1
    witness = json.dumps(check.run().witness, sort_keys=True)
    assert out.splitlines()[-1] == f"witness corrupt-area: {witness}"


def test_verify_suite_jsonl(tmp_path, capsys):
    target = tmp_path / "reports.jsonl"
    code, out, _ = run(capsys, "verify", "--suite", "selftest", "--json",
                       "--out", str(target))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["status"] == "pass" for r in rows)
    # the benchmark parses these lines: one row per check, nothing else
    assert [r["id"] for r in rows] == list(SUITES["selftest"])
    assert all(set(r) == {"id", "status", "witness", "elapsed"} for r in rows)
    saved = [json.loads(line) for line in target.read_text().splitlines()]
    assert saved == rows


def test_unopenable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("checks ran before --out was opened")
    monkeypatch.setattr(harness, "run_suite", no_run)
    missing = tmp_path / "missing"
    for argv in (("verify", "--suite", "selftest", "--out",
                  f"{missing}/x.jsonl"),
                 ("stats", "--n", "2", "--out", f"{missing}/x.csv")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "missing" in err, err
    # stats still validates its depth before it opens --out
    code, out, err = run(capsys, "stats", "--n", "0",
                         "--out", f"{missing}/x.csv")
    assert (code, out) == (2, "")
    assert err.startswith("error: depth must be >= 1"), err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["laplace", "--n", "3"])
    assert exc.value.code == 2


def test_a_vast_decimal_exponent_is_an_error_at_once(capsys):
    code, out, err = run(capsys, "poisson", "--alpha", "1e-3000000",
                         "--upto", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: decimal exponent") and "4300" in err, err


def test_depth_below_one_is_a_usage_error(capsys):
    for argv in (("enumerate", "--n", "0", "--format", "count"),
                 ("enumerate", "--n", "0", "--kind", "pair", "--format", "count"),
                 ("stats", "--n", "0"),
                 *(("laplace", "--stat", stat, "--n", "0", "--kind", kind,
                    "--method", "recursion")
                   for stat, kind in (("Y", "full"), ("Out", "full"),
                                      ("Out", "pair"), ("Int", "pair")))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: depth must be >= 1, got 0\n", argv


def test_bad_rational_or_negative_upto_is_a_usage_error(capsys):
    for argv in (("cumulants", "--from-moments", "1,1/0"),
                 ("poisson", "--alpha", "1/0", "--upto", "3"),
                 ("cumulants", "--from-moments", "1,2", "--upto", "-1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_an_empty_list_to_convert_is_a_usage_error(capsys):
    for flag in ("--from-moments", "--from-cumulants"):
        for raw in ("", " , "):
            code, out, err = run(capsys, "cumulants", flag, raw)
            assert (code, out) == (2, ""), (flag, raw)
            assert err == f"error: no value to convert in {raw!r}\n"


def test_an_empty_field_in_a_list_to_convert_is_a_usage_error(capsys):
    # each value's order is its position: an empty field is refused, not
    # skipped, wherever it stands
    for flag, raw, position in (("--from-moments", "1,,2", 2),
                                ("--from-cumulants", ",1", 1),
                                ("--from-moments", "1,2, ", 3)):
        code, out, err = run(capsys, "cumulants", flag, raw)
        assert (code, out) == (2, ""), raw
        assert err == f"error: field {position} of {raw!r} is empty\n"


def test_an_order_below_one_to_convert_is_a_usage_error(capsys):
    # no order prints a label with no values; the library's upto=0 is ()
    for upto in ("0", "-1"):
        code, out, err = run(capsys, "cumulants", "--from-moments", "1,2",
                             "--upto", upto)
        assert (code, out) == (2, ""), upto
        assert err == f"error: upto must be >= 1, got {upto}\n"
    assert cm.cumulants_from_moments([1, 2], upto=0) == ()
    assert cm.moments_from_cumulants([1, 2], upto=0) == ()


def test_a_limit_within_the_per_node_level_is_priced_as_a_walk(capsys):
    # --limit 1 prints one node, so level 9 needs no --force; the walk's
    # own bound still holds, and a limit past the node count of the
    # per-node bound's level (181,440 full nodes) is still refused by it
    code, out, err = run(capsys, "enumerate", "--n", "9", "--limit", "1")
    assert (code, err) == (0, "")
    assert [json.loads(line)["rank"] for line in out.splitlines()] == [0]
    assert json.loads(out) == {"rank": 0, "n": 9, **tree.unrank(0, 9).to_json()}
    code, out, err = run(capsys, "enumerate", "--n", "11", "--limit", "1")
    assert (code, out) == (2, "")
    assert err.endswith("over the default bound 10; pass --force\n"), err
    for extra in (("--limit", "181441"), ()):
        code, out, err = run(capsys, "enumerate", "--n", "9", *extra)
        assert (code, out) == (2, ""), extra
        assert err == ("level 9 of the full tree holds 1814400 nodes, over "
                       "the default bound 8; pass --force\n"), extra


def test_negative_limit_is_a_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "3", "--limit", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--limit", "0")
    assert (code, out) == (0, "")


def test_python_dash_m_runs_the_cli_without_an_install():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "mton", "closed-form", "--formula", "EY",
         "--n", "2"], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "5/3\n", "")


def test_a_huge_block_size_recursion_is_refused_before_its_vector():
    # Y100000000's increment vector would hold 10**8 + 1 entries; under
    # a 512 MB address-space limit, set in the child alone, building it
    # ends in a MemoryError, so the refusal must come first
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    limited = ("import resource, sys; "
               "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20)); "
               "from mton.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run(
        [sys.executable, "-c", limited, "laplace", "--stat", "Y100000000",
         "--n", "3", "--method", "recursion"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "the recursion to level 100000001 is over the bound 1000; "
               "pass --force\n")


@pytest.mark.parametrize("command", (["enumerate", "--n", "8"],
                                     ["stats", "--n", "6"],
                                     ["stirling", "--n", "200"]))
def test_a_closed_pipe_ends_the_command_quietly(command):
    # the reader takes one line and stops: not a failure of the command
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.Popen([sys.executable, "-m", "mton", *command],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, "")


def test_import_loads_no_introspection_or_lazy_modules():
    # a fresh interpreter, set up as the benchmark's jobs are: no site
    # hooks and no PYTHON* variable but the source path
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize",
             "traceback", "csv")
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import mton, mton.cli, sys; "
         f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == []

