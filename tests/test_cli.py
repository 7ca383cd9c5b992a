"""Command-line surface, exercised through main() with captured output."""

import json

import pytest

from mton import cumulants as cm
from mton import harness, laplace
from mton.harness import SUITES
from mton.cli import main
from mton.polynomials import format_rational


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


def test_enumerate_guard_refuses_big_levels(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "11", "--format", "count")
    assert code == 2
    assert "--force" in err


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


def test_laplace_rejects_mismatched_stat_kind(capsys):
    code, _, err = run(capsys, "laplace", "--stat", "Area", "--n", "3")
    assert code == 2
    assert "pair" in err


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


def test_poisson(capsys):
    code, out, _ = run(capsys, "poisson", "--alpha", "1", "--upto", "4")
    assert code == 0
    assert out.strip() == "1,2,9/2,65/6"


def test_verify_suite_table(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "thm111")
    assert code == 0
    assert "area-mean" in out
    assert "0 failing" in out


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


def test_depth_below_one_is_a_usage_error(capsys):
    for argv in (("enumerate", "--n", "0", "--format", "count"),
                 ("enumerate", "--n", "0", "--kind", "pair", "--format", "count"),
                 ("stats", "--n", "0")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: depth must be >= 1"), argv


def test_bad_rational_or_negative_upto_is_a_usage_error(capsys):
    for argv in (("cumulants", "--from-moments", "1,1/0"),
                 ("poisson", "--alpha", "1/0", "--upto", "3"),
                 ("cumulants", "--from-moments", "1,2", "--upto", "-1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_env_override_of_size_guard(capsys, monkeypatch):
    monkeypatch.setenv("MTON_MAX_N", "3")
    code, _, err = run(capsys, "enumerate", "--n", "4", "--format", "count")
    assert code == 2
    assert "MTON_MAX_N" in err
    monkeypatch.setenv("MTON_MAX_N", "4")
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--format", "count")
    assert code == 0
    assert out.strip() == "60"
    # once the CLI guard admits a level, the library bound does not refuse it
    monkeypatch.setattr(laplace, "DEFAULT_MAX_FULL", 4)
    monkeypatch.setenv("MTON_MAX_N", "5")
    code, _, err = run(capsys, "laplace", "--stat", "Y", "--n", "5",
                       "--method", "brute")
    assert code == 0, err
