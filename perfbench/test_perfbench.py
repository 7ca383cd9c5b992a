"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_gate_counts_a_wrong_expected_value():
    gate = jobs.Gate()
    assert gate.check("right", 3, 3)
    assert not gate.check(("wrong", 1), 3, 4)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert gate.samples == ["wrong 1: got 3, want 4"]


def test_gate_fails_a_workload_given_a_wrong_closed_form(monkeypatch):
    from mton import closed_forms

    real = closed_forms.variance_block_count_alt
    monkeypatch.setattr(closed_forms, "variance_block_count_alt",
                        lambda n: real(n) + (n == 50))
    record = jobs.run_job("exact-algebra", 7, "smoke")
    assert record["failed"] == 1
    assert "variance forms at 50" in record["failures"][0]


def test_run_reports_incorrect_when_the_library_is_wrong(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "mton" / "closed_forms.py"
    text = target.read_text()
    wrong = text.replace("harmonic2(n + 1) - Fraction(1, 4)",
                         "harmonic2(n + 1) - Fraction(1, 5)")
    assert wrong != text
    target.write_text(wrong)
    proc = _bench(tmp_path, "exact-algebra", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] > 0


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_wraps_and_restores():
    from mton import laplace, stats, tree

    original = tree.iter_level
    with Tracer() as tracer:
        assert tree.iter_level is not original
        laplace.clear_scan_cache()
        nodes = sum(1 for _ in tree.iter_level(4))
        laplace.bruteforce_transform(stats.BLOCKS, 4)
        laplace.bruteforce_transform(stats.BLOCKS, 3)
    assert tree.iter_level is original
    snap = tracer.snapshot()
    spans = snap["spans"]
    assert spans["tree.iter_level"]["work"] == nodes == tree.level_count(4)
    assert spans["laplace.level_histograms"]["calls"] == 2
    assert snap["edges"]["laplace.level_histograms>laplace.scan_chunk"] == 1
    assert spans["laplace.scan_chunk[full]"]["work"] == sum(
        tree.level_count(n) for n in range(1, 5))
    for agg in spans.values():
        assert 0 <= agg["self_s"] <= agg["busy_s"] + 1e-9


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_setup_only_stops_where_the_timed_work_starts(workload):
    record = jobs.run_job(workload, 7, "smoke", setup_only=True)
    assert record["attempted"] == 0 and record["failed"] == 0
    assert record["work_s"] < 0.1
