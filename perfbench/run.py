"""Closed-loop batch benchmark for mton.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload enum-scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client, one job at a time: each job is a fresh interpreter running
``perfbench/jobs.py`` against ``src/`` of the checkout, started only
after the previous one has exited, until ``--seconds`` have passed (the
job running at the deadline finishes).  Every job checks its outputs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics plus the
tracing overhead (traced minus untraced job wall time).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The
full record, with run metadata and the merged trace, is also written to
``perfbench/out/``.

Exit code 2, with no result line, when the checkout holds no ``src/mton``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, merge_snapshots  # noqa: E402

# workload names and metric names/units are declared once, in BENCHMARK.json
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

SETUP_PROBES = 40
RUN_LIMIT_S = 170.0   # every run must end well inside 180 s


class Unrunnable(Exception):
    """The checkout cannot run the benchmark (no source tree, bad import)."""


# ---------------------------------------------------------------------------
# child processes

def _child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"   # same set/dict order in every job
    return env


def _spawn(root: Path, args: list[str], timeout: float) -> dict:
    """Run jobs.py once; return its record plus wall and spawn times."""
    # -S: the site-packages hooks (.pth files) of the Python installation
    # are not mton's (it needs only the standard library), and they
    # dominated and scattered set-up time
    cmd = [sys.executable, "-S", str(HERE / "jobs.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=root,
                            env=_child_env(root))
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": f"timed out after {timeout:.0f} s",
                "wall_s": time.monotonic() - spawned}
    wall = time.monotonic() - spawned
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "wall_s": wall,
                "error": f"exit code {proc.returncode}"}
    record = json.loads(lines[-1])
    record.update(ok=True, wall_s=wall,
                  setup_s=record["setup_done"] - spawned)
    src = (root / "src").resolve()
    if Path(record["mton_file"]).resolve().parent.parent != src:
        raise Unrunnable(f"mton imported from {record['mton_file']}, "
                         f"not from {src}")
    return record


def _preflight(root: Path) -> None:
    if not (root / "src" / "mton" / "__init__.py").is_file():
        raise Unrunnable(f"no src/mton under {root}; run from a checkout root")


# ---------------------------------------------------------------------------
# statistics

def _tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    ordered = sorted(values)
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        idx = int(q * len(ordered))
        if len(ordered) - idx - 1 >= 10:
            best = (label, ordered[idx])
    return best


def _per(agg: dict | None, field: str, scale: float = 1.0) -> float:
    """From one span aggregate: "rate" is work per busy second,
    "per_work" busy time per work item, "call" busy time per call."""
    if not agg:
        return 0.0
    if field == "rate":
        return agg["work"] / agg["busy_s"] if agg["busy_s"] else 0.0
    if field == "per_work":
        return agg["busy_s"] / agg["work"] * scale if agg["work"] else 0.0
    return agg["busy_s"] / agg["calls"] * scale if agg["calls"] else 0.0


def per_layer_metrics(trace: dict, untraced: list[dict],
                      traced: list[dict]) -> dict[str, float]:
    spans = trace["spans"]

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    m: dict[str, float] = {}
    m["tree.stream_level.nodes_per_s"] = _per(spans.get("tree.stream_level"), "rate")
    m["tree.iter_level.nodes_per_s"] = _per(spans.get("tree.iter_level"), "rate")
    m["tree.children.ns_per_child"] = _per(spans.get("tree.children"), "per_work", 1e9)
    m["tree.pair_children.ns_per_child"] = _per(spans.get("tree.pair_children"),
                                                "per_work", 1e9)
    m["tree.unrank.us"] = _per(spans.get("tree.unrank"), "call", 1e6)
    m["tree.rank_of.us"] = _per(spans.get("tree.rank_of"), "call", 1e6)
    m["laplace.scan_chunk.nodes_per_s.full"] = _per(spans.get("laplace.scan_chunk[full]"), "rate")
    m["laplace.scan_chunk.nodes_per_s.pair"] = _per(spans.get("laplace.scan_chunk[pair]"), "rate")
    m["laplace.scan_chunk.busy_s"] = busy("laplace.scan_chunk")
    m["laplace.scan_chunk.nodes_walked"] = spans.get("laplace.scan_chunk", {}).get("work", 0)
    lh_calls = calls("laplace.level_histograms")
    misses = trace["edges"].get("laplace.level_histograms>laplace.scan_chunk", 0)
    m["laplace.level_histograms.calls"] = lh_calls
    m["laplace.scan_cache.hit_ratio"] = (lh_calls - misses) / lh_calls if lh_calls else 0.0
    for n in (50, 200):
        m[f"laplace.recursion_transform.s.n{n}"] = _per(
            spans.get(f"laplace.recursion_transform[n{n}]"), "call")
    m["stats.evaluate.ns"] = _per(spans.get("stats.evaluate"), "call", 1e9)
    m["stats.evaluate.calls"] = calls("stats.evaluate")
    m["stats.core_child_digits.ns"] = _per(spans.get("stats.core_child_digits"), "call", 1e9)
    m["polynomials.mul.calls"] = calls("polynomials.mul")
    m["polynomials.mul.self_s"] = spans.get("polynomials.mul", {}).get("self_s", 0.0)
    m["polynomials.derivative.self_s"] = spans.get("polynomials.derivative", {}).get("self_s", 0.0)
    m["closed_forms.variance_sweep.busy_s"] = busy("bench.variance_sweep")
    m["closed_forms.harmonic.busy_s"] = busy("closed_forms.harmonic") + busy("closed_forms.harmonic2")
    for name, order in (("moments_from_cumulants", 8), ("moments_from_cumulants", 10),
                        ("cumulants_from_moments", 10)):
        m[f"cumulants.{name}.s.order{order}"] = _per(
            spans.get(f"cumulants.{name}[order{order}]"), "call")
    m["cumulants.stirling_by_tree_count.busy_s"] = busy("cumulants.stirling_by_tree_count")
    m["reference.noncrossing_partitions.busy_s"] = busy("reference.noncrossing_partitions")
    lru = trace["lru"].get("reference.noncrossing_partitions", {"hits": 0, "misses": 0})
    m["reference.noncrossing_partitions.hits"] = lru["hits"]
    m["reference.noncrossing_partitions.misses"] = lru["misses"]
    m["partitions.validate_noncrossing.calls"] = calls("partitions.validate_noncrossing")
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    for name, agg in spans.items():
        layer = name.split(".", 1)[0]
        # keyed sub-aggregates ("name[key]") repeat their parent's self time
        if layer in self_by_layer and "[" not in name:
            self_by_layer[layer] += agg["self_s"]
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = trace["layers"].get(layer, 0.0)
        m[f"{layer}.self_s"] = self_by_layer[layer]

    # check times as CheckReport gives them, from the untraced jobs; scan
    # time by check from the traced ones.  A check or suite the workload
    # does not run reports 0.
    check_times: dict[str, list[float]] = {}
    suite_of: dict[str, str] = {}
    for job in untraced:
        for cid, info in job["detail"].get("checks", {}).items():
            check_times.setdefault(cid, []).append(info["elapsed_s"])
            suite_of[cid] = info["suite"]
    n_traced = max(len(traced), 1)
    for name in PER_LAYER:
        parts = name.split(".")
        if parts[:2] == ["harness", "check"]:
            times = check_times.get(parts[2])
            m[name] = statistics.median(times) if times else 0.0
        elif parts[:2] == ["harness", "suite"]:
            m[name] = 0.0
    for cid, times in check_times.items():
        suite = suite_of[cid]
        m[f"harness.suite.{suite}.elapsed_s"] += statistics.median(times)
        scan = trace["by_context"].get(cid, {}).get("laplace.scan_chunk", 0.0)
        m[f"harness.suite.{suite}.scan_s"] += scan / n_traced

    plain = statistics.median(j["wall_s"] for j in untraced)
    overhead = statistics.median(j["wall_s"] for j in traced) - plain
    m["trace.overhead_s"] = overhead
    m["trace.overhead_share"] = overhead / plain
    return m


# ---------------------------------------------------------------------------
# one run

def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _probe_setup(root: Path, workload: str, seed: int) -> list[float]:
    """Set-up times of SETUP_PROBES // 2 set-up-only jobs, back to back.

    A run probes before and after its jobs, so that its set-up median
    spans the run rather than its first seconds."""
    setups = []
    for _ in range(SETUP_PROBES // 2):
        probe = _spawn(root, [workload, "--seed", str(seed), "--setup-only"],
                       RUN_LIMIT_S)
        if not probe["ok"]:
            raise Unrunnable(f"set-up probe failed: {probe['error']}")
        setups.append(probe["setup_s"])
    return setups


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, size: str = "full") -> dict:
    """Closed loop of jobs for ``seconds``; returns the full run record."""
    _preflight(root)
    started = time.monotonic()
    setups = _probe_setup(root, workload, seed)

    jobs: list[dict] = []
    loop_start = time.monotonic()
    while True:
        traced = trace and len(jobs) % 2 == 1
        args = [workload, "--seed", str(seed), "--size", size]
        if traced:
            args.append("--trace")
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        job = _spawn(root, args, remaining)
        job["traced"] = traced
        jobs.append(job)
        done = time.monotonic() - loop_start >= seconds
        kinds = {j["traced"] for j in jobs}
        if not job["ok"] or (done and (not trace or len(kinds) == 2)):
            break
    setups += _probe_setup(root, workload, seed)

    ok_jobs = [j for j in jobs if j["ok"]]
    untraced = [j for j in ok_jobs if not j["traced"]]
    traced_jobs = [j for j in ok_jobs if j["traced"]]
    attempted = sum(j["attempted"] for j in ok_jobs) + len(jobs) - len(ok_jobs)
    failed = sum(j["failed"] for j in ok_jobs) + len(jobs) - len(ok_jobs)
    walls = [j["wall_s"] for j in untraced]
    setups += [j["setup_s"] for j in untraced]
    complete = bool(untraced) and (not trace or bool(traced_jobs))

    metrics: dict[str, float] = {}
    merged = None
    if complete and trace:
        merged = merge_snapshots([j["trace"] for j in traced_jobs])
        metrics = per_layer_metrics(merged, untraced, traced_jobs)
    elif complete:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(j["maxrss_kb"] for j in untraced) / 1024,
        }
    units = PER_LAYER if trace else END_TO_END
    if metrics and set(metrics) != set(units):
        raise AssertionError("metrics differ from BENCHMARK.json: "
                             f"{sorted(set(metrics) ^ set(units))}")
    first = ok_jobs[0] if ok_jobs else {}
    return {
        "workload": workload,
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "summary": {
            "jobs": len(jobs), "untraced_jobs": len(untraced),
            "job_walls_s": [(j["traced"], j["wall_s"]) for j in jobs],
            "traced_jobs": len(traced_jobs),
            "wall_s_median": statistics.median(walls) if walls else None,
            "wall_s_tail": _tail(walls),
            "work_s_median": (statistics.median(j["work_s"] for j in untraced)
                              if untraced else None),
            "setup_samples": len(setups),
            "ops_failed_share": failed / attempted if attempted else 1.0,
            "failures": [f for j in ok_jobs for f in j["failures"]][:10]
                        + [j["error"] for j in jobs if not j["ok"]],
        },
        "meta": {
            "git_commit": _git_commit(root),
            "source_digest": _source_digest(root),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "mton_version": first.get("version"),
            "seed": seed, "run_seconds": seconds, "size": size,
            "trace": trace,
            "cli_flags": first.get("detail", {}).get("flags", []),
            "workers": first.get("detail", {}).get("workers", 1),
            "machine": platform.machine(),
        },
        "trace": merged,
    }


def _print_summary(rec: dict) -> None:
    s = rec["summary"]
    print(f"# {rec['workload']}: {s['jobs']} jobs ({s['untraced_jobs']} untraced, "
          f"{s['traced_jobs']} traced); attempted {rec['attempted']}, failed "
          f"{rec['failed']}, ops_failed_share {s['ops_failed_share']:.6g} ratio")
    if s["wall_s_median"] is not None:
        tail = s["wall_s_tail"]
        tail_text = (f"{tail[0]} {tail[1]:.4f} s" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"#   wall_s median {s['wall_s_median']:.4f} s over "
              f"{s['untraced_jobs']} samples; {tail_text}")
    for name, entry in rec["metrics"].items():
        print(f"#   {name} = {entry['value']:.6g} {entry['unit']}")
    for text in s["failures"]:
        print(f"#   FAILED {text}")
    print("# meta " + json.dumps(rec["meta"], sort_keys=True))


def _write_record(rec: dict) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    m = rec["meta"]
    path = out_dir / f"{rec['workload']}-seed{m['seed']}-trace{int(m['trace'])}.json"
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mton closed-loop benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: smallest inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    root = Path.cwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(root, name, args.seed, args.seconds,
                                bool(args.trace), args.size) for name in names]
    except Unrunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for rec in records:
        _print_summary(rec)
        print(f"# record written to {_write_record(rec)}")
    if args.workload == "all":
        return 0 if all(r["correct"] for r in records) else 1
    rec = records[0]
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
