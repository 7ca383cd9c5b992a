"""One benchmark job, run in a fresh interpreter by ``run.py``.

Usage (normally only ``run.py`` calls this)::

    PYTHONPATH=src python3 perfbench/jobs.py <workload> --seed N
        [--size full|smoke] [--trace] [--setup-only]

The job imports ``mton`` (the set-up phase), runs the workload's work
once (the timed phase), checks every output through a :class:`Gate`,
and prints one JSON object on its last stdout line (``--setup-only``
stops where the timed phase would start).  The record holds
the ``time.monotonic()`` at which set-up ended; CLOCK_MONOTONIC is
shared by all processes, so the parent subtracts its own reading taken
just before the spawn and the set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import mton
from mton import cli, harness, laplace, stats, tree
from mton import closed_forms as cf
from mton import cumulants as cm
from mton.stats import Statistic
from mton.tree import FULL, PAIR, OrderedNcPartition

# Workload sizes.  "full" is what the benchmark measures; "smoke" is the
# smallest setting, used by the benchmark's own tests.
SIZES = {
    "full": {
        # verify-suites: the suites that fit one run (see README.md)
        "suites": ("lemmas", "thm110", "thm111", "selftest"),
        # enum-scan
        "brute_full": 8, "brute_pair": 7,
        "stream_full": 8, "stream_pair": 7,
        "sweep_full": 8, "sweep_pair": 6,
        "rank_full": 16, "rank_pair": 12, "rank_trips": 1000,
        "triangle": 8,
        # exact-algebra
        "variance_stop": 10001, "means_stop": 1001,
        "recursion_n": (50, 200), "orders": (8, 10),
        "poisson_order": 8, "stirling_n": 20,
    },
    "smoke": {
        "suites": ("selftest",),
        "brute_full": 5, "brute_pair": 4,
        "stream_full": 5, "stream_pair": 4,
        "sweep_full": 5, "sweep_pair": 4,
        "rank_full": 8, "rank_pair": 6, "rank_trips": 20,
        "triangle": 5,
        "variance_stop": 200, "means_stop": 60,
        "recursion_n": (10, 20), "orders": (5, 6),
        "poisson_order": 5, "stirling_n": 8,
    },
}


FAILURE_SAMPLES = 5   # failures a job reports in full


class Gate:
    """Counts compared outputs; a mismatch or a raised error is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples: list[str] = []

    def check(self, what, got, want) -> bool:
        """``what`` names the comparison: a string, or a tuple of parts
        joined only on failure so that hot loops do not format it."""
        self.attempted += 1
        if got == want:
            return True
        self._fail(what, f"got {got!r}, want {want!r}")
        return False

    def error(self, what, exc: BaseException) -> None:
        self.attempted += 1
        self._fail(what, f"{type(exc).__name__}: {exc}")

    def _fail(self, what, text: str) -> None:
        self.failed += 1
        if len(self.samples) < FAILURE_SAMPLES:
            if isinstance(what, tuple):
                what = " ".join(map(str, what))
            self.samples.append(f"{what}: {text}"[:300])


class _NoTracer:
    """Stands in for the tracer in untraced jobs."""

    @contextlib.contextmanager
    def span(self, name, layer):
        yield


class SetupDone(Exception):
    """Ends a set-up-only job where its timed work would start."""


class Job:
    """What a workload body works with: its sizes, seed, gate and tracer.

    The body calls :meth:`mark_setup_done` where its timed work starts;
    everything before it (interpreter start, imports, argument parsing)
    is set-up.  A set-up-only job stops there.
    """

    def __init__(self, size: dict, seed: int, tracer=None,
                 setup_only: bool = False):
        self.size = size
        self.seed = seed
        self.gate = Gate()
        self.tracer = tracer or _NoTracer()
        self.setup_only = setup_only
        self.setup_done: float | None = None

    def mark_setup_done(self) -> None:
        self.setup_done = time.monotonic()
        if self.setup_only:
            raise SetupDone


# ---------------------------------------------------------------------------
# verify-suites

def verify_suites(job: Job) -> dict:
    """The CLI's ``verify --suite <s> --json`` for each suite, in harness
    order, in this one process so the scan cache is shared as under
    ``--suite all``.  The harness fixes its inputs; the seed is unused."""
    gate, size = job.gate, job.size
    argvs = [["verify", "--suite", s, "--json"] for s in size["suites"]]
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)
    job.mark_setup_done()
    checks = {}
    for argv, suite in zip(argvs, size["suites"]):
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        except Exception as exc:  # a crashing suite fails all its checks
            for cid in harness.SUITES[suite]:
                gate.error(f"{suite}/{cid}", exc)
            continue
        reports = [json.loads(line) for line in out.getvalue().splitlines()
                   if line.startswith("{")]
        gate.check(f"{suite} exit code", code, 0)
        seen = [r["id"] for r in reports]
        gate.check(f"{suite} check ids", seen, list(harness.SUITES[suite]))
        for r in reports:
            gate.check(f"{suite}/{r['id']}", r["status"], "pass")
            checks[r["id"]] = {"suite": suite, "elapsed_s": r["elapsed"]}
    return {"flags": argvs, "workers": 1, "checks": checks}


# ---------------------------------------------------------------------------
# enum-scan

def enum_scan(job: Job) -> dict:
    """Tree walk and brute-force scan, checked against the recursions,
    the counting formulas and the transition laws."""
    gate, size, tracer = job.gate, job.size, job.tracer
    job.mark_setup_done()
    rng = random.Random(job.seed)
    full_stats = [Statistic.parse(s) for s in
                  ("Y", "Y1", "Y2", "Y3", "Y4", "Yge3", "Out", "Int")]
    pair_stats = [Statistic.parse(s) for s in ("Out", "Int", "Area")]
    no_recursion = {(FULL, "intervals"), (PAIR, "area")}

    # brute transforms level by level, as the harness kernels ask for them
    with tracer.span("bench.enum.brute", "bench"):
        for kind, top, chosen in ((FULL, size["brute_full"], full_stats),
                                  (PAIR, size["brute_pair"], pair_stats)):
            for stat in chosen:
                for n in range(1, top + 1):
                    what = f"{kind} {stat.name} level {n}"
                    try:
                        brute = laplace.bruteforce_transform(stat, n, kind)
                        gate.check(f"{what} total", brute.evaluate(1),
                                   tree.level_count(n, kind))
                        if (kind, stat.family) not in no_recursion:
                            gate.check(f"{what} recursion", brute,
                                       laplace.recursion_transform(stat, n, kind))
                    except Exception as exc:
                        gate.error(what, exc)

    with tracer.span("bench.enum.triangle", "bench"):
        top = size["triangle"]
        walked = cm.stirling_by_tree_count(top)
        recursed = cm.stirling_by_recursion(top)
        for m in range(1, top + 1):
            gate.check(f"triangle row {m}", walked.row(m), recursed.row(m))

    with tracer.span("bench.enum.stream", "bench"):
        for kind, n in ((FULL, size["stream_full"]), (PAIR, size["stream_pair"])):
            streamed = sum(1 for _ in tree.stream_level(n, kind))
            gate.check(f"stream {kind} {n}", streamed, tree.level_count(n, kind))

    with tracer.span("bench.enum.sweep", "bench"):
        _sweep_full(gate, size["sweep_full"])
        _sweep_pair(gate, size["sweep_pair"])

    with tracer.span("bench.enum.rank", "bench"):
        for kind, n in ((FULL, size["rank_full"]), (PAIR, size["rank_pair"])):
            total = tree.level_count(n, kind)
            for _ in range(size["rank_trips"]):
                k = rng.randrange(total)
                try:
                    op = tree.unrank(k, n, kind)
                    OrderedNcPartition.checked(op.n, op.blocks_by_label)
                    gate.check(("rank", kind, n, k), tree.rank_of(op, kind), k)
                except Exception as exc:
                    gate.error(("rank", kind, n, k), exc)
    return {"flags": [], "workers": 1}


def _sweep_full(gate: Gate, level: int) -> None:
    """Every edge into full level ``level``: first-kind increments by the
    child's maximal-block size, and the outer-count insertion law."""
    first = [stats.blocks_of_size(1), stats.blocks_of_size(2), stats.LARGE_BLOCKS]
    vectors = {s: stats.first_kind_input(s) for s in first}
    law = stats.second_kind_input(stats.OUTER, FULL)
    for parent_op in tree.iter_level(level - 1, FULL):
        kids = tree.children(parent_op)
        sizes = [len(kid.max_label_block()) for kid in kids]
        for s in first:
            r = vectors[s]
            z = stats.evaluate(s, parent_op)
            got = [stats.evaluate(s, kid) - z for kid in kids]
            want = [r[j - 1] if j <= len(r) else 0 for j in sizes]
            gate.check(("full", s.name, "edges below", parent_op), got, want)
        _second_kind(gate, stats.OUTER, FULL, law, parent_op, kids)


def _sweep_pair(gate: Gate, level: int) -> None:
    """Every edge into pair level ``level``: the two insertion laws and
    the area split (2n-1) + (2n+1) * parent area."""
    laws = {s: stats.second_kind_input(s, PAIR)
            for s in (stats.OUTER, stats.INTERVAL_PAIRS)}
    for parent_op in tree.iter_level(level - 1, PAIR):
        kids = tree.pair_children(parent_op)
        for s, law in laws.items():
            _second_kind(gate, s, PAIR, law, parent_op, kids)
        got = sum(stats.evaluate(stats.AREA, kid) for kid in kids)
        want = (2 * level - 1) + (2 * level + 1) * stats.evaluate(stats.AREA, parent_op)
        gate.check(("pair area split below", parent_op), got, want)


def _second_kind(gate: Gate, stat, kind, law, parent_op, kids) -> None:
    core = stats.core_child_digits(stat, kind, parent_op)
    z = stats.evaluate(stat, parent_op)
    gate.check((kind, stat.name, "core size at", parent_op), len(core), z + law.q)
    got = [stats.evaluate(stat, kid) - z for kid in kids]
    want = [law.alpha if d in core else law.beta for d in range(len(kids))]
    gate.check((kind, stat.name, "jumps below", parent_op), got, want)


# ---------------------------------------------------------------------------
# exact-algebra

def exact_algebra(job: Job) -> dict:
    """Harmonic sums, polynomial recursions and moment/cumulant
    conversion; no tree is walked beyond the recursions' tiny seeds."""
    gate, size, tracer = job.gate, job.size, job.tracer
    job.mark_setup_done()
    rng = random.Random(job.seed)

    with tracer.span("bench.variance_sweep", "bench"):
        for n in range(2, size["variance_stop"]):
            gate.check(("variance forms at", n), cf.variance_block_count(n),
                       cf.variance_block_count_alt(n))

    with tracer.span("bench.exact.means", "bench"):
        for n in range(4, size["means_stop"]):
            gate.check(("size decomposition at", n), cf.expected_block_count(n),
                       cf.expected_size1_blocks(n) + cf.expected_size2_blocks(n)
                       + cf.expected_size3plus_blocks(n))

    means = (("Y", FULL, cf.expected_block_count),
             ("Y1", FULL, cf.expected_size1_blocks),
             ("Y2", FULL, cf.expected_size2_blocks),
             ("Yge3", FULL, cf.expected_size3plus_blocks),
             ("Out", FULL, cf.expected_outer_blocks),
             ("Out", PAIR, cf.expected_outer_pairs),
             ("Int", PAIR, cf.expected_interval_pairs))
    with tracer.span("bench.exact.recursions", "bench"):
        for n in size["recursion_n"]:
            for name, kind, closed in means:
                what = f"{kind} {name} recursion at {n}"
                try:
                    poly = laplace.recursion_transform(Statistic.parse(name), n, kind)
                    gate.check(f"{what} total", poly.evaluate(1),
                               tree.level_count(n, kind))
                    gate.check(f"{what} mean",
                               laplace.expectation_from_laplace(poly), closed(n))
                    if name == "Y":
                        gate.check(f"{what} variance",
                                   laplace.variance_from_laplace(poly),
                                   cf.variance_block_count(n))
                except Exception as exc:
                    gate.error(what, exc)

    with tracer.span("bench.exact.roundtrips", "bench"):
        for order in size["orders"]:
            seq = [Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                   for _ in range(order)]
            gate.check(f"cumulants->moments->cumulants order {order}",
                       list(cm.cumulants_from_moments(cm.moments_from_cumulants(seq))),
                       seq)
            gate.check(f"moments->cumulants->moments order {order}",
                       list(cm.moments_from_cumulants(cm.cumulants_from_moments(seq))),
                       seq)

    with tracer.span("bench.exact.poisson", "bench"):
        order = size["poisson_order"]
        for _ in range(2):
            alpha = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            gate.check(f"poisson alpha {alpha}", cm.poisson_moments(alpha, order),
                       cm.moments_from_cumulants([alpha] * order))

    with tracer.span("bench.exact.stirling", "bench"):
        n = size["stirling_n"]
        recursed = cm.stirling_by_recursion(n)
        closed = cm.stirling_by_closed_form(n)
        for m in range(1, n + 1):
            gate.check(f"triangle row {m}", closed.row(m), recursed.row(m))
    return {"flags": [], "workers": 1}


WORKLOADS = {
    "verify-suites": verify_suites,
    "enum-scan": enum_scan,
    "exact-algebra": exact_algebra,
}

def run_job(workload: str, seed: int, size_name: str = "full",
            trace: bool = False, setup_only: bool = False) -> dict:
    """Run one job in this process and return its result record."""
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer().install()
    job = Job(SIZES[size_name], seed, tracer, setup_only)
    gate = job.gate
    t0 = time.monotonic()
    detail = {"flags": [], "workers": 1}
    try:
        detail = WORKLOADS[workload](job)
    except SetupDone:
        pass
    except Exception as exc:
        gate.error(f"{workload} job", exc)
    finally:
        if tracer is not None:
            tracer.uninstall()
    end = time.monotonic()
    setup_done = job.setup_done or t0
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "workload": workload, "seed": seed, "size": size_name,
        "version": mton.__version__, "mton_file": mton.__file__,
        "setup_done": setup_done, "work_s": end - setup_done,
        "attempted": gate.attempted, "failed": gate.failed,
        "failures": gate.samples, "maxrss_kb": usage,
        "detail": detail,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the timed work would start")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    print(json.dumps(run_job(args.workload, args.seed, args.size, args.trace,
                             args.setup_only)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
