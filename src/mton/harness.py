"""Verification suites over the whole library, with minimizable reports.

Each check owns a kernel run over an ascending size range; the first
failing size yields a witness dictionary and the run stops.  Because
kernels scan sizes (and ranks within a size) in increasing order, the
reported witness is already minimal, and counterexample_minimize simply
re-derives it from scratch.  A kernel that raises yields an "error"
report with a traceback excerpt, and the checks after it still run.  The
self-test feeds one wrong formula per suite to that suite's own kernels.
A kernel reads the brute-force scan through the scan cache of
:mod:`laplace`, which builds each tree level once, in whatever order the
levels are read, so a check says nothing about the scans it reads.

Every exact comparison names its routes (say ``enumerated``,
``closed_form`` and ``alt_form``) and goes through one comparison,
``_disagree``; a failing witness shows each route's value under its
name.  Exact values inside witnesses are serialized by ``_render``: a
rational as an integer or "p/q" string, a polynomial as its map from
exponent to coefficient, a tuple element by element.  Checks that
report a location (a rank, a partition, a parent) carry integer counts;
only checks in float mode carry floats, and they say so.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache, partial

from . import closed_forms as cf
from . import cumulants as cm
from . import laplace, reference, stats, tree
from .polynomials import ExactPolynomial, format_rational
from .stats import (AREA, BLOCKS, INTERVAL_PAIRS, LARGE_BLOCKS, OUTER,
                    SIZE_STATS, Statistic, blocks_of_size)
from .tree import FULL, PAIR


class NotMinimizable(ValueError):
    """The report is passing, unknown, or fails nowhere on re-run."""


class CheckSpec(namedtuple("CheckSpec", "id description")):
    __slots__ = ()


class CheckReport(namedtuple("CheckReport", "id status witness elapsed",
                             defaults=(None, 0.0))):
    """``status`` is pass, fail or error; ``witness`` is a dict or None."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"id": self.id, "status": self.status,
                "witness": self.witness, "elapsed": round(self.elapsed, 3)}


class Check(namedtuple("Check", "spec sizes kernel")):
    """``kernel(n)`` returns a witness dict or None for each of ``sizes``."""

    __slots__ = ()

    def run(self) -> CheckReport:
        start = time.perf_counter()
        status, witness = "pass", None
        spec, sizes, kernel = self
        try:
            for n in sizes:
                witness = kernel(n)
                if witness is not None:
                    status = "fail"
                    break
        except Exception as exc:  # reported, so later checks still run
            import traceback  # loaded on use, to keep it off the import path
            frames = "".join(traceback.format_tb(exc.__traceback__))
            status, witness = "error", {
                "n": n, "error": f"{type(exc).__name__}: {exc}",
                "traceback": frames.splitlines()[-6:]}
        return CheckReport(spec.id, status, witness,
                           time.perf_counter() - start)


def counterexample_minimize(report: CheckReport,
                            checks: dict[str, Check]) -> CheckReport:
    """Rerun the check from its smallest size; return the first failure."""
    if report.status != "fail":
        raise NotMinimizable("only failing reports can be minimized")
    check = checks.get(report.id)
    if check is None:
        raise NotMinimizable(f"unknown check id {report.id!r}")
    rerun = check.run()
    if rerun.status != "fail":
        raise NotMinimizable(f"{report.id} no longer fails anywhere")
    return rerun


def run_checks(checks: Iterable[Check]) -> list[CheckReport]:
    return [c.run() for c in checks]


# ---------------------------------------------------------------------------
# kernels and kernel factories

def _render(value):
    # an exact value as JSON: a rational as an integer or "p/q" string, a
    # polynomial as its coefficient map, a sequence element by element
    if isinstance(value, ExactPolynomial):
        return value.to_json()["coeffs"]
    if isinstance(value, (tuple, list)):
        return [_render(v) for v in value]
    return format_rational(value)


def _disagree(n: int, values: dict, **fields) -> dict | None:
    # every named value at n must be the same; a witness shows each
    # value under its name
    first, *rest = values.values()
    if any(v != first for v in rest):
        return {"n": n, **fields,
                **{name: _render(v) for name, v in values.items()}}
    return None


def _agree(routes: dict[str, Callable[[int], object]], **fields):
    def kernel(n: int) -> dict | None:
        return _disagree(n, {name: route(n) for name, route in routes.items()},
                         **fields)
    return kernel


def _enumerated(stat: Statistic, kind: str,
                readout: Callable[[ExactPolynomial], object] | None
                = None):
    # the readout (by default the mean) of the brute-force transform at
    # n; the default is looked up here, so a replaced laplace readout holds
    readout = readout or laplace.expectation_from_laplace
    return lambda n: readout(laplace.bruteforce_transform(stat, n, kind))


def _mean_kernel(stat: Statistic, kind: str, closed):
    return _agree({"enumerated": _enumerated(stat, kind),
                   "closed_form": closed}, stat=stat.name)


def _recursion_kernel(chosen: Sequence[Statistic], kind: str):
    def kernel(n: int) -> dict | None:
        witness = None
        for stat in chosen:
            witness = witness or _disagree(n, {
                "enumerated": laplace.bruteforce_transform(stat, n, kind),
                "recursion": laplace.recursion_transform(stat, n, kind)},
                stat=stat.name)
        return witness
    return kernel


def _edge_kernel(chosen: Sequence[Statistic], kind: str):
    # each statistic's transition law on the edges into level n
    def kernel(n: int) -> dict | None:
        witness = None
        for stat in chosen:
            witness = witness or laplace.edge_witness(stat, kind, n)
        return witness
    return kernel


def _mean_step_kernel(stat: Statistic, kind: str, closed):
    # the sizes ascend, so the closed form at n is kept for the step
    # into n + 1; each size still evaluates it once, from scratch
    law = stats.second_kind_input(stat, kind)
    closed_at = lru_cache(maxsize=1)(closed)
    return _agree({"stepped": lambda n: cf.expectation_recursion_step(
                       law, closed_at(n - 1), n, kind),
                   "closed_form": closed_at}, stat=stat.name)


def _product_form(n: int) -> ExactPolynomial:
    # t(1+2t)...(1+nt)
    return math.prod((ExactPolynomial({0: 1, 1: j}) for j in range(2, n + 1)),
                     start=ExactPolynomial.monomial(1))


def _count_kernel(kind: str, formula: Callable[[int, str], int]):
    # the level total is read off the scan, whose walk stops on digit
    # exhaustion, never on the formula; a stride of ranks round-trips
    # through unrank() and encode() as a spot check of the rank bijection
    def kernel(n: int) -> dict | None:
        count = sum(laplace.level_histograms(kind, n)[n].values())
        for k in range(0, count, 1009):
            rank = tree.rank_of(tree.unrank(k, n, kind), kind)
            if rank != k:
                return {"n": n, "position": k, "rank": rank}
        want = formula(n, kind)
        if count != want:
            return {"n": n, "streamed": count, "formula": want}
        return None
    return kernel


def _multiplicity_kernel(b_pair: int):
    # the scanned tally of each partition against its hook-length ordering
    # count, and the number of distinct partitions against Catalan(n)
    def kernel(n: int) -> dict | None:
        for kind in (FULL, PAIR) if n <= b_pair else (FULL,):
            hist = laplace.level_histograms(kind, n)[n]
            catalan = math.comb(2 * n, n) // (n + 1)
            if len(hist) != catalan:
                return {"n": n, "kind": kind, "distinct": len(hist),
                        "catalan": catalan}
            for blocks, tallied in sorted(hist.items()):
                hook = cm._ordering_count_blocks(blocks)
                if tallied != hook:
                    return {"n": n, "kind": kind,
                            "blocks": [list(b) for b in blocks],
                            "tallied": tallied, "hook": hook}
        return None
    return kernel


def _enum_cross_kernel(kind: str, by_filter: Callable[[int], set]):
    # the tree level against an independent construction of the same set
    def kernel(n: int) -> dict | None:
        walked = {op.blocks_by_label for op in tree.stream_level(n, kind)}
        filtered = by_filter(n)
        if walked != filtered:
            missing = [list(map(list, b)) for b in list(filtered - walked)[:3]]
            extra = [list(map(list, b)) for b in list(walked - filtered)[:3]]
            return {"n": n, "walked": len(walked), "filtered": len(filtered),
                    "missing_sample": missing, "extra_sample": extra}
        return None
    return kernel


# per tree: the deepest level compared, the filter construction, and the
# reference evaluator of each statistic read off the block spans
_REFERENCE_STATS = (
    (FULL, 7, reference.ordered_partitions_by_filter,
     ((OUTER, reference.outer_count),
      (INTERVAL_PAIRS, reference.interval_pair_count))),
    (PAIR, 6, reference.ordered_pair_partitions_by_filter,
     ((OUTER, reference.outer_count),
      (INTERVAL_PAIRS, reference.interval_pair_count),
      (AREA, reference.pair_area))),
)


def _k_stat_cross(n: int) -> dict | None:
    # the scanned transform against a histogram of the reference
    # evaluator over the independently constructed level
    witness = None
    for kind, top, by_filter, evaluators in _REFERENCE_STATS:
        if n > top:
            continue
        level = by_filter(n)
        for stat, value in evaluators:
            witness = witness or _disagree(n, {
                "enumerated": laplace.bruteforce_transform(stat, n, kind),
                "reference": ExactPolynomial(Counter(map(value, level)))},
                stat=stat.name, kind=kind)
    return witness


def _k_parent_chain(m: int) -> dict | None:
    # from each singleton state of level m-ell+1, the elongation child
    # (the last digit) taken ell-1 times must reach each size-ell state
    # of level m exactly once, with the source's node count and the
    # padded value shift; states are checked in increasing first rank
    record = laplace.scan_record(FULL, m)
    levels, top = record.levels, record.levels[m]
    values = [record.level_values(s, m) for s in SIZE_STATS]

    def node(k: int) -> dict:  # a witness names the state's first node
        return tree.unrank(top.first[k], m, FULL).to_json()
    for ell in range(2, min(m, 4) + 1):
        low = m - ell + 1
        base = levels[low]
        low_values = [record.level_values(s, low) for s in SIZE_STATS]
        # r_2 + ... + r_ell, with r_j = 0 past the increment vector
        shifts = [sum(stats.first_kind_input(s)[1:ell]) for s in SIZE_STATS]
        chained: dict[int, list] = {}
        for s in (s for s, size in enumerate(base.size) if size == 1):
            k = s
            for d in range(low, m):
                width = tree._radix(d, FULL)
                k = levels[d].kids[(k + 1) * width - 1]
            chained.setdefault(k, []).append(s)
        targets = {k for k, size in enumerate(top.size) if size == ell}
        for k in sorted(targets | chained.keys()):
            hits, want = chained.get(k, []), int(k in targets)
            if len(hits) != want:
                return {"n": m, "ell": ell, "node": node(k),
                        "chains": len(hits), "want": want}
            s, = hits
            if top.mult[k] != base.mult[s]:
                return {"n": m, "ell": ell, "node": node(k),
                        "count": top.mult[k], "source_count": base.mult[s]}
            delta = [hi[top.part[k]] - lo[base.part[s]]
                     for hi, lo in zip(values, low_values)]
            if delta != shifts:
                i = next(i for i, d in enumerate(delta) if d != shifts[i])
                return {"n": m, "ell": ell, "stat": SIZE_STATS[i].name,
                        "node": node(k), "delta": delta[i], "want": shifts[i]}
    return None


def _k_singleton_slice(m: int) -> dict | None:
    # the transform over the level-m nodes whose maximal-label block is
    # a singleton: the level's singleton states, by their node counts
    record = laplace.scan_record(FULL, m)
    states = record.levels[m]
    singletons: Counter = Counter()
    for i, size, count in zip(states.part, states.size, states.mult):
        if size == 1:
            singletons[i] += count
    witness = None
    for s in SIZE_STATS:
        r1 = stats.first_kind_input(s)[0]
        witness = witness or _disagree(m, {
            "slice": record.transform(s, m, singletons),
            "previous_level": laplace.bruteforce_transform(
                s, m - 1, FULL).shifted(r1).scaled(m)}, stat=s.name)
    return witness


def _area_split_kernel(split: Callable[[int, int], int]):
    # split(n, parent area) is the claimed sum of the children's areas
    def kernel(n: int) -> dict | None:
        record = laplace.scan_record(PAIR, n)
        wants = {i: split(n, area)
                 for i, area in record.level_values(AREA, n - 1).items()}
        # each level-n state's area, read through its partition once
        area = list(map(record.level_values(AREA, n).__getitem__,
                        record.levels[n].part))
        for r, i, kids in record.batches(n):
            child_sum = sum(map(area.__getitem__, kids))
            want = wants[i]
            if child_sum != want:
                return {"n": n,
                        "parent": tree.unrank(r, n - 1, PAIR).to_json(),
                        "child_sum": child_sum, "want": want}
        return None
    return kernel


def _total(poly: ExactPolynomial) -> Fraction:
    return poly.derivative().evaluate(1)


def _with_mean(poly: ExactPolynomial) -> tuple[ExactPolynomial, Fraction]:
    return poly, laplace.expectation_from_laplace(poly)


def _area_total_by_levels(n: int) -> int:
    # the level sums of the area-child-split lemma: T_1 = 1 and
    # T_m = (2m-1) (2m-3)!! + (2m+1) T_(m-1)
    total = 1
    for m in range(2, n + 1):
        total = ((2 * m - 1) * tree.level_count(m - 1, PAIR)
                 + (2 * m + 1) * total)
    return total


def _spot_kernel(stat: Statistic, kind: str,
                 readout: Callable[[ExactPolynomial], object], want: tuple):
    # the frozen (mean, readout) pair of one small level
    return _agree({"enumerated": _enumerated(stat, kind, lambda poly: (
                       laplace.expectation_from_laplace(poly), readout(poly))),
                   "frozen": lambda n: want})


def _asymptote_kernel(formula: str, field: str, tolerance: float):
    # the report's difference must lie within tolerance of 0, its ratio
    # within tolerance of 1
    target = 1.0 if field == "ratio" else 0.0

    def kernel(n: int) -> dict | None:
        report = cf.asymptotic_report(formula, n)
        value = getattr(report, field)
        if abs(value - target) >= tolerance:
            return {"n": n, "mode": "float", "exact": report.exact,
                    "asymptote": report.asymptotic, field: value,
                    "tolerance": tolerance}
        return None
    return kernel


def _k_area_ratio_shrinks(n: int) -> dict | None:
    lower = cf.asymptotic_report("EArea", 10 ** 5)
    upper = cf.asymptotic_report("EArea", 10 ** 6)
    ok = (0.9 <= upper.ratio <= 1.1
          and abs(1 - upper.ratio) < abs(1 - lower.ratio))
    if not ok:
        return {"n": n, "mode": "float", "ratio_1e5": lower.ratio,
                "ratio_1e6": upper.ratio}
    return None


_FROZEN_TRIANGLE = {
    1: (1,), 2: (1, 2), 3: (1, 5, 6), 4: (1, 9, 26, 24),
    5: (1, 14, 71, 154, 120), 6: (1, 20, 155, 580, 1044, 720),
}
# the last row each exponential triangle route reaches, in stirling --check too
CLOSED_FORM_ROWS = 20  # triangle-recursion-closed: 2^(n-1) products in row n
TREE_COUNT_ROWS = 9  # triangle-tree-recursion: (n+1)!/2 nodes in level n


def _row(table: Callable[[int], cm.StirlingTable]):
    return lambda n: table(n).row(n)


def _seeded_sequence(index: int, length: int) -> tuple[Fraction, ...]:
    rng = random.Random(20260823 + index)
    return tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 30))
                 for _ in range(length))


_POISSON_ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1))


def _k_poisson_constant(index: int) -> dict | None:
    alpha = _POISSON_ALPHAS[index - 1]
    return _disagree(index, {
        "triangle": cm.poisson_moments(alpha, 20),
        "recurrence": cm.moments_from_cumulants([alpha] * 20)},
        alpha=format_rational(alpha))


def _k_hook_vs_filter(n: int) -> dict | None:
    for blocks in reference.noncrossing_partitions(n):
        fast = cm._ordering_count_blocks(blocks)
        slow = reference.ordering_count(blocks)
        if fast != slow:
            return {"n": n, "blocks": [list(b) for b in blocks],
                    "hook": fast, "filter": slow}
    return None


def _k_ordering_ratio(n: int) -> dict | None:
    for blocks in reference.noncrossing_partitions(n):
        count = cm._ordering_count_blocks(blocks)
        k = len(blocks)
        is_interval = all(b == tuple(range(b[0], b[0] + len(b))) for b in blocks)
        if count > math.factorial(k) or (count == math.factorial(k)) != is_interval:
            return {"n": n, "blocks": [list(b) for b in blocks],
                    "count": count, "k_factorial": math.factorial(k)}
    return None


# ---------------------------------------------------------------------------
# deliberately corrupted twins, exercised by the self-test

def corrupted_checks() -> dict[str, tuple[Check, int]]:
    """One wrong formula per suite, fed to a kernel factory of that
    suite, with the minimal size at which the kernel must fail."""

    def wrong_triangle(n_max):  # J[m][k] = J[m-1][k] + (m+1) J[m-1][k-1]
        rows = [(1,)]
        for m in range(2, n_max + 1):
            rows.append(tuple(a + (m + 1) * b for a, b
                              in zip(rows[-1] + (0,), (0,) + rows[-1])))
        return cm.StirlingTable(tuple(rows))

    def wrong_poisson(alpha, upto):  # 1/(k+1)! where 1/k! belongs
        table = cm.stirling_by_recursion(upto)
        return tuple(sum(table.value(n, k) * alpha ** k / math.factorial(k + 1)
                         for k in range(1, n + 1)) for n in range(1, upto + 1))

    twins = {
        "cardinality": ("corrupt-count", range(1, 5), 1, _count_kernel(
            FULL, lambda n, kind: math.factorial(n + 1) // 2 + 1)),
        "thm16": ("corrupt-mean", range(2, 6), 2, _mean_kernel(
            BLOCKS, FULL,  # harmonic index off by one
            lambda n: (n - cf.harmonic(n - 1) + Fraction(3, 2)
                       - Fraction(1, n + 1)))),
        "thm17": ("corrupt-size1", range(3, 7), 3, _mean_kernel(
            blocks_of_size(1), FULL,
            lambda n: (n - 3 * cf.harmonic(n) + Fraction(10, 3)
                       - Fraction(3, n + 1)))),
        "lemmas": ("corrupt-split", range(2, 6), 2, _area_split_kernel(
            lambda n, area: 2 * n + (2 * n + 1) * area)),
        "thm110": ("corrupt-outer", range(1, 6), 1, _mean_kernel(
            OUTER, FULL, lambda n: Fraction(2 * n + 2, 3))),
        "thm111": ("corrupt-area", range(1, 6), 1, _mean_kernel(
            AREA, PAIR,
            lambda n: (2 * n + 1) * sum(Fraction(1, 2 * k - 1)
                                        for k in range(1, n + 1)))),
        "stirling": ("corrupt-triangle", range(1, 6), 2, _agree({
            "corrupted": _row(wrong_triangle),
            "tree": _row(cm.stirling_by_tree_count)})),
        "cumulants": ("corrupt-poisson", range(1, 5), 1, _agree({
            "corrupted": lambda i: wrong_poisson(_POISSON_ALPHAS[i - 1], 20),
            "recurrence": lambda i: cm.moments_from_cumulants(
                [_POISSON_ALPHAS[i - 1]] * 20)})),
    }
    return {suite: (Check(CheckSpec(id_, f"corrupted twin {id_}"),
                          tuple(sizes), kernel), minimal)
            for suite, (id_, sizes, minimal, kernel) in twins.items()}


def _k_selftest(_: int) -> dict | None:
    for suite, (check, minimal) in corrupted_checks().items():
        where = {"suite": suite, "check": check.spec.id}
        report = check.run()
        if report.status != "fail":
            return {**where, "problem": "corrupted formula not caught",
                    "status": report.status}
        try:
            minimized = counterexample_minimize(report, {check.spec.id: check})
        except NotMinimizable:
            return {**where, "problem": "failure not minimizable"}
        if minimized.witness.get("n") != minimal:
            return {**where, "problem": f"minimal witness not n={minimal}",
                    "witness": minimized.witness}
    return None


# ---------------------------------------------------------------------------
# registry

def _suite_checks(deep: bool = False) -> dict[str, list[Check]]:
    """Every registered check, listed under its suite."""
    b_full = 10 if deep else 9
    b_pair = 8 if deep else 7
    b_outer = 9 if deep else 8

    def mk(id_, desc, sizes, kernel):
        return Check(CheckSpec(id_, desc), tuple(sizes), kernel)

    return {
        "cardinality": [
            mk("count-full", "scanned full-tree level sizes equal (n+1)!/2",
               range(1, b_full + 1), _count_kernel(FULL, tree.level_count)),
            mk("count-pair", "scanned pair-tree level sizes equal (2n-1)!!",
               range(1, b_pair + 1), _count_kernel(PAIR, tree.level_count)),
            mk("scan-multiplicities",
               "scanned levels hold Catalan(n) partitions, each tallied "
               "as often as its hook-length ordering count",
               range(1, b_full + 1), _multiplicity_kernel(b_pair)),
            mk("enum-cross-check",
               "tree enumeration equals the permutation-filter construction",
               range(1, 8), _enum_cross_kernel(
                   FULL, reference.ordered_partitions_by_filter)),
            mk("pair-enum-cross-check",
               "pair-tree enumeration equals the permutation-filter construction",
               range(1, 7), _enum_cross_kernel(
                   PAIR, reference.ordered_pair_partitions_by_filter)),
            mk("stat-cross-check",
               "scanned outer, interval-pair and area transforms equal "
               "reference evaluators over the filter construction",
               range(1, 8), _k_stat_cross),
        ],
        "thm16": [
            mk("block-count-mean", "enumerated mean block count vs closed form",
               range(2, b_full + 1),
               _mean_kernel(BLOCKS, FULL, cf.expected_block_count)),
            mk("block-count-variance",
               "enumerated block-count variance vs both closed forms",
               range(2, b_full + 1), _agree({
                   "enumerated": _enumerated(
                       BLOCKS, FULL, laplace.variance_from_laplace),
                   "closed_form": cf.variance_block_count,
                   "alt_form": cf.variance_block_count_alt})),
            mk("block-count-spot",
               "frozen level-3 mean 29/12 and variance 59/144",
               [3], _spot_kernel(BLOCKS, FULL, laplace.variance_from_laplace,
                                 (Fraction(29, 12), Fraction(59, 144)))),
            mk("product-form",
               "block-count transform equals t(1+2t)...(1+nt)",
               range(1, b_full + 1), _agree({
                   "enumerated": partial(laplace.bruteforce_transform, BLOCKS),
                   "product_form": _product_form})),
            mk("block-count-recursion",
               "block-count transform recursion vs enumeration",
               range(1, b_full + 1), _recursion_kernel((BLOCKS,), FULL)),
            mk("variance-forms", "the two printed variance forms agree",
               range(2, 10001), _agree({
                   "direct": cf.variance_block_count,
                   "shifted": cf.variance_block_count_alt})),
            mk("mean-asymptote",
               "mean block count approaches n - ln n + 3/2 - g",
               [10000], _asymptote_kernel("EY", "difference", 1e-3)),
            mk("variance-asymptote",
               "block-count variance approaches ln n - (pi^2/6 + 1/4 - g)",
               [10000], _asymptote_kernel("VarY", "difference", 1e-3)),
        ],
        "thm17": [
            mk("size1-mean", "enumerated mean singleton count vs closed form",
               range(3, b_full + 1),
               _mean_kernel(blocks_of_size(1), FULL, cf.expected_size1_blocks)),
            mk("size2-mean", "enumerated mean two-block count vs closed form",
               range(4, b_full + 1),
               _mean_kernel(blocks_of_size(2), FULL, cf.expected_size2_blocks)),
            mk("size3plus-mean", "enumerated mean of >=3 blocks vs closed form",
               range(4, b_full + 1),
               _mean_kernel(LARGE_BLOCKS, FULL, cf.expected_size3plus_blocks)),
            mk("size-decomposition",
               "closed forms: whole mean equals sum of size parts",
               range(4, 1001), _agree({
                   "whole": cf.expected_block_count,
                   "sum_of_parts": lambda n: (
                       cf.expected_size1_blocks(n) + cf.expected_size2_blocks(n)
                       + cf.expected_size3plus_blocks(n))})),
            mk("tally-recursions",
               "size-count transform recursions vs enumeration",
               range(1, b_full + 1), _recursion_kernel(SIZE_STATS[1:], FULL)),
            mk("first-kind-edges",
               "block-size counts change by r_j on every full-tree edge whose "
               "child has a maximal-label block of j points",
               range(2, 9), _edge_kernel(SIZE_STATS, FULL)),
            mk("seed-resolution",
               "level-3 singleton transform settles to 6t^3 + 5t + 1",
               [3], _agree({
                   "enumerated": _enumerated(
                       blocks_of_size(1), FULL, _with_mean),
                   "recursion": lambda n: _with_mean(
                       laplace.recursion_transform(blocks_of_size(1), n)),
                   "frozen": lambda n: (ExactPolynomial({3: 6, 1: 5, 0: 1}),
                                        Fraction(23, 12))})),
            mk("size3-limit", "telescoped three-block mean approaches 23/90",
               [1000], _asymptote_kernel("EY3", "difference", 1e-2)),
        ],
        "lemmas": [
            mk("parent-chain-bijection",
               "iterated parents biject big-max-block slices onto singleton "
               "slices with the padded value shift",
               range(2, 9), _k_parent_chain),
            mk("singleton-slice",
               "singleton-max-block slice transform equals m t^r1 times the "
               "previous level",
               range(2, 9), _k_singleton_slice),
            mk("area-child-split",
               "pair children areas sum to (2n-1) + (2n+1) parent area",
               range(2, 8), _area_split_kernel(
                   lambda n, area: (2 * n - 1) + (2 * n + 1) * area)),
        ],
        "thm110": [
            mk("outer-full-mean", "enumerated mean outer count vs (2n+1)/3",
               range(1, b_outer + 1),
               _mean_kernel(OUTER, FULL, cf.expected_outer_blocks)),
            mk("outer-full-recursion",
               "outer-count transform recursion vs enumeration (full tree)",
               range(1, b_outer + 1), _recursion_kernel((OUTER,), FULL)),
            mk("outer-full-subsets",
               "outer-count insertion law clauses on every full-tree parent",
               range(2, b_outer + 1), _edge_kernel((OUTER,), FULL)),
            mk("interval-pair-mean",
               "enumerated mean interval-pair count vs (2n+1)/3",
               range(1, b_pair + 1),
               _mean_kernel(INTERVAL_PAIRS, PAIR, cf.expected_interval_pairs)),
            mk("interval-pair-recursion",
               "interval-pair transform recursion vs enumeration",
               range(1, b_pair + 1),
               _recursion_kernel((INTERVAL_PAIRS,), PAIR)),
            mk("interval-pair-subsets",
               "interval-pair insertion law clauses on every pair-tree parent",
               range(2, b_pair + 1), _edge_kernel((INTERVAL_PAIRS,), PAIR)),
            mk("outer-pair-mean",
               "enumerated mean outer count vs 2^n n!/(2n-1)!! - 1",
               range(1, b_pair + 1),
               _mean_kernel(OUTER, PAIR, cf.expected_outer_pairs)),
            mk("outer-pair-recursion",
               "outer-count transform recursion vs enumeration (pair tree)",
               range(1, b_pair + 1), _recursion_kernel((OUTER,), PAIR)),
            mk("outer-pair-subsets",
               "outer-count insertion law clauses on every pair-tree parent",
               range(2, b_pair + 1), _edge_kernel((OUTER,), PAIR)),
            mk("outer-full-mean-recursion",
               "stepped outer mean reproduces (2n+1)/3",
               range(2, 1001),
               _mean_step_kernel(OUTER, FULL, cf.expected_outer_blocks)),
            mk("interval-mean-recursion",
               "stepped interval-pair mean reproduces (2n+1)/3",
               range(2, 1001),
               _mean_step_kernel(INTERVAL_PAIRS, PAIR,
                                 cf.expected_interval_pairs)),
            mk("outer-pair-mean-recursion",
               "stepped pair-tree outer mean reproduces 2^n n!/(2n-1)!! - 1",
               range(2, 1001),
               _mean_step_kernel(OUTER, PAIR, cf.expected_outer_pairs)),
            mk("outer-pair-asymptote",
               "pair-tree outer mean approaches sqrt(pi n)",
               [10000], _asymptote_kernel("EOutPair", "ratio", 0.01)),
        ],
        "thm111": [
            mk("area-mean",
               "enumerated mean area vs (2n+1) sum 1/(2k+1)",
               range(1, b_pair + 1),
               _mean_kernel(AREA, PAIR, cf.expected_area)),
            mk("area-total", "summed area vs (2n+1)!! partial odd harmonic "
               "and vs the level sum of the area child split",
               range(1, b_pair + 1), _agree({
                   "enumerated": _enumerated(AREA, PAIR, _total),
                   "closed_form": cf.total_area,
                   "alt_form": _area_total_by_levels})),
            mk("area-spot", "frozen pair level 2: mean 8/3, total 8",
               [2], _spot_kernel(AREA, PAIR, _total,
                                 (Fraction(8, 3), 8))),
            mk("area-asymptote",
               "mean area over n log n enters [0.9, 1.1] and tightens",
               [10 ** 6], _k_area_ratio_shrinks),
        ],
        "stirling": [
            mk("triangle-frozen", "ordered-count triangle rows 1..6 are frozen",
               range(1, 7), _agree({
                   "recursion": _row(cm.stirling_by_recursion),
                   "closed_form": _row(cm.stirling_by_closed_form),
                   "tree": _row(cm.stirling_by_tree_count),
                   "frozen": _FROZEN_TRIANGLE.__getitem__})),
            mk("triangle-tree-recursion",
               "triangle from enumeration vs recursion",
               range(1, TREE_COUNT_ROWS + 1), _agree({
                   "tree": _row(cm.stirling_by_tree_count),
                   "recursion": _row(cm.stirling_by_recursion)})),
            mk("triangle-recursion-closed",
               "triangle recursion vs increasing-products closed form",
               range(1, CLOSED_FORM_ROWS + 1), _agree({
                   "closed_form": _row(cm.stirling_by_closed_form),
                   "recursion": _row(cm.stirling_by_recursion)})),
            mk("triangle-row-sums", "triangle rows sum to (n+1)!/2",
               range(1, 21), _agree({
                   "row_sum": lambda n: sum(cm.stirling_by_recursion(n).row(n)),
                   "closed_form": lambda n: tree.level_count(n, FULL)})),
            mk("triangle-poly-identity",
               "triangle generating polynomial equals t(1+2t)...(1+nt)",
               range(1, 10), _agree({
                   "triangle": lambda n: ExactPolynomial(
                       dict(enumerate(cm.stirling_by_recursion(n).row(n), 1))),
                   "product_form": _product_form})),
        ],
        "cumulants": [
            mk("roundtrip-random",
               "seeded random sequences round-trip moments <-> cumulants",
               range(1, 101), _agree({
                   "seeded": lambda i: _seeded_sequence(i, 8),
                   "via_moments": lambda i: cm.cumulants_from_moments(
                       cm.moments_from_cumulants(_seeded_sequence(i, 8))),
                   "via_cumulants": lambda i: cm.moments_from_cumulants(
                       cm.cumulants_from_moments(_seeded_sequence(i, 8)))})),
            mk("small-identities", "frozen order-3 moment/cumulant identities",
               [3], _agree({
                   # moment 3 of cumulants (2,3,5), cumulant 3 of
                   # moments (1,2,5)
                   "conversions": lambda n: (
                       cm.moments_from_cumulants([2, 3, 5])[n - 1],
                       cm.cumulants_from_moments([1, 2, 5])[n - 1]),
                   "frozen": lambda n: (5 + Fraction(5, 2) * 6 + 8,
                                        Fraction(3, 2))})),
            mk("poisson-constant",
               "triangle moments equal constant-cumulant moments to order 20",
               range(1, 5), _k_poisson_constant),
            mk("hook-vs-filter",
               "forest hook-length ordering count vs permutation filter",
               range(1, 9), _k_hook_vs_filter),
            mk("ordering-ratio",
               "ordering count <= k! with equality iff interval partition",
               range(1, 9), _k_ordering_ratio),
            mk("ordering-sum", "ordering counts over NC(n) sum to (n+1)!/2",
               range(1, 10), _agree({
                   "ordering_sum": lambda n: sum(map(
                       cm._ordering_count_blocks,
                       reference.noncrossing_partitions(n))),
                   "closed_form": lambda n: tree.level_count(n, FULL)})),
            mk("moments-partition-sum",
               "semigroup-recurrence moment n equals the weighted NC(n) sum",
               range(1, 9), _agree({
                   "recurrence": lambda n: cm.moments_from_cumulants(
                       _seeded_sequence(n, n))[-1],
                   "partition_sum": lambda n: (
                       reference.moments_by_partition_sum(
                           _seeded_sequence(n, n))[-1])})),
        ],
        "selftest": [
            mk("harness-selftest",
               "every suite's corrupted twin fails and minimizes",
               [0], _k_selftest),
        ],
    }


def build_checks(deep: bool = False) -> dict[str, Check]:
    return {c.spec.id: c for checks in _suite_checks(deep).values()
            for c in checks}


SUITES: dict[str, tuple[str, ...]] = {
    suite: tuple(c.spec.id for c in checks)
    for suite, checks in _suite_checks().items()}


def suite_names() -> list[str]:
    return ["all"] + list(SUITES)


def run_suite(name: str, deep: bool = False) -> list[CheckReport]:
    if name == "all":
        return run_checks(build_checks(deep).values())
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    return run_checks(_suite_checks(deep)[name])


# ---------------------------------------------------------------------------
# report rendering

def reports_to_jsonl(reports: Sequence[CheckReport]) -> str:
    return "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in reports)


def summary_table(reports: Sequence[CheckReport]) -> str:
    width = max((len(r.id) for r in reports), default=8)
    lines = [f"{'check'.ljust(width)}  status  elapsed"]
    lines.append("-" * (width + 18))
    for r in reports:
        lines.append(f"{r.id.ljust(width)}  {r.status.upper():6}  {r.elapsed:7.2f}s")
    failed = sum(r.status != "pass" for r in reports)
    lines.append("-" * (width + 18))
    lines.append(f"{len(reports)} checks, {failed} failing")
    return "\n".join(lines)
