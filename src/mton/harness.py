"""Verification suites over the whole library, with minimizable reports.

Each check owns a kernel run over an ascending size range; the first
failing size yields a witness dictionary and the run stops.  Because
kernels scan sizes (and ranks within a size) in increasing order, the
reported witness is already minimal, and counterexample_minimize simply
re-derives it from scratch.  A kernel that raises yields an "error"
report with a traceback excerpt, and the checks after it still run.  The
self-test feeds one wrong formula per suite to that suite's own kernels.

A check whose kernel reads the brute-force scan declares each tree it
reads with the deepest level it reads there, and asks for that once, up
front; under "all" the count checks lead with the deepest sizes, so each
tree is scanned once per run.

Exact values inside witnesses are serialized as integer or "p/q"
strings; only checks in float mode carry floats, and they say so.
"""

from __future__ import annotations

import json
import math
import random
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress
from typing import Callable, Iterable, Optional, Sequence

from . import closed_forms as cf
from . import cumulants as cm
from . import laplace, reference, stats, tree
from .polynomials import ExactPolynomial, format_rational
from .stats import (AREA, BLOCKS, INTERVAL_PAIRS, LARGE_BLOCKS, OUTER,
                    SIZE_STATS, Statistic, blocks_of_size)
from .tree import FULL, PAIR


class NotMinimizable(ValueError):
    """The report is passing, unknown, or fails nowhere on re-run."""


@dataclass(frozen=True)
class CheckSpec:
    id: str
    description: str


@dataclass
class CheckReport:
    id: str
    status: str  # pass | fail | error
    witness: Optional[dict] = None
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {"id": self.id, "status": self.status,
                "witness": self.witness, "elapsed": round(self.elapsed, 3)}


@dataclass
class Check:
    spec: CheckSpec
    sizes: tuple[int, ...]
    kernel: Callable[[int], Optional[dict]]
    # each (tree, deepest level) whose brute-force scan the kernel reads
    scans: tuple[tuple[str, int], ...] = ()

    def run(self) -> CheckReport:
        start = time.perf_counter()
        status, witness = "pass", None
        try:
            # scan once to the deepest level, so every size hits the cache
            for kind, n in self.scans:
                laplace._guard(n, kind, None)
                laplace.level_histograms(kind, n)
            for n in self.sizes:
                witness = self.kernel(n)
                if witness is not None:
                    status = "fail"
                    break
        except Exception as exc:  # reported, so later checks still run
            frames = "".join(traceback.format_tb(exc.__traceback__))
            status, witness = "error", {
                "n": n, "error": f"{type(exc).__name__}: {exc}",
                "traceback": frames.splitlines()[-6:]}
        return CheckReport(self.spec.id, status, witness,
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

def _poly_diff_witness(n: int, got: ExactPolynomial,
                       want: ExactPolynomial, **extra) -> dict:
    exps = sorted(set(dict(got.items())) | set(dict(want.items())))
    bad = next(e for e in exps if got.coefficient(e) != want.coefficient(e))
    return {"n": n, "exponent": bad,
            "got": format_rational(got.coefficient(bad)),
            "want": format_rational(want.coefficient(bad)), **extra}


def _mean_kernel(stat: Statistic, kind: str, closed):
    def kernel(n: int) -> Optional[dict]:
        poly = laplace.bruteforce_transform(stat, n, kind)
        brute = laplace.expectation_from_laplace(poly)
        want = closed(n)
        if brute != want:
            return {"n": n, "stat": stat.name,
                    "enumerated": format_rational(brute),
                    "closed_form": format_rational(want)}
        return None
    return kernel


def _recursion_kernel(chosen: Sequence[Statistic], kind: str):
    def kernel(n: int) -> Optional[dict]:
        for stat in chosen:
            brute = laplace.bruteforce_transform(stat, n, kind)
            rec = laplace.recursion_transform(stat, n, kind)
            if brute != rec:
                return _poly_diff_witness(n, rec, brute, stat=stat.name)
        return None
    return kernel


def _first_kind_kernel(chosen: Sequence[Statistic]):
    # each statistic's increment law on the edges into full level n; the
    # digit-derived block sizes it reads are tied to the labels first
    def kernel(n: int) -> Optional[dict]:
        witness = _labelled_tie(n, tree.max_label_block_sizes(n))
        for stat in chosen:
            witness = witness or laplace.first_kind_witness(stat, n)
        return witness
    return kernel


def _subset_kernel(stat: Statistic, kind: str):
    law = stats.second_kind_input(stat, kind)
    return lambda n: laplace.second_kind_witness(stat, kind, n, law)


def _mean_step_kernel(stat: Statistic, kind: str, closed):
    law = stats.second_kind_input(stat, kind)

    def kernel(n: int) -> Optional[dict]:
        stepped = cf.expectation_recursion_step(law, closed(n - 1), n, kind)
        want = closed(n)
        if stepped != want:
            return {"n": n, "stat": stat.name,
                    "stepped": format_rational(stepped),
                    "closed_form": format_rational(want)}
        return None
    return kernel


def _product_kernel(poly_of: Callable[[int], ExactPolynomial]):
    # poly_of(n) must equal t(1+2t)...(1+nt)
    def kernel(n: int) -> Optional[dict]:
        want = ExactPolynomial.monomial(1)
        for j in range(2, n + 1):
            want = want * ExactPolynomial({0: 1, 1: j})
        got = poly_of(n)
        if got != want:
            return _poly_diff_witness(n, got, want)
        return None
    return kernel


def _count_kernel(kind: str, formula: Callable[[int, str], int]):
    # the level total is read off the scan, whose walk stops on digit
    # exhaustion, never on the formula; a stride of ranks round-trips
    # through unrank() and encode() as a spot check of the rank bijection
    def kernel(n: int) -> Optional[dict]:
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
    def kernel(n: int) -> Optional[dict]:
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
    def kernel(n: int) -> Optional[dict]:
        walked = {op.blocks_by_label for op in tree.iter_level(n, kind)}
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


def _k_stat_cross(n: int) -> Optional[dict]:
    # the scanned transform against a histogram of the reference
    # evaluator over the independently constructed level
    for kind, top, by_filter, evaluators in _REFERENCE_STATS:
        if n > top:
            continue
        level = by_filter(n)
        for stat, value in evaluators:
            want = ExactPolynomial.from_counts(Counter(map(value, level)))
            got = laplace.bruteforce_transform(stat, n, kind)
            if got != want:
                return _poly_diff_witness(n, got, want, stat=stat.name,
                                          kind=kind)
    return None


def _chain_divisor(m: int, ell: int) -> int:
    # the (ell-1)-fold ancestor of the rank-r level-m node has rank
    # r // this: the product of the child counts of the levels between
    return math.prod(tree._radix(d, FULL) for d in range(m - ell + 1, m))


def _labelled_tie(m: int, sizes, ells: Sequence[int] = ()) -> Optional[dict]:
    # a stride of ranks, as in the count checks, ties the digit-derived
    # block sizes, and the rank quotients of the iterated parents for
    # each (ascending) ell, to the labelled nodes
    for k in range(0, len(sizes), 1009):
        op = tree.unrank(k, m, FULL)
        block = op.max_label_block()
        if len(block) != sizes[k]:
            return {"n": m, "node": op.to_json(), "max_block": list(block),
                    "digit_size": sizes[k]}
        cur = op
        for ell in ells:
            cur = tree.parent(cur)
            got, quotient = tree.rank_of(cur), k // _chain_divisor(m, ell)
            if got != quotient:
                return {"n": m, "ell": ell, "node": op.to_json(),
                        "ancestor_rank": got, "quotient": quotient}
    return None


def _of_size(sizes, j: int) -> bytes:
    # a selector over the ranks: 1 where the maximal-label block has j points
    hit = bytearray(256)
    hit[j] = 1
    return sizes.tobytes().translate(hit)


def _ranks_of_size(sizes, j: int) -> list[int]:
    return list(compress(range(len(sizes)), _of_size(sizes, j)))


def _size_values(record: laplace.ScanRecord,
                 level: int) -> list[dict[int, int]]:
    # the value of each of SIZE_STATS on each distinct partition of a level
    return [record.level_values(s, level) for s in SIZE_STATS]


def _k_parent_chain(m: int) -> Optional[dict]:
    # the level-m nodes whose digit-derived block size is ell, their
    # (ell-1)-fold ancestors found by rank quotient, and each distinct
    # (node, ancestor) pair of partitions compared once
    ells = [ell for ell in (2, 3, 4) if ell <= m]
    sizes = tree.max_label_block_sizes(m)
    witness = _labelled_tie(m, sizes, ells)
    if witness is not None:
        return witness
    record = laplace.scan_record(FULL, m)
    ids = record.ranked[m]
    values = _size_values(record, m)
    for ell in ells:
        low = m - ell + 1
        low_sizes, low_ids = tree.max_label_block_sizes(low), record.ranked[low]
        low_values = _size_values(record, low)
        divisor = _chain_divisor(m, ell)
        # r_2 + ... + r_ell, with r_j = 0 past the increment vector
        shifts = [sum(stats.first_kind_input(s)[1:ell]) for s in SIZE_STATS]
        bucket = _ranks_of_size(sizes, ell)
        images = [r // divisor for r in bucket]
        deltas: dict[tuple, list] = {}
        for r, k in zip(bucket, images):
            if low_sizes[k] != 1:
                image = tree.unrank(k, low, FULL)
                return {"n": m, "ell": ell,
                        "node": tree.unrank(r, m, FULL).to_json(),
                        "image_max_block": list(image.max_label_block())}
            pair = ids[r], low_ids[k]
            if pair not in deltas:
                a, b = pair
                deltas[pair] = [hi[a] - lo[b]
                                for hi, lo in zip(values, low_values)]
            delta = deltas[pair]
            if delta != shifts:
                i = next(i for i, d in enumerate(delta) if d != shifts[i])
                return {"n": m, "ell": ell, "stat": SIZE_STATS[i].name,
                        "node": tree.unrank(r, m, FULL).to_json(),
                        "delta": delta[i], "want": shifts[i]}
        distinct, target = set(images), set(_ranks_of_size(low_sizes, 1))
        if len(distinct) != len(bucket) or distinct != target:
            return {"n": m, "ell": ell, "bucket": len(bucket),
                    "distinct_images": len(distinct), "target": len(target)}
    return None


def _k_singleton_slice(m: int) -> Optional[dict]:
    # the partitions of the level-m nodes whose digit-derived block size
    # is 1, each evaluated once and weighted by its multiplicity
    sizes = tree.max_label_block_sizes(m)
    witness = _labelled_tie(m, sizes)
    if witness is not None:
        return witness
    record = laplace.scan_record(FULL, m)
    singletons = Counter(compress(record.ranked[m], _of_size(sizes, 1)))
    for s, value in zip(SIZE_STATS, _size_values(record, m)):
        counter: Counter = Counter()
        for i, mult in singletons.items():
            counter[value[i]] += mult
        lhs = ExactPolynomial.from_counts(counter)
        r1 = stats.first_kind_input(s)[0]
        rhs = laplace.bruteforce_transform(s, m - 1, FULL).shifted(r1).scaled(m)
        if lhs != rhs:
            return _poly_diff_witness(m, lhs, rhs, stat=s.name)
    return None


def _area_split_kernel(split: Callable[[int, int], int]):
    # split(n, parent area) is the claimed sum of the children's areas
    def kernel(n: int) -> Optional[dict]:
        record = laplace.scan_record(PAIR, n)
        wants = {i: split(n, area)
                 for i, area in record.level_values(AREA, n - 1).items()}
        area_of = record.level_values(AREA, n).__getitem__
        for r, i, kids in record.batches(n):
            child_sum = sum(map(area_of, kids))
            want = wants[i]
            if child_sum != want:
                return {"n": n,
                        "parent": tree.unrank(r, n - 1, PAIR).to_json(),
                        "child_sum": child_sum, "want": want}
        return None
    return kernel


def _forms_kernel(name_a: str, form_a: Callable[[int], Fraction],
                  name_b: str, form_b: Callable[[int], Fraction]):
    def kernel(n: int) -> Optional[dict]:
        a, b = form_a(n), form_b(n)
        if a != b:
            return {"n": n, name_a: format_rational(a),
                    name_b: format_rational(b)}
        return None
    return kernel


def _total(poly: ExactPolynomial) -> Fraction:
    return poly.derivative().evaluate(1)


def _readout_kernel(stat: Statistic, kind: str,
                    readout: Callable[[ExactPolynomial], Fraction],
                    closed, alt):
    # a readout of the enumerated transform vs two closed forms of it
    def kernel(n: int) -> Optional[dict]:
        poly = laplace.bruteforce_transform(stat, n, kind)
        got, want = readout(poly), closed(n)
        if got != want or got != alt(n):
            return {"n": n, "enumerated": format_rational(got),
                    "closed_form": format_rational(want)}
        return None
    return kernel


def _spot_kernel(stat: Statistic, kind: str, name: str,
                 readout: Callable[[ExactPolynomial], Fraction], want: tuple):
    # the frozen (mean, readout) pair of one small level
    def kernel(n: int) -> Optional[dict]:
        poly = laplace.bruteforce_transform(stat, n, kind)
        mean, got = laplace.expectation_from_laplace(poly), readout(poly)
        if (mean, got) != want:
            return {"n": n, "mean": format_rational(mean),
                    name: format_rational(got),
                    "want": [format_rational(v) for v in want]}
        return None
    return kernel


def _k_seed_resolution(n: int) -> Optional[dict]:
    # the level-3 singleton transform: brute force settles its constant
    frozen = ExactPolynomial({3: 6, 1: 5, 0: 1})
    brute = laplace.bruteforce_transform(blocks_of_size(1), 3)
    rec = laplace.recursion_transform(blocks_of_size(1), 3)
    mean = laplace.expectation_from_laplace(brute)
    if brute != frozen or rec != frozen or mean != Fraction(23, 12):
        return {"n": n, "brute": brute.to_json(), "recursion": rec.to_json(),
                "frozen": frozen.to_json(), "mean": format_rational(mean),
                "want_mean": "23/12"}
    return None


def _float_kernel(formula: str, tolerance: float):
    def kernel(n: int) -> Optional[dict]:
        report = cf.asymptotic_report(formula, n)
        if abs(report.difference) >= tolerance:
            return {"n": n, "mode": "float", "exact": report.exact,
                    "asymptote": report.asymptotic,
                    "difference": report.difference, "tolerance": tolerance}
        return None
    return kernel


def _ratio_kernel(formula: str, tolerance: float):
    def kernel(n: int) -> Optional[dict]:
        report = cf.asymptotic_report(formula, n)
        if abs(report.ratio - 1.0) > tolerance:
            return {"n": n, "mode": "float", "exact": report.exact,
                    "asymptote": report.asymptotic, "ratio": report.ratio,
                    "tolerance": tolerance}
        return None
    return kernel


def _k_area_ratio_shrinks(n: int) -> Optional[dict]:
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


def _k_triangle_frozen(n: int) -> Optional[dict]:
    want = _FROZEN_TRIANGLE[n]
    for builder in (cm.stirling_by_recursion, cm.stirling_by_closed_form,
                    cm.stirling_by_tree_count):
        got = builder(n).row(n)
        if got != want:
            return {"n": n, "builder": builder.__name__,
                    "row": list(got), "want": list(want)}
    return None


def _row_kernel(name_a: str, table_a: Callable[[int], cm.StirlingTable],
                name_b: str, table_b: Callable[[int], cm.StirlingTable]):
    def kernel(n: int) -> Optional[dict]:
        a, b = table_a(n).row(n), table_b(n).row(n)
        if a != b:
            k = next(i + 1 for i in range(n) if a[i] != b[i])
            return {"n": n, "k": k, name_a: a[k - 1], name_b: b[k - 1]}
        return None
    return kernel


def _factorial_sum_kernel(name: str, terms: Callable[[int], Iterable[int]]):
    # the terms at size n must sum to (n+1)!/2
    def kernel(n: int) -> Optional[dict]:
        total = sum(terms(n))
        want = math.factorial(n + 1) // 2
        if total != want:
            return {"n": n, name: total, "want": want}
        return None
    return kernel


def _triangle_row(n: int) -> tuple[int, ...]:
    return cm.stirling_by_recursion(n).row(n)


def _seeded_sequence(index: int, length: int) -> list[Fraction]:
    rng = random.Random(20260823 + index)
    return [Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            for _ in range(length)]


def _k_roundtrip(index: int) -> Optional[dict]:
    seq = _seeded_sequence(index, 8)
    back = cm.cumulants_from_moments(cm.moments_from_cumulants(seq))
    fwd = cm.moments_from_cumulants(cm.cumulants_from_moments(seq))
    if list(back) != seq or list(fwd) != seq:
        return {"n": index, "sequence": [format_rational(v) for v in seq]}
    return None


def _k_small_identities(n: int) -> Optional[dict]:
    # moment 3 of cumulants (2,3,5) and cumulant 3 of moments (1,2,5)
    m3 = cm.moments_from_cumulants([Fraction(2), Fraction(3), Fraction(5)])[2]
    c3 = cm.cumulants_from_moments([Fraction(1), Fraction(2), Fraction(5)])[2]
    ok = (m3 == 5 + Fraction(5, 2) * 6 + 8 and c3 == Fraction(3, 2))
    if not ok:
        return {"n": n, "moment3": format_rational(m3),
                "cumulant3": format_rational(c3)}
    return None


_POISSON_ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1))


def _poisson_kernel(triangle_moments: Callable[[Fraction, int], tuple]):
    def kernel(index: int) -> Optional[dict]:
        alpha = _POISSON_ALPHAS[index - 1]
        direct = triangle_moments(alpha, 20)
        recurred = cm.moments_from_cumulants([alpha] * 20)
        if direct != recurred:
            return {"n": index, "alpha": format_rational(alpha),
                    "triangle": [format_rational(v) for v in direct],
                    "recurrence": [format_rational(v) for v in recurred]}
        return None
    return kernel


def _k_hook_vs_filter(n: int) -> Optional[dict]:
    for blocks in reference.noncrossing_partitions(n):
        fast = cm._ordering_count_blocks(blocks)
        slow = reference.ordering_count(blocks)
        if fast != slow:
            return {"n": n, "blocks": [list(b) for b in blocks],
                    "hook": fast, "filter": slow}
    return None


def _k_ordering_ratio(n: int) -> Optional[dict]:
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
        "stirling": ("corrupt-triangle", range(1, 6), 2, _row_kernel(
            "corrupted", wrong_triangle, "tree", cm.stirling_by_tree_count)),
        "cumulants": ("corrupt-poisson", range(1, 5), 1,
                      _poisson_kernel(wrong_poisson)),
    }
    return {suite: (Check(CheckSpec(id_, f"corrupted twin {id_}"),
                          tuple(sizes), kernel), minimal)
            for suite, (id_, sizes, minimal, kernel) in twins.items()}


def _k_selftest(_: int) -> Optional[dict]:
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

    def mk(id_, desc, sizes, kernel, scans=()):
        return Check(CheckSpec(id_, desc), tuple(sizes), kernel, scans)

    return {
        "cardinality": [
            mk("count-full", "scanned full-tree level sizes equal (n+1)!/2",
               range(1, b_full + 1), _count_kernel(FULL, tree.level_count),
               scans=((FULL, b_full),)),
            mk("count-pair", "scanned pair-tree level sizes equal (2n-1)!!",
               range(1, b_pair + 1), _count_kernel(PAIR, tree.level_count),
               scans=((PAIR, b_pair),)),
            mk("scan-multiplicities",
               "scanned levels hold Catalan(n) partitions, each tallied "
               "as often as its hook-length ordering count",
               range(1, b_full + 1), _multiplicity_kernel(b_pair),
               scans=((FULL, b_full), (PAIR, b_pair))),
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
               range(1, 8), _k_stat_cross,
               scans=((FULL, 7), (PAIR, 6))),
        ],
        "thm16": [
            mk("block-count-mean", "enumerated mean block count vs closed form",
               range(2, b_full + 1),
               _mean_kernel(BLOCKS, FULL, cf.expected_block_count),
               scans=((FULL, b_full),)),
            mk("block-count-variance",
               "enumerated block-count variance vs both closed forms",
               range(2, b_full + 1), _readout_kernel(
                   BLOCKS, FULL, laplace.variance_from_laplace,
                   cf.variance_block_count, cf.variance_block_count_alt),
               scans=((FULL, b_full),)),
            mk("block-count-spot",
               "frozen level-3 mean 29/12 and variance 59/144",
               [3], _spot_kernel(BLOCKS, FULL, "variance",
                                 laplace.variance_from_laplace,
                                 (Fraction(29, 12), Fraction(59, 144))),
               scans=((FULL, 3),)),
            mk("product-form",
               "block-count transform equals t(1+2t)...(1+nt)",
               range(1, b_full + 1), _product_kernel(
                   partial(laplace.bruteforce_transform, BLOCKS)),
               scans=((FULL, b_full),)),
            mk("block-count-recursion",
               "block-count transform recursion vs enumeration",
               range(1, b_full + 1), _recursion_kernel((BLOCKS,), FULL),
               scans=((FULL, b_full),)),
            mk("variance-forms", "the two printed variance forms agree",
               range(2, 10001), _forms_kernel(
                   "direct", cf.variance_block_count,
                   "shifted", cf.variance_block_count_alt)),
            mk("mean-asymptote",
               "mean block count approaches n - ln n + 3/2 - g",
               [10000], _float_kernel("EY", 1e-3)),
            mk("variance-asymptote",
               "block-count variance approaches ln n - (pi^2/6 + 1/4 - g)",
               [10000], _float_kernel("VarY", 1e-3)),
        ],
        "thm17": [
            mk("size1-mean", "enumerated mean singleton count vs closed form",
               range(3, b_full + 1),
               _mean_kernel(blocks_of_size(1), FULL, cf.expected_size1_blocks),
               scans=((FULL, b_full),)),
            mk("size2-mean", "enumerated mean two-block count vs closed form",
               range(4, b_full + 1),
               _mean_kernel(blocks_of_size(2), FULL, cf.expected_size2_blocks),
               scans=((FULL, b_full),)),
            mk("size3plus-mean", "enumerated mean of >=3 blocks vs closed form",
               range(4, b_full + 1),
               _mean_kernel(LARGE_BLOCKS, FULL, cf.expected_size3plus_blocks),
               scans=((FULL, b_full),)),
            mk("size-decomposition",
               "closed forms: whole mean equals sum of size parts",
               range(4, 1001), _forms_kernel(
                   "whole", cf.expected_block_count, "sum_of_parts",
                   lambda n: (cf.expected_size1_blocks(n)
                              + cf.expected_size2_blocks(n)
                              + cf.expected_size3plus_blocks(n)))),
            mk("tally-recursions",
               "size-count transform recursions vs enumeration",
               range(1, b_full + 1), _recursion_kernel(SIZE_STATS[1:], FULL),
               scans=((FULL, b_full),)),
            mk("first-kind-edges",
               "block-size counts change by r_j on every full-tree edge whose "
               "child has a maximal-label block of j points",
               range(2, 9), _first_kind_kernel(SIZE_STATS),
               scans=((FULL, 8),)),
            mk("seed-resolution",
               "level-3 singleton transform settles to 6t^3 + 5t + 1",
               [3], _k_seed_resolution,
               scans=((FULL, 3),)),
            mk("size3-limit", "telescoped three-block mean approaches 23/90",
               [1000], _float_kernel("EY3", 1e-2)),
        ],
        "lemmas": [
            mk("parent-chain-bijection",
               "iterated parents biject big-max-block slices onto singleton "
               "slices with the padded value shift",
               range(2, 9), _k_parent_chain,
               scans=((FULL, 8),)),
            mk("singleton-slice",
               "singleton-max-block slice transform equals m t^r1 times the "
               "previous level",
               range(2, 9), _k_singleton_slice,
               scans=((FULL, 8),)),
            mk("area-child-split",
               "pair children areas sum to (2n-1) + (2n+1) parent area",
               range(2, 8), _area_split_kernel(
                   lambda n, area: (2 * n - 1) + (2 * n + 1) * area),
               scans=((PAIR, 7),)),
        ],
        "thm110": [
            mk("outer-full-mean", "enumerated mean outer count vs (2n+1)/3",
               range(1, b_outer + 1),
               _mean_kernel(OUTER, FULL, cf.expected_outer_blocks),
               scans=((FULL, b_outer),)),
            mk("outer-full-recursion",
               "outer-count transform recursion vs enumeration (full tree)",
               range(1, b_outer + 1), _recursion_kernel((OUTER,), FULL),
               scans=((FULL, b_outer),)),
            mk("outer-full-subsets",
               "outer-count insertion law clauses on every full-tree parent",
               range(2, b_outer + 1), _subset_kernel(OUTER, FULL),
               scans=((FULL, b_outer),)),
            mk("interval-pair-mean",
               "enumerated mean interval-pair count vs (2n+1)/3",
               range(1, b_pair + 1),
               _mean_kernel(INTERVAL_PAIRS, PAIR, cf.expected_interval_pairs),
               scans=((PAIR, b_pair),)),
            mk("interval-pair-recursion",
               "interval-pair transform recursion vs enumeration",
               range(1, b_pair + 1),
               _recursion_kernel((INTERVAL_PAIRS,), PAIR),
               scans=((PAIR, b_pair),)),
            mk("interval-pair-subsets",
               "interval-pair insertion law clauses on every pair-tree parent",
               range(2, b_pair + 1), _subset_kernel(INTERVAL_PAIRS, PAIR),
               scans=((PAIR, b_pair),)),
            mk("outer-pair-mean",
               "enumerated mean outer count vs 2^n n!/(2n-1)!! - 1",
               range(1, b_pair + 1),
               _mean_kernel(OUTER, PAIR, cf.expected_outer_pairs),
               scans=((PAIR, b_pair),)),
            mk("outer-pair-recursion",
               "outer-count transform recursion vs enumeration (pair tree)",
               range(1, b_pair + 1), _recursion_kernel((OUTER,), PAIR),
               scans=((PAIR, b_pair),)),
            mk("outer-pair-subsets",
               "outer-count insertion law clauses on every pair-tree parent",
               range(2, b_pair + 1), _subset_kernel(OUTER, PAIR),
               scans=((PAIR, b_pair),)),
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
               [10000], _ratio_kernel("EOutPair", 0.01)),
        ],
        "thm111": [
            mk("area-mean",
               "enumerated mean area vs (2n+1) sum 1/(2k+1)",
               range(1, b_pair + 1),
               _mean_kernel(AREA, PAIR, cf.expected_area),
               scans=((PAIR, b_pair),)),
            mk("area-total", "summed area vs (2n+1)!! partial odd harmonic",
               range(1, b_pair + 1), _readout_kernel(
                   AREA, PAIR, _total, cf.total_area,
                   lambda n: cf.expected_area(n) * cf.double_factorial_odd(n)),
               scans=((PAIR, b_pair),)),
            mk("area-spot", "frozen pair level 2: mean 8/3, total 8",
               [2], _spot_kernel(AREA, PAIR, "total", _total,
                                 (Fraction(8, 3), 8)),
               scans=((PAIR, 2),)),
            mk("area-asymptote",
               "mean area over n log n enters [0.9, 1.1] and tightens",
               [10 ** 6], _k_area_ratio_shrinks),
        ],
        "stirling": [
            mk("triangle-frozen", "ordered-count triangle rows 1..6 are frozen",
               range(1, 7), _k_triangle_frozen),
            mk("triangle-tree-recursion",
               "triangle from enumeration vs recursion",
               range(1, 10), _row_kernel(
                   "tree", cm.stirling_by_tree_count,
                   "recursion", cm.stirling_by_recursion),
               scans=((FULL, 9),)),
            mk("triangle-recursion-closed",
               "triangle recursion vs increasing-products closed form",
               range(1, 21), _row_kernel(
                   "closed_form", cm.stirling_by_closed_form,
                   "recursion", cm.stirling_by_recursion)),
            mk("triangle-row-sums", "triangle rows sum to (n+1)!/2",
               range(1, 21), _factorial_sum_kernel("row_sum", _triangle_row)),
            mk("triangle-poly-identity",
               "triangle generating polynomial equals t(1+2t)...(1+nt)",
               range(1, 10), _product_kernel(
                   lambda n: ExactPolynomial(
                       dict(enumerate(_triangle_row(n), 1))))),
        ],
        "cumulants": [
            mk("roundtrip-random",
               "seeded random sequences round-trip moments <-> cumulants",
               range(1, 101), _k_roundtrip),
            mk("small-identities", "frozen order-3 moment/cumulant identities",
               [3], _k_small_identities),
            mk("poisson-constant",
               "triangle moments equal constant-cumulant moments to order 20",
               range(1, 5), _poisson_kernel(cm.poisson_moments)),
            mk("hook-vs-filter",
               "forest hook-length ordering count vs permutation filter",
               range(1, 9), _k_hook_vs_filter),
            mk("ordering-ratio",
               "ordering count <= k! with equality iff interval partition",
               range(1, 9), _k_ordering_ratio),
            mk("ordering-sum", "ordering counts over NC(n) sum to (n+1)!/2",
               range(1, 10), _factorial_sum_kernel("sum", lambda n: map(
                   cm._ordering_count_blocks, reference.noncrossing_partitions(n)))),
            mk("moments-partition-sum",
               "semigroup-recurrence moment n equals the weighted NC(n) sum",
               range(1, 9), _forms_kernel(
                   "recurrence",
                   lambda n: cm.moments_from_cumulants(_seeded_sequence(n, n))[-1],
                   "partition_sum",
                   lambda n: reference.moments_by_partition_sum(
                       _seeded_sequence(n, n))[-1])),
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
