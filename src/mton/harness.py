"""Verification suites over the whole library, with minimizable reports.

Each check owns a kernel run over an ascending size range; the first
failing size yields a witness dictionary and the run stops.  Because
kernels scan sizes (and ranks within a size) in increasing order, the
reported witness is already minimal, and counterexample_minimize simply
re-derives it from scratch.

Exact values inside witnesses are serialized as integer or "p/q"
strings; only checks in float mode carry floats, and they say so.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from . import closed_forms as cf
from . import cumulants as cm
from . import laplace, reference, stats, tree
from .polynomials import ExactPolynomial, format_rational
from .stats import (AREA, BLOCKS, INTERVAL_PAIRS, LARGE_BLOCKS, OUTER,
                    Statistic, blocks_of_size, evaluate)
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
    status: str  # pass | fail
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

    def run(self) -> CheckReport:
        start = time.perf_counter()
        for n in self.sizes:
            witness = self.kernel(n)
            if witness is not None:
                return CheckReport(self.spec.id, "fail", witness,
                                   time.perf_counter() - start)
        return CheckReport(self.spec.id, "pass", None,
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
# kernel helpers

_SIX = (BLOCKS, blocks_of_size(1), blocks_of_size(2), blocks_of_size(3),
        blocks_of_size(4), LARGE_BLOCKS)


def _frac(v) -> str:
    return format_rational(v)


def _poly_diff_witness(n: int, got: ExactPolynomial,
                       want: ExactPolynomial) -> dict:
    exps = sorted(set(dict(got.items())) | set(dict(want.items())))
    bad = next(e for e in exps if got.coefficient(e) != want.coefficient(e))
    return {"n": n, "exponent": bad,
            "got": _frac(got.coefficient(bad)),
            "want": _frac(want.coefficient(bad))}


def _mean_kernel(stat: Statistic, kind: str, closed, workers: int):
    def kernel(n: int) -> Optional[dict]:
        poly = laplace.bruteforce_transform(stat, n, kind, workers=workers)
        brute = laplace.expectation_from_laplace(poly)
        want = closed(n)
        if brute != want:
            return {"n": n, "stat": stat.name, "enumerated": _frac(brute),
                    "closed_form": _frac(want)}
        return None
    return kernel


def _recursion_kernel(stat: Statistic, kind: str, workers: int):
    def kernel(n: int) -> Optional[dict]:
        brute = laplace.bruteforce_transform(stat, n, kind, workers=workers)
        rec = laplace.recursion_transform(stat, n, kind)
        if brute != rec:
            w = _poly_diff_witness(n, rec, brute)
            w["stat"] = stat.name
            return w
        return None
    return kernel


def _subset_kernel(stat: Statistic, kind: str):
    law = stats.second_kind_input(stat, kind)
    return lambda n: stats.second_kind_witness(stat, kind, n, law)


def _mean_step_kernel(stat: Statistic, kind: str, closed):
    law = stats.second_kind_input(stat, kind)

    def kernel(n: int) -> Optional[dict]:
        stepped = cf.expectation_recursion_step(law, closed(n - 1), n, kind)
        want = closed(n)
        if stepped != want:
            return {"n": n, "stat": stat.name, "stepped": _frac(stepped),
                    "closed_form": _frac(want)}
        return None
    return kernel


def _product_form(n: int) -> ExactPolynomial:
    poly = ExactPolynomial.monomial(1)
    for j in range(2, n + 1):
        poly = poly * ExactPolynomial({0: 1, 1: j})
    return poly


# ---------------------------------------------------------------------------
# kernels with bigger bodies

def _count_kernel(kind: str):
    # the walk terminates on digit exhaustion, never on the formula, and
    # a stride of ranks is recomputed through encode() as a spot check
    # that positions agree with the rank bijection
    def kernel(n: int) -> Optional[dict]:
        count = 0
        for idx, op in enumerate(tree.stream_level(n, kind)):
            if idx % 1009 == 0 and tree.rank_of(op, kind) != idx:
                return {"n": n, "position": idx,
                        "rank": tree.rank_of(op, kind)}
            count += 1
        want = tree.level_count(n, kind)
        if count != want:
            return {"n": n, "streamed": count, "formula": want}
        return None
    return kernel


def _k_enum_cross(n: int) -> Optional[dict]:
    walked = {op.blocks_by_label for op in tree.iter_level(n, FULL)}
    filtered = reference.ordered_partitions_by_filter(n)
    if walked != filtered:
        missing = [list(map(list, b)) for b in list(filtered - walked)[:3]]
        extra = [list(map(list, b)) for b in list(walked - filtered)[:3]]
        return {"n": n, "walked": len(walked), "filtered": len(filtered),
                "missing_sample": missing, "extra_sample": extra}
    return None


def _padded_shift(stat: Statistic, ell: int) -> int:
    r = stats.first_kind_input(stat)
    return sum(r[j] for j in range(1, ell) if j < len(r))


def _k_parent_chain(m: int) -> Optional[dict]:
    ells = [ell for ell in (2, 3, 4) if ell <= m]
    buckets: dict[int, list] = {ell: [] for ell in ells}
    for op in tree.iter_level(m, FULL):
        size_j = len(op.max_label_block())
        if size_j in buckets:
            buckets[size_j].append(op)
    for ell in ells:
        target_level = m - ell + 1
        target = {op.blocks_by_label for op in tree.iter_level(target_level, FULL)
                  if len(op.max_label_block()) == 1}
        shifts = {s: _padded_shift(s, ell) for s in _SIX}
        images = set()
        for op in buckets[ell]:
            cur = op
            for _ in range(ell - 1):
                cur = tree.parent(cur)
            if len(cur.max_label_block()) != 1:
                return {"n": m, "ell": ell, "node": op.to_json(),
                        "image_max_block": list(cur.max_label_block())}
            images.add(cur.blocks_by_label)
            for s in _SIX:
                delta = evaluate(s, op) - evaluate(s, cur)
                if delta != shifts[s]:
                    return {"n": m, "ell": ell, "stat": s.name,
                            "node": op.to_json(), "delta": delta,
                            "want": shifts[s]}
        if len(images) != len(buckets[ell]) or images != target:
            return {"n": m, "ell": ell, "bucket": len(buckets[ell]),
                    "distinct_images": len(images), "target": len(target)}
    return None


def _k_singleton_slice(m: int) -> Optional[dict]:
    counters: dict[Statistic, Counter] = {s: Counter() for s in _SIX}
    for op in tree.iter_level(m, FULL):
        if len(op.max_label_block()) == 1:
            for s in _SIX:
                counters[s][evaluate(s, op)] += 1
    for s in _SIX:
        lhs = ExactPolynomial.from_counts(counters[s])
        r1 = stats.first_kind_input(s)[0]
        rhs = laplace.bruteforce_transform(s, m - 1, FULL).shifted(r1).scaled(m)
        if lhs != rhs:
            w = _poly_diff_witness(m, lhs, rhs)
            w["stat"] = s.name
            return w
    return None


def _k_area_split(n: int) -> Optional[dict]:
    for parent_op in tree.iter_level(n - 1, PAIR):
        parent_area = evaluate(AREA, parent_op)
        child_sum = sum(evaluate(AREA, c) for c in tree.pair_children(parent_op))
        want = (2 * n - 1) + (2 * n + 1) * parent_area
        if child_sum != want:
            return {"n": n, "parent": parent_op.to_json(),
                    "child_sum": child_sum, "want": want}
    return None


def _k_variance_forms(n: int) -> Optional[dict]:
    a = cf.variance_block_count(n)
    b = cf.variance_block_count_alt(n)
    if a != b:
        return {"n": n, "direct": _frac(a), "shifted": _frac(b)}
    return None


def _k_block_variance(workers: int):
    def kernel(n: int) -> Optional[dict]:
        poly = laplace.bruteforce_transform(BLOCKS, n, workers=workers)
        brute = laplace.variance_from_laplace(poly)
        want = cf.variance_block_count(n)
        if brute != want or brute != cf.variance_block_count_alt(n):
            return {"n": n, "enumerated": _frac(brute),
                    "closed_form": _frac(want)}
        return None
    return kernel


def _k_spot_block(n: int) -> Optional[dict]:
    poly = laplace.bruteforce_transform(BLOCKS, n)
    mean = laplace.expectation_from_laplace(poly)
    var = laplace.variance_from_laplace(poly)
    if (mean, var) != (Fraction(29, 12), Fraction(59, 144)):
        return {"n": n, "mean": _frac(mean), "variance": _frac(var),
                "want": ["29/12", "59/144"]}
    return None


def _k_product_form(workers: int):
    def kernel(n: int) -> Optional[dict]:
        brute = laplace.bruteforce_transform(BLOCKS, n, workers=workers)
        want = _product_form(n)
        if brute != want:
            return _poly_diff_witness(n, brute, want)
        return None
    return kernel


def _k_size_decomposition(n: int) -> Optional[dict]:
    lhs = cf.expected_block_count(n)
    rhs = (cf.expected_size1_blocks(n) + cf.expected_size2_blocks(n)
           + cf.expected_size3plus_blocks(n))
    if lhs != rhs:
        return {"n": n, "whole": _frac(lhs), "sum_of_parts": _frac(rhs)}
    return None


def _k_tally_recursions(workers: int):
    stats_list = (blocks_of_size(1), blocks_of_size(2), blocks_of_size(3),
                  blocks_of_size(4), LARGE_BLOCKS)

    def kernel(n: int) -> Optional[dict]:
        for s in stats_list:
            brute = laplace.bruteforce_transform(s, n, workers=workers)
            rec = laplace.recursion_transform(s, n)
            if brute != rec:
                w = _poly_diff_witness(n, rec, brute)
                w["stat"] = s.name
                return w
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
                "frozen": frozen.to_json(), "mean": _frac(mean),
                "want_mean": "23/12"}
    return None


def _k_area_total(workers: int):
    def kernel(n: int) -> Optional[dict]:
        poly = laplace.bruteforce_transform(AREA, n, PAIR, workers=workers)
        summed = poly.derivative().evaluate(1)
        want = cf.total_area(n)
        alt = cf.expected_area(n) * cf.double_factorial_odd(n)
        if summed != want or summed != alt:
            return {"n": n, "enumerated": _frac(summed),
                    "closed_form": _frac(want)}
        return None
    return kernel


def _k_area_spot(n: int) -> Optional[dict]:
    poly = laplace.bruteforce_transform(AREA, n, PAIR)
    mean = laplace.expectation_from_laplace(poly)
    total = poly.derivative().evaluate(1)
    if (mean, total) != (Fraction(8, 3), 8):
        return {"n": n, "mean": _frac(mean), "total": _frac(total),
                "want": ["8/3", "8"]}
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


def _k_triangle_tree(workers: int):
    def kernel(n: int) -> Optional[dict]:
        a = cm.stirling_by_tree_count(n, workers=workers).row(n)
        b = cm.stirling_by_recursion(n).row(n)
        if a != b:
            k = next(i + 1 for i in range(n) if a[i] != b[i])
            return {"n": n, "k": k, "tree": a[k - 1], "recursion": b[k - 1]}
        return None
    return kernel


def _k_triangle_closed(n: int) -> Optional[dict]:
    a = cm.stirling_by_closed_form(n).row(n)
    b = cm.stirling_by_recursion(n).row(n)
    if a != b:
        k = next(i + 1 for i in range(n) if a[i] != b[i])
        return {"n": n, "k": k, "closed_form": a[k - 1], "recursion": b[k - 1]}
    return None


def _k_triangle_row_sum(n: int) -> Optional[dict]:
    total = sum(cm.stirling_by_recursion(n).row(n))
    want = math.factorial(n + 1) // 2
    if total != want:
        return {"n": n, "row_sum": total, "want": want}
    return None


def _k_triangle_poly(n: int) -> Optional[dict]:
    row = cm.stirling_by_recursion(n).row(n)
    poly = ExactPolynomial({k: row[k - 1] for k in range(1, n + 1)})
    want = _product_form(n)
    if poly != want:
        return _poly_diff_witness(n, poly, want)
    return None


def _k_roundtrip(index: int) -> Optional[dict]:
    import random
    rng = random.Random(20260823 + index)
    seq = [Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(8)]
    back = cm.cumulants_from_moments(cm.moments_from_cumulants(seq))
    fwd = cm.moments_from_cumulants(cm.cumulants_from_moments(seq))
    if list(back) != seq or list(fwd) != seq:
        return {"n": index, "sequence": [_frac(v) for v in seq]}
    return None


def _k_small_identities(n: int) -> Optional[dict]:
    # moment 3 of cumulants (2,3,5) and cumulant 3 of moments (1,2,5)
    m3 = cm.moments_from_cumulants([Fraction(2), Fraction(3), Fraction(5)])[2]
    c3 = cm.cumulants_from_moments([Fraction(1), Fraction(2), Fraction(5)])[2]
    ok = (m3 == 5 + Fraction(5, 2) * 6 + 8 and c3 == Fraction(3, 2))
    if not ok:
        return {"n": n, "moment3": _frac(m3), "cumulant3": _frac(c3)}
    return None


_POISSON_ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1))


def _k_poisson_constant(index: int) -> Optional[dict]:
    alpha = _POISSON_ALPHAS[index - 1]
    direct = cm.poisson_moments(alpha, 8)
    viaset = cm.moments_from_cumulants([alpha] * 8)
    if direct != viaset:
        return {"n": index, "alpha": _frac(alpha),
                "triangle": [_frac(v) for v in direct],
                "partition_sum": [_frac(v) for v in viaset]}
    return None


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


def _k_ordering_sum(n: int) -> Optional[dict]:
    total = sum(cm._ordering_count_blocks(b)
                for b in reference.noncrossing_partitions(n))
    want = math.factorial(n + 1) // 2
    if total != want:
        return {"n": n, "sum": total, "want": want}
    return None


# ---------------------------------------------------------------------------
# registry

def build_checks(deep: bool = False, workers: int = 1) -> dict[str, Check]:
    b_full = 10 if deep else 9
    b_pair = 8 if deep else 7
    b_outer = 9 if deep else 8

    def mk(id_, desc, sizes, kernel):
        return Check(CheckSpec(id_, desc), tuple(sizes), kernel)

    checks = [
        mk("count-full", "streamed full-tree level sizes equal (n+1)!/2",
           range(1, b_full + 1), _count_kernel(FULL)),
        mk("count-pair", "streamed pair-tree level sizes equal (2n-1)!!",
           range(1, b_pair + 1), _count_kernel(PAIR)),
        mk("enum-cross-check",
           "tree enumeration equals the permutation-filter construction",
           range(1, 8), _k_enum_cross),

        mk("block-count-mean", "enumerated mean block count vs closed form",
           range(2, b_full + 1),
           _mean_kernel(BLOCKS, FULL, cf.expected_block_count, workers)),
        mk("block-count-variance",
           "enumerated block-count variance vs both closed forms",
           range(2, b_full + 1), _k_block_variance(workers)),
        mk("block-count-spot", "frozen level-3 mean 29/12 and variance 59/144",
           [3], _k_spot_block),
        mk("product-form",
           "block-count transform equals t(1+2t)...(1+nt)",
           range(1, b_full + 1), _k_product_form(workers)),
        mk("block-count-recursion",
           "block-count transform recursion vs enumeration",
           range(1, b_full + 1), _recursion_kernel(BLOCKS, FULL, workers)),
        mk("variance-forms", "the two printed variance forms agree",
           range(2, 10001), _k_variance_forms),
        mk("mean-asymptote", "mean block count approaches n - ln n + 3/2 - g",
           [10000], _float_kernel("EY", 1e-3)),
        mk("variance-asymptote",
           "block-count variance approaches ln n - (pi^2/6 + 1/4 - g)",
           [10000], _float_kernel("VarY", 1e-3)),

        mk("size1-mean", "enumerated mean singleton count vs closed form",
           range(3, b_full + 1),
           _mean_kernel(blocks_of_size(1), FULL, cf.expected_size1_blocks,
                        workers)),
        mk("size2-mean", "enumerated mean two-block count vs closed form",
           range(4, b_full + 1),
           _mean_kernel(blocks_of_size(2), FULL, cf.expected_size2_blocks,
                        workers)),
        mk("size3plus-mean", "enumerated mean of >=3 blocks vs closed form",
           range(4, b_full + 1),
           _mean_kernel(LARGE_BLOCKS, FULL, cf.expected_size3plus_blocks,
                        workers)),
        mk("size-decomposition",
           "closed forms: whole mean equals sum of size parts",
           range(4, 1001), _k_size_decomposition),
        mk("tally-recursions",
           "size-count transform recursions vs enumeration",
           range(1, b_full + 1), _k_tally_recursions(workers)),
        mk("seed-resolution",
           "level-3 singleton transform settles to 6t^3 + 5t + 1",
           [3], _k_seed_resolution),
        mk("size3-limit", "telescoped three-block mean approaches 23/90",
           [1000], _float_kernel("EY3", 1e-2)),

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
           range(2, 8), _k_area_split),

        mk("outer-full-mean", "enumerated mean outer count vs (2n+1)/3",
           range(1, b_outer + 1),
           _mean_kernel(OUTER, FULL, cf.expected_outer_blocks, workers)),
        mk("outer-full-recursion",
           "outer-count transform recursion vs enumeration (full tree)",
           range(1, b_outer + 1), _recursion_kernel(OUTER, FULL, workers)),
        mk("outer-full-subsets",
           "outer-count insertion law clauses on every full-tree parent",
           range(2, b_outer + 1), _subset_kernel(OUTER, FULL)),
        mk("interval-pair-mean",
           "enumerated mean interval-pair count vs (2n+1)/3",
           range(1, b_pair + 1),
           _mean_kernel(INTERVAL_PAIRS, PAIR, cf.expected_interval_pairs,
                        workers)),
        mk("interval-pair-recursion",
           "interval-pair transform recursion vs enumeration",
           range(1, b_pair + 1),
           _recursion_kernel(INTERVAL_PAIRS, PAIR, workers)),
        mk("interval-pair-subsets",
           "interval-pair insertion law clauses on every pair-tree parent",
           range(2, b_pair + 1), _subset_kernel(INTERVAL_PAIRS, PAIR)),
        mk("outer-pair-mean",
           "enumerated mean outer count vs 2^n n!/(2n-1)!! - 1",
           range(1, b_pair + 1),
           _mean_kernel(OUTER, PAIR, cf.expected_outer_pairs, workers)),
        mk("outer-pair-recursion",
           "outer-count transform recursion vs enumeration (pair tree)",
           range(1, b_pair + 1), _recursion_kernel(OUTER, PAIR, workers)),
        mk("outer-pair-subsets",
           "outer-count insertion law clauses on every pair-tree parent",
           range(2, b_pair + 1), _subset_kernel(OUTER, PAIR)),
        mk("outer-full-mean-recursion",
           "stepped outer mean reproduces (2n+1)/3",
           range(2, 1001),
           _mean_step_kernel(OUTER, FULL, cf.expected_outer_blocks)),
        mk("interval-mean-recursion",
           "stepped interval-pair mean reproduces (2n+1)/3",
           range(2, 1001),
           _mean_step_kernel(INTERVAL_PAIRS, PAIR, cf.expected_interval_pairs)),
        mk("outer-pair-mean-recursion",
           "stepped pair-tree outer mean reproduces 2^n n!/(2n-1)!! - 1",
           range(2, 1001),
           _mean_step_kernel(OUTER, PAIR, cf.expected_outer_pairs)),
        mk("outer-pair-asymptote", "pair-tree outer mean approaches sqrt(pi n)",
           [10000], _ratio_kernel("EOutPair", 0.01)),

        mk("area-mean",
           "enumerated mean area vs (2n+1) sum 1/(2k+1)",
           range(1, b_pair + 1),
           _mean_kernel(AREA, PAIR, cf.expected_area, workers)),
        mk("area-total", "summed area vs (2n+1)!! partial odd harmonic",
           range(1, b_pair + 1), _k_area_total(workers)),
        mk("area-spot", "frozen pair level 2: mean 8/3, total 8",
           [2], _k_area_spot),
        mk("area-asymptote",
           "mean area over n log n enters [0.9, 1.1] and tightens",
           [10 ** 6], _k_area_ratio_shrinks),

        mk("triangle-frozen", "ordered-count triangle rows 1..6 are frozen",
           range(1, 7), _k_triangle_frozen),
        mk("triangle-tree-recursion",
           "triangle from enumeration vs recursion",
           range(1, 10), _k_triangle_tree(workers)),
        mk("triangle-recursion-closed",
           "triangle recursion vs increasing-products closed form",
           range(1, 21), _k_triangle_closed),
        mk("triangle-row-sums", "triangle rows sum to (n+1)!/2",
           range(1, 21), _k_triangle_row_sum),
        mk("triangle-poly-identity",
           "triangle generating polynomial equals t(1+2t)...(1+nt)",
           range(1, 10), _k_triangle_poly),

        mk("roundtrip-random",
           "seeded random sequences round-trip moments <-> cumulants",
           range(1, 101), _k_roundtrip),
        mk("small-identities", "frozen order-3 moment/cumulant identities",
           [3], _k_small_identities),
        mk("poisson-constant",
           "triangle moments equal constant-cumulant moments to order 8",
           range(1, 5), _k_poisson_constant),
        mk("hook-vs-filter",
           "forest hook-length ordering count vs permutation filter",
           range(1, 9), _k_hook_vs_filter),
        mk("ordering-ratio",
           "ordering count <= k! with equality iff interval partition",
           range(1, 9), _k_ordering_ratio),
        mk("ordering-sum", "ordering counts over NC(n) sum to (n+1)!/2",
           range(1, 10), _k_ordering_sum),

        mk("harness-selftest",
           "every suite's corrupted twin fails and minimizes",
           [0], _k_selftest),
    ]
    return {c.spec.id: c for c in checks}


SUITES: dict[str, tuple[str, ...]] = {
    "cardinality": ("count-full", "count-pair", "enum-cross-check"),
    "thm16": ("block-count-mean", "block-count-variance", "block-count-spot",
              "product-form", "block-count-recursion", "variance-forms",
              "mean-asymptote", "variance-asymptote"),
    "thm17": ("size1-mean", "size2-mean", "size3plus-mean",
              "size-decomposition", "tally-recursions", "seed-resolution",
              "size3-limit"),
    "lemmas": ("parent-chain-bijection", "singleton-slice", "area-child-split"),
    "thm110": ("outer-full-mean", "outer-full-recursion", "outer-full-subsets",
               "interval-pair-mean", "interval-pair-recursion",
               "interval-pair-subsets", "outer-pair-mean",
               "outer-pair-recursion", "outer-pair-subsets",
               "outer-full-mean-recursion", "interval-mean-recursion",
               "outer-pair-mean-recursion", "outer-pair-asymptote"),
    "thm111": ("area-mean", "area-total", "area-spot", "area-asymptote"),
    "stirling": ("triangle-frozen", "triangle-tree-recursion",
                 "triangle-recursion-closed", "triangle-row-sums",
                 "triangle-poly-identity"),
    "cumulants": ("roundtrip-random", "small-identities", "poisson-constant",
                  "hook-vs-filter", "ordering-ratio", "ordering-sum"),
    "selftest": ("harness-selftest",),
}


def suite_names() -> list[str]:
    return ["all"] + list(SUITES)


def run_suite(name: str, deep: bool = False, workers: int = 1) -> list[CheckReport]:
    checks = build_checks(deep, workers)
    if name == "all":
        ids = [i for ids in SUITES.values() for i in ids]
    elif name in SUITES:
        ids = list(SUITES[name])
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    return run_checks([checks[i] for i in ids])


# ---------------------------------------------------------------------------
# deliberately corrupted twins, exercised by the self-test

def corrupted_checks() -> dict[str, tuple[Check, int]]:
    """One broken formula per suite, with its minimal failing size."""

    def k_card(n):
        got = sum(1 for _ in tree.iter_level(n, FULL))
        want = math.factorial(n + 1) // 2 + 1  # off by one
        return None if got == want else {"n": n, "streamed": got, "formula": want}

    def k_mean(n):
        # harmonic index off by one
        wrong = n - cf.harmonic(n - 1) + Fraction(3, 2) - Fraction(1, n + 1)
        brute = laplace.expectation_from_laplace(
            laplace.bruteforce_transform(BLOCKS, n))
        return (None if brute == wrong
                else {"n": n, "enumerated": _frac(brute), "closed_form": _frac(wrong)})

    def k_product(n):
        # factors shifted by one
        wrong = ExactPolynomial.monomial(1)
        for j in range(2, n + 1):
            wrong = wrong * ExactPolynomial({0: 1, 1: j + 1})
        brute = laplace.bruteforce_transform(BLOCKS, n)
        return None if brute == wrong else _poly_diff_witness(n, brute, wrong)

    def k_size1(n):
        wrong = n - 3 * cf.harmonic(n) + Fraction(10, 3) - Fraction(3, n + 1)
        brute = laplace.expectation_from_laplace(
            laplace.bruteforce_transform(blocks_of_size(1), n))
        return (None if brute == wrong
                else {"n": n, "enumerated": _frac(brute), "closed_form": _frac(wrong)})

    def k_split(n):
        for parent_op in tree.iter_level(n - 1, PAIR):
            child_sum = sum(evaluate(AREA, c)
                            for c in tree.pair_children(parent_op))
            wrong = 2 * n + (2 * n + 1) * evaluate(AREA, parent_op)
            if child_sum != wrong:
                return {"n": n, "child_sum": child_sum, "want": wrong}
        return None

    def k_outer(n):
        brute = laplace.expectation_from_laplace(
            laplace.bruteforce_transform(OUTER, n))
        wrong = Fraction(2 * n + 2, 3)
        return (None if brute == wrong
                else {"n": n, "enumerated": _frac(brute), "closed_form": _frac(wrong)})

    def k_area(n):
        brute = laplace.expectation_from_laplace(
            laplace.bruteforce_transform(AREA, n, PAIR))
        wrong = (2 * n + 1) * sum(Fraction(1, 2 * k - 1) for k in range(1, n + 1))
        return (None if brute == wrong
                else {"n": n, "enumerated": _frac(brute), "closed_form": _frac(wrong)})

    def k_triangle(n):
        rows = [(1,)]
        for m in range(2, n + 1):
            prev = rows[-1]
            rows.append(tuple(
                (prev[k - 1] if k <= len(prev) else 0)
                + (m + 1) * (prev[k - 2] if 2 <= k <= len(prev) + 1 else 0)
                for k in range(1, m + 1)))
        got = rows[-1]
        want = cm.stirling_by_tree_count(n).row(n)
        if got != want:
            k = next(i + 1 for i in range(n) if got[i] != want[i])
            return {"n": n, "k": k, "corrupted": got[k - 1], "tree": want[k - 1]}
        return None

    def k_poisson(n):
        table = cm.stirling_by_recursion(n)
        wrong = sum(table.value(n, k) * Fraction(1) ** k / math.factorial(k + 1)
                    for k in range(1, n + 1))
        want = cm.poisson_moments(1, n)[n - 1]
        return (None if wrong == want
                else {"n": n, "corrupted": _frac(wrong), "triangle": _frac(want)})

    def twin(id_, sizes, kernel):
        return Check(CheckSpec(id_, f"corrupted twin {id_}"), tuple(sizes),
                     kernel)

    return {
        "cardinality": (twin("corrupt-count", range(1, 5), k_card), 1),
        "thm16": (twin("corrupt-mean", range(2, 6), k_mean), 2),
        "thm17": (twin("corrupt-size1", range(3, 7), k_size1), 3),
        "lemmas": (twin("corrupt-split", range(2, 6), k_split), 2),
        "thm110": (twin("corrupt-outer", range(1, 6), k_outer), 1),
        "thm111": (twin("corrupt-area", range(1, 6), k_area), 1),
        "stirling": (twin("corrupt-triangle", range(1, 6), k_triangle), 2),
        "cumulants": (twin("corrupt-poisson", range(1, 6), k_poisson), 1),
    }


def _k_selftest(_: int) -> Optional[dict]:
    for suite, (check, minimal) in corrupted_checks().items():
        report = check.run()
        if report.status != "fail":
            return {"suite": suite, "check": check.spec.id,
                    "problem": "corrupted formula not caught"}
        try:
            minimized = counterexample_minimize(report, {check.spec.id: check})
        except NotMinimizable:
            return {"suite": suite, "check": check.spec.id,
                    "problem": "failure not minimizable"}
        if minimized.witness is None or minimized.witness.get("n") != minimal:
            return {"suite": suite, "check": check.spec.id,
                    "problem": f"minimal witness not n={minimal}",
                    "witness": minimized.witness}
    return None


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
