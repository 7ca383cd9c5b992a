"""Generating polynomials of block statistics over the two trees.

For a statistic Z the level-n transform is sum of t**Z(pi,u) over all
ordered partitions at depth n.  Brute force computes it by a single
depth-first scan that tallies every node of the walk (so one scan to
depth N yields the transforms of every statistic at every level <= N).
The recursions rebuild the same polynomials from small seeds through the
certified transition laws; agreement between the two routes is what the
verification suites check.

The scan never consults the counting formula: the walk stops when every
digit is exhausted, so its per-level totals are independent evidence for
:func:`tree.level_count`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from . import tree
from .partitions import _span_sweep
from .polynomials import ExactPolynomial, NegativeExponent
from .stats import (AreaRequiresPairPartition, SecondKindInput, Statistic,
                    first_kind_input, second_kind_input)
from .tree import FULL, _walk

DEFAULT_MAX_FULL = 10
DEFAULT_MAX_PAIR = 8


class SizeBoundExceeded(ValueError):
    """Refusing an enumeration larger than the configured guard."""


class InsufficientSeed(ValueError):
    """The recursion needs more seed polynomials than were given."""


class ZeroPolynomial(ValueError):
    """Expectation of an empty distribution."""


# ---------------------------------------------------------------------------
# brute-force scan

def _full_key(blocks):
    outer, ints, _ = _span_sweep(blocks)
    return (tuple(sorted(map(len, blocks))), len(outer), ints)


def _pair_key(blocks):
    outer, ints, area = _span_sweep(blocks)
    return (len(outer), ints, area)


def scan_chunk(kind: str, depth: int) -> dict[int, Counter]:
    """Tally composite statistic keys for every walk node down to depth,
    keyed by level: each node is tallied once, at its leftmost leaf."""
    key_of = _full_key if kind == FULL else _pair_key
    hist: dict[int, Counter] = {level: Counter() for level in range(1, depth + 1)}
    tallies = list(hist.values())
    path: list = []
    for fresh in _walk(path, depth, kind):
        for i in range(fresh, depth):
            tallies[i][key_of(path[i])] += 1
    return hist


_scan_cache: dict[str, tuple[int, dict[int, Counter]]] = {}


def level_histograms(kind: str, depth: int) -> dict[int, Counter]:
    """Composite-key histograms for every level <= depth, cached per kind."""
    if depth < 1:  # a warm cache would otherwise answer with no levels
        raise ValueError(f"depth must be >= 1, got {depth}")
    cached = _scan_cache.get(kind)
    if cached and cached[0] >= depth:
        return {level: cached[1][level] for level in range(1, depth + 1)}
    hist = scan_chunk(kind, depth)
    _scan_cache[kind] = (depth, hist)
    return hist


def clear_scan_cache() -> None:
    _scan_cache.clear()


def _stat_from_key(stat: Statistic, kind: str, level: int, key) -> int:
    if kind == FULL:
        sizes, out, ints = key
        if stat.family == "blocks":
            return len(sizes)
        if stat.family == "blocks_of_size":
            return sizes.count(stat.size)
        if stat.family == "blocks_at_least3":
            return sum(1 for s in sizes if s >= 3)
        if stat.family == "outer":
            return out
        if stat.family == "intervals":
            return ints
        raise AreaRequiresPairPartition("area needs the pair tree")
    out, ints, area = key
    if stat.family == "blocks":
        return level
    if stat.family == "blocks_of_size":
        return level if stat.size == 2 else 0
    if stat.family == "blocks_at_least3":
        return 0
    if stat.family == "outer":
        return out
    if stat.family == "intervals":
        return ints
    return area


def _guard(n: int, kind: str, max_n: Optional[int]) -> None:
    limit = max_n if max_n is not None else (
        DEFAULT_MAX_FULL if kind == FULL else DEFAULT_MAX_PAIR)
    if n > limit:
        raise SizeBoundExceeded(
            f"depth {n} exceeds the {kind}-tree guard of {limit}")


def bruteforce_transform(stat: Statistic, n: int, kind: str = FULL,
                         max_n: Optional[int] = None) -> ExactPolynomial:
    """Exact level-n transform by exhaustive enumeration."""
    _guard(n, kind, max_n)
    hist = level_histograms(kind, n)[n]
    counts: Counter = Counter()
    for key, mult in hist.items():
        counts[_stat_from_key(stat, kind, n, key)] += mult
    return ExactPolynomial.from_counts(counts)


# ---------------------------------------------------------------------------
# recursions

def _int_coeffs(poly: ExactPolynomial) -> dict:
    """{exponent: coefficient} with the integral coefficients as ints, so
    the recursion steps below do integer arithmetic when they can."""
    return {e: c.numerator if c.denominator == 1 else c
            for e, c in poly.items()}


def _checked_level(coeffs: dict) -> dict:
    """Drop zero coefficients, then reject a negative exponent that
    survives, as :class:`ExactPolynomial` does on construction."""
    level = {e: c for e, c in coeffs.items() if c}
    low = min(level, default=0)
    if low < 0:
        raise NegativeExponent(f"exponent {low} with coefficient {level[low]}")
    return level


def recurse_first_kind(r: Sequence[int], seeds: Sequence[ExactPolynomial],
                       n: int) -> ExactPolynomial:
    """Level-n transform from the per-edge increment vector r.

    Seeds are the transforms at levels 1..len(seeds) with len(seeds) >=
    len(r) (r is padded to length two if needed).  Intermediate monomial
    shifts may dip below exponent zero; each level is checked to be a
    genuine polynomial once its shifted terms are summed.
    """
    r = tuple(int(x) for x in r)
    if not r:
        raise ValueError("empty increment vector")
    if len(r) == 1:
        r = r + (0,)
    k = len(r)
    if len(seeds) < k:
        raise InsufficientSeed(f"need {k} seed levels, got {len(seeds)}")
    if n < 1:
        raise ValueError("level must be >= 1")
    if n <= len(seeds):
        return seeds[n - 1]
    levels = [_int_coeffs(seed) for seed in seeds]
    prefix = [sum(r[:j]) for j in range(k)]  # prefix[j] = r_1 + ... + r_j
    for m in range(len(seeds) + 1, n + 1):
        acc: dict = {}

        def add(level: dict, shift: int, scale: int):
            for e, c in level.items():
                key = e + shift
                acc[key] = acc.get(key, 0) + scale * c

        add(levels[m - 2], 0, 1)
        add(levels[m - 2], r[0], m)
        for j in range(2, k + 1):
            if r[j - 1] == 0:
                continue
            add(levels[m - j - 1], r[j - 1] + prefix[j - 1], m - j + 1)
            add(levels[m - j - 1], prefix[j - 1], -(m - j + 1))
        levels.append(_checked_level(acc))
    return ExactPolynomial(levels[n - 1])


def recurse_second_kind(law: SecondKindInput, seed: ExactPolynomial,
                        n: int, kind: str = FULL) -> ExactPolynomial:
    """Level-n transform from the insertion law (alpha, beta; q).

    ``seed`` is the level-1 transform.  The step multiplies by
    q*t^alpha + (children - q)*t^beta and adds (t^(alpha+1) -
    t^(beta+1)) times the derivative, where children is the child count
    of a level m-1 node (m+1 on the full tree, 2m-1 on the pair tree).
    Term by term, c*t^e steps to (q+e)*c*t^(e+alpha) +
    (children-q-e)*c*t^(e+beta), which is what the loop computes.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    alpha, beta, q = law.alpha, law.beta, law.q
    cur = _int_coeffs(seed)
    for m in range(2, n + 1):
        rest = tree._radix(m - 1, kind) - q
        nxt: dict = {}
        for e, c in cur.items():
            nxt[e + alpha] = nxt.get(e + alpha, 0) + (q + e) * c
            nxt[e + beta] = nxt.get(e + beta, 0) + (rest - e) * c
        cur = _checked_level(nxt)
    return ExactPolynomial(cur)


def recursion_transform(stat: Statistic, n: int, kind: str = FULL,
                        max_n: Optional[int] = None) -> ExactPolynomial:
    """Level-n transform via the statistic's transition law, seeded by
    tiny brute-forced levels."""
    if kind == FULL and stat.family in ("blocks", "blocks_of_size",
                                        "blocks_at_least3"):
        r = first_kind_input(stat)
        k = max(len(r), 2)
        if n <= k:
            return bruteforce_transform(stat, n, kind, max_n)
        seeds = [bruteforce_transform(stat, m, kind, max_n)
                 for m in range(1, k + 1)]
        return recurse_first_kind(r, seeds, n)
    law = second_kind_input(stat, kind)
    seed = bruteforce_transform(stat, 1, kind, max_n)
    return recurse_second_kind(law, seed, n, kind)


# ---------------------------------------------------------------------------
# moments

def expectation_from_laplace(poly: ExactPolynomial) -> Fraction:
    """Mean of the statistic whose transform is ``poly``."""
    total = poly.evaluate(1)
    if total == 0:
        raise ZeroPolynomial("transform sums to zero")
    return poly.derivative().evaluate(1) / total


def variance_from_laplace(poly: ExactPolynomial) -> Fraction:
    """Variance of the statistic whose transform is ``poly``."""
    total = poly.evaluate(1)
    if total == 0:
        raise ZeroPolynomial("transform sums to zero")
    d1 = poly.derivative()
    first = d1.evaluate(1)
    second = d1.derivative().evaluate(1)
    mean = first / total
    return (second + first) / total - mean * mean
