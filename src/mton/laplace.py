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

The scan tallies unlabelled partitions: a level of (n+1)!/2 (or
(2n-1)!!) ordered nodes carries only Catalan(n) distinct partitions, and
each is evaluated once, through the one evaluator in :mod:`stats`, and
weighted by its multiplicity.  This relies on every statistic ignoring
the labels.  Each value is still computed from the partition's own
blocks, never from a parent's, so the recursions stay independent of
the scan.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from . import tree
from .polynomials import ExactPolynomial, NegativeExponent
from .stats import (AreaRequiresPairPartition, SecondKindInput, Statistic,
                    _evaluate_blocks, first_kind_input, second_kind_input)
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

def scan_chunk(kind: str, depth: int) -> dict[int, Counter]:
    """Tally the unlabelled partition of every walk node down to depth,
    keyed by level.  An inner node is tallied once, at its leftmost
    leaf; the deepest level is tallied one sibling batch at a time.
    Each level's keys are the canonical sorted block tuples."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    scale = tree._scale(kind)
    tallies = [Counter() for _ in range(depth)]
    if depth == 1:
        tallies[0][frozenset(tree._root(scale))] += 1
    else:
        ground = scale * (depth - 1)
        path: list = []
        for fresh in _walk(path, depth - 1, kind):
            for i in range(fresh, depth - 1):
                tallies[i][frozenset(path[i])] += 1
            tallies[-1].update(
                map(frozenset, tree._kids(path[-1], ground, scale)))
    hist: dict[int, Counter] = {}
    for level in range(1, depth + 1):  # one level's two copies at a time
        raw, tallies[level - 1] = tallies[level - 1], None
        hist[level] = Counter({tuple(sorted(blocks)): mult
                               for blocks, mult in raw.items()})
    return hist


_scan_cache: dict[str, tuple[int, dict[int, Counter]]] = {}


def level_histograms(kind: str, depth: int) -> dict[int, Counter]:
    """Partition histograms for every level <= depth, cached per kind:
    each canonical partition with the number of nodes that carry it."""
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


def _guard(n: int, kind: str, max_n: Optional[int]) -> None:
    limit = max_n if max_n is not None else (
        DEFAULT_MAX_FULL if kind == FULL else DEFAULT_MAX_PAIR)
    if n > limit:
        raise SizeBoundExceeded(
            f"depth {n} exceeds the {kind}-tree guard of {limit}")


def bruteforce_transform(stat: Statistic, n: int, kind: str = FULL,
                         max_n: Optional[int] = None) -> ExactPolynomial:
    """Exact level-n transform by exhaustive enumeration: the value of
    each distinct partition, weighted by the number of nodes that carry
    it."""
    _guard(n, kind, max_n)
    if stat.family == "area" and kind == FULL:
        raise AreaRequiresPairPartition(
            f"{stat.name} needs the pair tree, not the {kind} tree")
    hist = level_histograms(kind, n)[n]
    points = tree._scale(kind) * n
    counts: Counter = Counter()
    for blocks, mult in hist.items():
        counts[_evaluate_blocks(stat, blocks, points)] += mult
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
