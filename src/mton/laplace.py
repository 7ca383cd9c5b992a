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

The scan keeps a rank-ordered record (:class:`ScanRecord`): for each
level, the partition id of every node in rank order, and each level's
histogram is derived from those ids.  Two methods serve the checks.
``level_values`` evaluates a statistic once on each distinct partition
of a level.  ``batches`` yields each level-(n-1) node's children on
level n; it alone turns the layout into edges, knowing that they sit at
ranks r*A .. r*A + A - 1.  Every edge-law check reads its edges from
``batches``: both law shapes, through one per-batch comparison
(:func:`second_kind_witness`, :func:`first_kind_witness`), and the
harness's area split.  The record keeps no labels; a full-tree node's
maximal-label block size, which the increment laws and the tree lemmas
read, comes from its digit word (:func:`tree.max_label_block_sizes`).
An id takes 2 bytes per node: about 4 MB for the full tree to depth 9,
about 44 MB to depth 10.
"""

from __future__ import annotations

from array import array
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Iterator, Optional, Sequence

from . import tree
from .polynomials import ExactPolynomial, NegativeExponent
from .stats import (AreaRequiresPairPartition, SecondKindInput, Statistic,
                    _core_digits, _evaluate_blocks, first_kind_input,
                    second_kind_input)
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

class _Ids(dict):
    """Hands each new key the next id, up to what a record cell holds."""

    capacity = 1 << 16  # ids are stored as array("H") items

    def __missing__(self, key):
        i = len(self)
        if i >= self.capacity:
            raise SizeBoundExceeded(
                f"more than {self.capacity} distinct partitions: the scan "
                f"record stores each id in 2 bytes")
        self[key] = i
        return i


class ScanRecord(dict):
    """The scan of one tree: ``{level: Counter}`` of canonical partitions,
    as :func:`level_histograms` returns it, and the rank-ordered record
    it is derived from.  ``ranked[level]`` holds the partition id of
    every node at that level in rank order, and ``partitions[id]`` is
    that partition's canonical sorted block tuple."""

    def __init__(self, kind: str, partitions: list, ranked: dict):
        super().__init__()
        self.kind = kind
        self.partitions = partitions
        self.ranked = ranked
        self._tallies = {level: Counter(row) for level, row in ranked.items()}
        for level, tally in self._tallies.items():
            self[level] = Counter({partitions[i]: mult
                                   for i, mult in tally.items()})

    def level_values(self, stat: Statistic, level: int) -> dict[int, int]:
        """The statistic on each distinct partition of one level, by id,
        each evaluated once from its own blocks."""
        points = tree._scale(self.kind) * level
        return {i: _evaluate_blocks(stat, self.partitions[i], points)
                for i in self._tallies[level]}

    def batches(self, n: int) -> Iterator[tuple[int, int, array]]:
        """``(rank, parent id, child ids)`` for every level-(n-1) node in
        rank order, its children on level n in digit order.  The rank-r
        parent's children sit at ranks r*A .. r*A + A - 1, A being its
        child count (n+1 on the full tree, 2n-1 on the pair tree)."""
        width = tree._radix(n - 1, self.kind)
        kids = self.ranked[n]
        for rank, parent in enumerate(self.ranked[n - 1]):
            yield rank, parent, kids[rank * width:(rank + 1) * width]


def scan_chunk(kind: str, depth: int) -> ScanRecord:
    """Record the unlabelled partition of every walk node down to depth,
    level by level in rank order.  An inner node is recorded once, at
    its leftmost leaf; the deepest level one sibling batch at a time."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    scale = tree._scale(kind)
    ids = _Ids()
    ranked = [array("H") for _ in range(depth)]
    if depth == 1:
        ranked[0].append(ids[frozenset(tree._root(scale))])
    else:
        ground = scale * (depth - 1)
        deepest = ranked[-1]
        path: list = []
        for fresh in _walk(path, depth - 1, kind):
            for i in range(fresh, depth - 1):
                ranked[i].append(ids[frozenset(path[i])])
            deepest.extend(map(ids.__getitem__, map(
                frozenset, tree._kids(path[-1], ground, scale))))
    partitions = [tuple(sorted(blocks)) for blocks in ids]
    return ScanRecord(kind, partitions, dict(enumerate(ranked, start=1)))


_scan_cache: dict[str, tuple[int, ScanRecord]] = {}


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


def scan_record(kind: str, depth: int) -> ScanRecord:
    """The cached scan of the tree, reaching at least level ``depth``."""
    level_histograms(kind, depth)
    return _scan_cache[kind][1]


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
# edge laws, read off the rank-ordered record

def _check_edge_level(kind: str, n: int) -> None:
    if n < 2:
        raise ValueError(f"the edges into level {n} need n >= 2")
    _guard(n, kind, None)


def _batch_witness(stat: Statistic, record: ScanRecord, n: int, want_of,
                   edge_fields=lambda rank, digit: {}) -> Optional[dict]:
    """First level-(n-1) parent, in rank order, whose children do not
    read what the law asks, as a witness; None when every batch holds.

    ``want_of(rank, parent id, z)`` is the law at the parent whose value
    is z: its children's values in digit order, or a dict saying why
    the parent itself breaks the law.  ``edge_fields(rank, digit)`` adds
    the law's own fields to a wrong edge's witness.
    """
    parent_value = record.level_values(stat, n - 1)
    value = record.level_values(stat, n).__getitem__
    for rank, i, kids in record.batches(n):
        z = parent_value[i]
        want = want_of(rank, i, z)
        if isinstance(want, tuple):
            got = tuple(map(value, kids))
            if got == want:
                continue
            digit = next(d for d, v in enumerate(got) if v != want[d])
            want = {"digit": digit, "increment": got[digit] - z,
                    "want": want[digit] - z, **edge_fields(rank, digit)}
        return {"n": n, "stat": stat.name, **want,
                "parent": tree.unrank(rank, n - 1, record.kind).to_json()}
    return None


def second_kind_witness(stat: Statistic, kind: str, n: int,
                        law: Optional[SecondKindInput] = None) -> Optional[dict]:
    """First violation of the (alpha, beta; q) law on the edges into
    level n, in rank order, or None when all three clauses hold: the
    alpha jump on the distinguished children, the beta jump elsewhere,
    and the subset size Z + q.  ``law`` defaults to the built-in one.
    Each distinct parent's core digits are found once.
    """
    _check_edge_level(kind, n)
    law = second_kind_input(stat, kind) if law is None else law
    record = scan_record(kind, n)
    width = tree._radix(n - 1, kind)
    points = tree._scale(kind) * (n - 1)

    @cache
    def want_of(i: int, z: int):
        core = _core_digits(stat, kind, record.partitions[i], points)
        if len(core) != z + law.q:
            return {"core_size": len(core), "want": z + law.q}
        return tuple(z + (law.alpha if d in core else law.beta)
                     for d in range(width))
    return _batch_witness(stat, record, n, lambda rank, i, z: want_of(i, z))


def first_kind_witness(stat: Statistic, n: int,
                       r: Optional[Sequence[int]] = None) -> Optional[dict]:
    """First violation of the increment vector on the edges into full
    level n, in rank order, or None when every edge whose child has a
    maximal-label block of size j changes the statistic by r_j (0 past
    the vector).  ``r`` defaults to the built-in vector.  The child's
    block size comes from its digit word
    (:func:`tree.max_label_block_sizes`), not from its labels.
    """
    _check_edge_level(FULL, n)
    r = first_kind_input(stat) if r is None else r
    record = scan_record(FULL, n)
    step = (0, *r) + (0,) * (n - len(r))  # step[j] is r_j
    width = tree._radix(n - 1, FULL)
    sizes = tree.max_label_block_sizes(n).tobytes()

    @cache
    def want_at(z: int, batch_sizes: bytes) -> tuple:
        return tuple(z + step[j] for j in batch_sizes)
    return _batch_witness(
        stat, record, n,
        lambda rank, i, z: want_at(z, sizes[rank * width:(rank + 1) * width]),
        lambda rank, digit: {"size": sizes[rank * width + digit]})


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
