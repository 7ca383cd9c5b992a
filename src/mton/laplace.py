"""Generating polynomials of block statistics over the two trees.

For a statistic Z the level-n transform is sum of t**Z(pi,u) over all
ordered partitions at depth n.  Brute force computes it by a single
scan that records every node down to depth N, level by level (so one
scan yields the transforms of every statistic at every level <= N).
The recursions rebuild the same polynomials from small seeds through the
certified transition laws; agreement between the two routes is what the
verification suites check.

The scan folds each level onto its distinct states, a partition with
its maximal-label block, and builds every sibling batch once per state
of the level above (see :func:`scan_chunk`).  It never consults the
counting formula: each level's total is summed from the batches that
the child step built, weighted by the node count of their parent
states, so the totals are independent evidence for
:func:`tree.level_count`.

The scan tallies unlabelled partitions: a level of (n+1)!/2 (or
(2n-1)!!) ordered nodes carries only Catalan(n) distinct partitions, and
each is evaluated once, through the one evaluator in :mod:`stats`, and
weighted by its multiplicity.  This relies on every statistic ignoring
the labels.  Each value is still computed from the partition's own
blocks, never from a parent's, so the recursions stay independent of
the scan.

Every scan enters through one door, :func:`level_histograms`, which
alone applies the size guard, reads the cache and calls
:func:`scan_chunk`; the fresh mapping it returns holds the cache's
Counters, which are read-only.

The scan keeps the tree's state graph (:class:`ScanRecord`): for each
level, each state's partition id, first rank and node count, and its
batch of children: their ids, their states and their labelled
maximal-label block sizes, in digit order.  Each level's histogram is
its states' node counts, tallied by partition id.  ``level_values``
evaluates a statistic once on each distinct partition of a level;
``transform`` alone weights such values, by the level's id tally or a
given one.  ``batches`` yields the batches once per parent state, at
the state's first rank.  Every edge-law check reads its edges from
``batches``: both law shapes, through one per-batch comparison
(:func:`second_kind_witness`, :func:`first_kind_witness`), and the
harness's area split and singleton slice; the harness's parent chain
follows the child-state batches.  A law's verdict on a parent
depends on its state alone, so the first failing state is the first
failing rank.  A partition id takes 2 bytes.  Past depth 10 the levels
hold more distinct partitions than 2-byte ids can name, and
:func:`scan_chunk` refuses the scan before it builds a child, whatever
the size guard allows.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import tree
from .polynomials import ExactPolynomial, NegativeExponent
from .stats import (AreaRequiresPairPartition, NotFirstKind, SecondKindInput,
                    Statistic, _core_digits, _evaluate_blocks,
                    first_kind_input, second_kind_input)
from .tree import FULL

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


class _States:
    """The states of one scanned level, numbered in order of first
    appearance.  For state s: ``part[s]`` is its partition id, ``first[s]``
    the rank of its first node and ``mult[s]`` its node count.  Its A
    children sit at ``s*A .. s*A + A - 1`` of ``ids`` (their partition
    ids), ``kids`` (their states on the next level) and ``sizes`` (their
    labelled maximal-label block sizes), in digit order; the three stay
    empty on the scan's deepest level."""

    __slots__ = ("part", "first", "mult", "ids", "kids", "sizes")

    def __init__(self):
        self.part, self.first, self.mult = array("H"), array("L"), array("Q")
        self.ids, self.kids, self.sizes = array("H"), array("I"), array("B")


class ScanRecord(dict):
    """The scan of one tree: ``{level: Counter}`` of canonical partitions,
    as :func:`level_histograms` returns it, and the state graph behind
    it.  ``levels[level]`` holds that level's :class:`_States`, and
    ``partitions[id]`` is a partition's canonical sorted block tuple.
    Each level's id tally, and so its Counter, is summed from its
    states' node counts."""

    def __init__(self, kind: str, partitions: list, levels: dict):
        super().__init__()
        self.kind = kind
        self.partitions = partitions
        self.levels = levels
        self._tallies: dict = {}
        for level, states in levels.items():
            tally = self._tallies[level] = Counter()
            for i, mult in zip(states.part, states.mult):
                tally[i] += mult
            self[level] = Counter({partitions[i]: mult
                                   for i, mult in tally.items()})

    def level_values(self, stat: Statistic, level: int) -> dict[int, int]:
        """The statistic on each distinct partition of one level, by id,
        each evaluated once from its own blocks."""
        points = tree._scale(self.kind) * level
        return {i: _evaluate_blocks(stat, self.partitions[i], points)
                for i in self._tallies[level]}

    def transform(self, stat: Statistic, level: int,
                  tally: Optional[Counter] = None) -> ExactPolynomial:
        """The level's transform: each distinct partition evaluated once
        and weighted by its count in the id tally, or in ``tally``."""
        tally = self._tallies[level] if tally is None else tally
        value = self.level_values(stat, level)
        counts: Counter = Counter()
        for i, mult in tally.items():
            counts[value[i]] += mult
        return ExactPolynomial.from_counts(counts)

    def batches(self, n: int) -> Iterator[tuple[int, int, array, array]]:
        """``(rank, parent id, child ids, child sizes)`` once for each
        state of level n-1, in increasing first rank: the state's first
        rank r and partition id, and the ids and labelled maximal-label
        block sizes of the A children (n+1 on the full tree, 2n-1 on the
        pair tree) that every node of the state has, in digit order."""
        up = self.levels[n - 1]
        width = tree._radix(n - 1, self.kind)
        for s, (rank, i) in enumerate(zip(up.first, up.part)):
            cut = slice(s * width, (s + 1) * width)
            yield rank, i, up.ids[cut], up.sizes[cut]


def scan_chunk(kind: str, depth: int) -> ScanRecord:
    """Record the state graph of the tree down to depth, level by level.

    The tree folds onto a graph of states: a node's children, as
    partitions, depend only on its state, the pair of its partition id
    and its maximal-label block.  An insertion child's partition depends
    only on the parent's partition and the gap, and the full tree's
    elongation child also on which block carries the maximal label; the
    child's own maximal-label block is its new block or the elongated
    one.  So each level keeps one node per state, builds that node's
    children once, and stores their ids, states and labelled
    maximal-label block sizes as the state's batch.  States are
    numbered in order of first appearance, so a new state's first rank
    is its parent's first rank times A plus its digit.  Each state's
    node count is summed from the counts of the parent states whose
    batches reach it, never read from :func:`tree.level_count`.  A scan
    whose levels hold more distinct partitions (Catalan(k) at level k,
    on both trees) than the record has ids is refused before any child
    is built.  States outnumber partitions (66,197 at full level 10), so
    the child-state cells are 4 bytes wide.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    distinct = sum(math.comb(2 * k, k) // (k + 1) for k in range(1, depth + 1))
    if distinct > _Ids.capacity:
        raise SizeBoundExceeded(
            f"levels 1..{depth} hold {distinct} distinct partitions, more "
            f"than the {_Ids.capacity} ids of a scan record")
    scale = tree._scale(kind)
    ids = _Ids()
    # one node of each state of the level
    nodes = [tree._root(scale)]
    up = _States()
    up.part.append(ids[nodes[0]])
    up.first.append(0)
    up.mult.append(1)
    levels = {1: up}
    for n in range(2, depth + 1):
        ground = scale * (n - 1)
        deepest = n == depth
        down = levels[n] = _States()
        # each state by its partition id and the first point of its
        # maximal-label block, which tells that block from the others
        state_of: dict = {}
        next_nodes: list = []
        mult: list = []
        for node, rank, m in zip(nodes, up.first, up.mult):
            kids = tree._kids(node, ground, scale)
            batch = [ids[tuple(sorted(kid))] for kid in kids]
            up.ids.extend(batch)
            up.sizes.extend([len(kid[-1]) for kid in kids])
            base = rank * len(kids)
            for d, (i, kid) in enumerate(zip(batch, kids)):
                key = i, kid[-1][0]
                s = state_of.get(key)
                if s is None:
                    s = state_of[key] = len(mult)
                    down.part.append(i)
                    down.first.append(base + d)
                    mult.append(m)
                    if not deepest:
                        next_nodes.append(kid)
                else:
                    mult[s] += m
                up.kids.append(s)
        down.mult.extend(mult)
        nodes, up = next_nodes, down
    return ScanRecord(kind, list(ids), levels)


_scan_cache: dict[str, tuple[int, ScanRecord]] = {}


def _default_max(kind: str) -> int:
    # the kind's bound, read when called so a changed setting holds
    return DEFAULT_MAX_FULL if kind == FULL else DEFAULT_MAX_PAIR


def _guard(n: int, kind: str, max_n: Optional[int]) -> None:
    limit = max_n if max_n is not None else _default_max(kind)
    if n > limit:
        raise SizeBoundExceeded(
            f"depth {n} exceeds the {kind}-tree guard of {limit}")


def level_histograms(kind: str, depth: int,
                     max_n: Optional[int] = None) -> dict[int, Counter]:
    """Partition histograms for every level <= depth, cached per kind:
    each canonical partition with the number of nodes that carry it.
    The door to the scan: a depth past ``max_n`` (by default the kind's
    bound) is refused before the cache is read.  The mapping is fresh;
    its Counters belong to the cache and are read-only."""
    if depth < 1:  # a warm cache would otherwise answer with no levels
        raise ValueError(f"depth must be >= 1, got {depth}")
    _guard(depth, kind, max_n)
    cached = _scan_cache.get(kind)
    if not cached or cached[0] < depth:
        cached = _scan_cache[kind] = (depth, scan_chunk(kind, depth))
    return {level: cached[1][level] for level in range(1, depth + 1)}


def scan_record(kind: str, depth: int) -> ScanRecord:
    """The cached scan of the tree, reaching at least level ``depth``."""
    level_histograms(kind, depth)
    return _scan_cache[kind][1]


def clear_scan_cache() -> None:
    _scan_cache.clear()


def bruteforce_transform(stat: Statistic, n: int, kind: str = FULL,
                         max_n: Optional[int] = None) -> ExactPolynomial:
    """Exact level-n transform by exhaustive enumeration: the value of
    each distinct partition, weighted by the number of nodes that carry
    it."""
    if stat.family == "area" and kind == FULL:
        raise AreaRequiresPairPartition(
            f"{stat.name} needs the pair tree, not the {kind} tree")
    level_histograms(kind, n, max_n)
    return _scan_cache[kind][1].transform(stat, n)


# ---------------------------------------------------------------------------
# edge laws, read off the state graph

def _check_edge_level(n: int) -> None:
    if n < 2:
        raise ValueError(f"the edges into level {n} need n >= 2")


def _batch_witness(stat: Statistic, record: ScanRecord, n: int, want_of, *,
                   sized: bool) -> Optional[dict]:
    """First level-(n-1) parent, in rank order, whose children do not
    read what the law asks, as a witness; None when every batch holds.

    ``want_of(parent id, z, child sizes)`` is the law at the parent
    whose value is z: a list of its children's values in digit order,
    or a dict saying why the parent itself breaks the law.  A wrong edge's
    witness names the child's size when ``sized``.  Each parent state
    is checked once, at its first rank.
    """
    parent_value = record.level_values(stat, n - 1)
    value = record.level_values(stat, n).__getitem__
    for rank, i, kids, sizes in record.batches(n):
        z = parent_value[i]
        want = want_of(i, z, sizes)
        if isinstance(want, list):
            got = list(map(value, kids))
            if got == want:
                continue
            digit = next(d for d, v in enumerate(got) if v != want[d])
            want = {"digit": digit, "increment": got[digit] - z,
                    "want": want[digit] - z}
            if sized:
                want["size"] = sizes[digit]
        return {"n": n, "stat": stat.name, **want,
                "parent": tree.unrank(rank, n - 1, record.kind).to_json()}
    return None


def second_kind_witness(stat: Statistic, kind: str, n: int,
                        law: Optional[SecondKindInput] = None) -> Optional[dict]:
    """First violation of the (alpha, beta; q) law on the edges into
    level n, in rank order, or None when all three clauses hold: the
    alpha jump on the distinguished children, the beta jump elsewhere,
    and the subset size Z + q.  ``law`` defaults to the built-in one.
    """
    _check_edge_level(n)
    record = scan_record(kind, n)
    law = second_kind_input(stat, kind) if law is None else law
    points = tree._scale(kind) * (n - 1)

    def want_of(i: int, z: int, sizes):
        core = _core_digits(stat, kind, record.partitions[i], points)
        if len(core) != z + law.q:
            return {"core_size": len(core), "want": z + law.q}
        return [z + (law.alpha if d in core else law.beta)
                for d in range(len(sizes))]
    return _batch_witness(stat, record, n, want_of, sized=False)


def first_kind_witness(stat: Statistic, n: int,
                       r: Optional[Sequence[int]] = None) -> Optional[dict]:
    """First violation of the increment vector on the edges into full
    level n, in rank order, or None when every edge whose child has a
    maximal-label block of size j changes the statistic by r_j (0 past
    the vector).  ``r`` defaults to the built-in vector.  The child's
    block size is the one the scan measured on the labelled child.
    """
    _check_edge_level(n)
    record = scan_record(FULL, n)
    r = first_kind_input(stat) if r is None else r
    step = (0, *r) + (0,) * (n - len(r))  # step[j] is r_j
    return _batch_witness(stat, record, n, lambda i, z, sizes: [
        z + step[j] for j in sizes], sized=True)


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
    tiny brute-forced levels: on the full tree, the increment vector of
    :func:`first_kind_input` when the statistic has one; otherwise the
    insertion law of :func:`second_kind_input`."""
    try:
        r = first_kind_input(stat) if kind == FULL else None
    except NotFirstKind:
        r = None
    if r is None:
        law = second_kind_input(stat, kind)
        seed = bruteforce_transform(stat, 1, kind, max_n)
        return recurse_second_kind(law, seed, n, kind)
    k = max(len(r), 2)
    if n <= k:
        return bruteforce_transform(stat, n, kind, max_n)
    seeds = [bruteforce_transform(stat, m, kind, max_n)
             for m in range(1, k + 1)]
    return recurse_first_kind(r, seeds, n)


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
