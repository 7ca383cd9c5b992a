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

The scan keeps a rank-ordered record (:class:`ScanRecord`): for each
level, the partition id of every node in rank order, and each level's
histogram is its tally of those ids.  ``level_values`` evaluates a
statistic once on each distinct partition of a level; ``transform``
alone weights such values, by the level's id tally or a given one.
The record also keeps the sibling batches the scan built, and
``batches`` yields them once per parent state, at the state's first
rank, with each child's labelled maximal-label block size.  Every
edge-law check reads its edges from ``batches``: both law shapes,
through one per-batch comparison (:func:`second_kind_witness`,
:func:`first_kind_witness`), and the harness's area split.  A law's
verdict on a parent depends on its state alone, so the first failing
state is the first failing rank.  Only the harness's two tree lemmas
read block sizes off the digit words.
An id takes 2 bytes per node: about 4 MB for the full tree to depth 9,
about 44 MB to depth 10.  Past depth 10 the levels hold more distinct
partitions than 2-byte ids can name, and :func:`scan_chunk` refuses the
scan before it builds a child, whatever the size guard allows.
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


class ScanRecord(dict):
    """The scan of one tree: ``{level: Counter}`` of canonical partitions,
    as :func:`level_histograms` returns it, and the rank-ordered record
    behind it.  ``ranked[level]`` holds the partition id of every node
    at that level in rank order, and ``partitions[id]`` is that
    partition's canonical sorted block tuple.  ``tallies[level]``
    counts each id of that level's row, as the scan sums it from its
    states.  ``edges[level]`` keeps, for the scan's batches into that
    level, the first rank of each parent state and the sizes of the
    children's maximal-label blocks, read through :meth:`batches`."""

    def __init__(self, kind: str, partitions: list, ranked: dict,
                 tallies: dict):
        super().__init__()
        self.kind = kind
        self.partitions = partitions
        self.ranked = ranked
        self._tallies = tallies
        self.edges: dict = {}
        for level, tally in self._tallies.items():
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
        pair tree) that every node of the state has, in digit order.  The
        rank-r node's children sit at ranks r*A .. r*A + A - 1."""
        first, sizes = self.edges[n]
        width = tree._radix(n - 1, self.kind)
        parents, kids = self.ranked[n - 1], self.ranked[n]
        for s, rank in enumerate(first):
            yield (rank, parents[rank], kids[rank * width:(rank + 1) * width],
                   sizes[s * width:(s + 1) * width])


# parents whose batches one join concatenates
_JOIN = 1 << 10


def _joined(batches: list, row: array, size: int) -> array:
    """The batches of the states in ``row``, in its order, as one row of
    ``size`` ids.  The row is allocated once, at its size, and filled a
    few thousand batches at a time, so no deep row is stored twice."""
    out = array("H", [0]) * size
    cells = memoryview(out).cast("B")
    end = 0
    for start in range(0, len(row), _JOIN):
        chunk = b"".join(map(batches.__getitem__, row[start:start + _JOIN]))
        cells[end:end + len(chunk)] = chunk
        end += len(chunk)
    cells.release()
    return out


def _weighted(batches: list, mult: list) -> Counter:
    """How often each id occurs in the row that joins these batches: a
    state's batch once for each of its ``mult`` nodes."""
    tally: Counter = Counter()
    for batch, m in zip(batches, mult):
        for i in batch:
            tally[i] += m
    return tally


def scan_chunk(kind: str, depth: int) -> ScanRecord:
    """Record the unlabelled partition of every node down to depth,
    level by level in rank order.

    The tree folds onto a graph of states: a node's children, as
    partitions, depend only on its state, the pair of its partition id
    and its maximal-label block.  An insertion child's partition depends
    only on the parent's partition and the gap, and the full tree's
    elongation child also on which block carries the maximal label; the
    child's own maximal-label block is its new block or the elongated
    one.  So each level keeps one node per state, builds that node's
    children once, and writes the states' batches of child ids (and, but
    on the deepest level, of child states) in the order of the level's
    state row: the rank-r node's batch becomes ranks r*A .. r*A + A - 1
    of the next row.  For :meth:`ScanRecord.batches`, the scan keeps
    each state's first rank and its children's maximal-label block
    sizes: states are numbered in order of first appearance, so a new
    state's first rank is its parent's times A plus its digit.  Each
    level's id tally, and the node count of each state, is summed from
    the parent states' counts and their batches, never read from
    :func:`tree.level_count`.  A scan whose levels hold
    more distinct partitions (Catalan(k) at level k, on both trees) than
    the record has ids is refused before any child is built.  States
    are numbered on levels 1..depth-1 alone, at most Catalan(k) * k on
    level k <= 9, so they fit the same 2-byte cells.
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
    root = tree._root(scale)
    ranked = {1: array("H", [ids[root]])}
    tallies = {1: Counter(ranked[1])}
    edges: dict = {}
    # one node of each state of the level, and its first rank; the state
    # of every node in rank order; the number of nodes in each state
    nodes, first, row, mult = [root], array("L", [0]), array("H", [0]), [1]
    for n in range(2, depth + 1):
        ground = scale * (n - 1)
        deepest = n == depth
        id_batches, state_batches, sizes = [], [], array("B")
        state_of: dict = {}
        next_nodes: list = []
        next_first = array("L")
        for node, rank in zip(nodes, first):
            kids = tree._kids(node, ground, scale)
            batch = array("H", [ids[tuple(sorted(kid))] for kid in kids])
            id_batches.append(batch)
            sizes.fromlist([len(kid[-1]) for kid in kids])
            if deepest:
                continue
            states = array("H")
            for i, kid in zip(batch, kids):
                key = i, kid[-1]
                s = state_of.get(key)
                if s is None:
                    s = state_of[key] = len(next_nodes)
                    next_nodes.append(kid)
                    # the kid's digit is the length of the row so far
                    next_first.append(rank * len(kids) + len(states))
                states.append(s)
            state_batches.append(states)
        edges[n] = first, sizes
        tallies[n] = _weighted(id_batches, mult)
        size = sum(tallies[n].values())
        ranked[n] = _joined(id_batches, row, size)
        if not deepest:
            counts = _weighted(state_batches, mult)
            mult = [counts[s] for s in range(len(next_nodes))]
            nodes, first = next_nodes, next_first
            row = _joined(state_batches, row, size)
    record = ScanRecord(kind, list(ids), ranked, tallies)
    record.edges.update(edges)
    return record


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
# edge laws, read off the rank-ordered record

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
