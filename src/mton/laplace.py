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
alone reads the cache and calls :func:`scan_chunk`; the fresh mapping
it returns holds the cache's Counters, which are read-only.  A read
past the cached record's deepest level extends it, so each level is
built once, in any read order.

The scan keeps the tree's state graph (:class:`ScanRecord`): for each
level, each state's partition id, maximal-label block start and size,
first rank and node count, and its batch: its children's states, in
digit order.  A child's partition and block size are read through its
state.  Each level's histogram is its states' node counts, tallied by
partition id.  ``level_values`` evaluates a statistic once on each
distinct partition of a level; ``transform`` alone weights such values,
by the level's id tally or a given one.  ``batches`` yields the batches
once per parent state, at the state's first rank.  Every edge-law check
reads its edges from ``batches``: both law shapes, through one door,
:func:`edge_witness`, which takes each statistic's law where the
recursion takes it, from :func:`stats.transition_law`, and the
harness's area split; the harness's parent chain follows the
child-state batches, and its singleton slice reads the states alone.
A law's verdict on a parent depends on its state alone, so the first
failing state is the first failing rank.  A partition id takes 2 bytes.
Past depth 10 the levels hold more distinct partitions than 2-byte ids
can name, and :func:`scan_chunk` refuses the scan before it builds a
child: that is the scan's only size limit, on both trees.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterator, Sequence
from fractions import Fraction

from . import tree
from .polynomials import ExactPolynomial, _normal_form
from .stats import (SecondKindInput, Statistic, _core_digits,
                    _evaluate_blocks, refuse_area_off_pairs, seed_levels,
                    transition_law)
from .tree import FULL


class SizeBoundExceeded(ValueError):
    """Refusing a scan past the partition ids of its record."""


class InsufficientSeed(ValueError):
    """The recursion needs more seed polynomials than were given."""


class ZeroPolynomial(ValueError):
    """Expectation of an empty distribution."""


# ---------------------------------------------------------------------------
# brute-force scan

_ID_CAPACITY = 1 << 16  # partition ids are stored as array("H") items


class _Ids(dict):
    """Hands each new key the next id."""

    def __missing__(self, key):
        i = self[key] = len(self)
        return i


class _States:
    """The states of one scanned level, numbered in order of first
    appearance.  For state s: ``part[s]`` is its partition id, ``top[s]``
    and ``size[s]`` the first point and the size of its maximal-label
    block, ``first[s]`` the rank of its first node and ``mult[s]`` its
    node count.  Its A children's states on the next level sit at
    ``kids[s*A .. s*A + A - 1]``, in digit order; ``kids`` stays empty on
    the record's deepest level."""

    __slots__ = ("part", "top", "size", "first", "mult", "kids")

    def __init__(self):
        self.part, self.top, self.size = array("H"), array("B"), array("B")
        self.first, self.mult, self.kids = array("L"), array("Q"), array("I")


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
        self.levels, self._tallies = {}, {}
        self._add(levels)

    def _add(self, levels: dict) -> None:
        self.levels.update(levels)
        for level, states in levels.items():
            tally = self._tallies[level] = Counter()
            for i, mult in zip(states.part, states.mult):
                tally[i] += mult
            self[level] = Counter({self.partitions[i]: mult
                                   for i, mult in tally.items()})

    def level_values(self, stat: Statistic, level: int) -> dict[int, int]:
        """The statistic on each distinct partition of one level, by id,
        each evaluated once from its own blocks."""
        points = tree._scale(self.kind) * level
        return {i: _evaluate_blocks(stat, self.partitions[i], points)
                for i in self._tallies[level]}

    def transform(self, stat: Statistic, level: int,
                  tally: Counter | None = None) -> ExactPolynomial:
        """The level's transform: each distinct partition evaluated once
        and weighted by its count in the id tally, or in ``tally``."""
        tally = self._tallies[level] if tally is None else tally
        value = self.level_values(stat, level)
        counts: Counter = Counter()
        for i, mult in tally.items():
            counts[value[i]] += mult
        return ExactPolynomial(counts)

    def batches(self, n: int) -> Iterator[tuple[int, int, array]]:
        """``(rank, parent id, child states)`` once for each state of
        level n-1, in increasing first rank: the state's first rank r
        and partition id, and the level-n states of the A children (n+1
        on the full tree, 2n-1 on the pair tree) that every node of the
        state has, in digit order."""
        up = self.levels[n - 1]
        width = tree._radix(n - 1, self.kind)
        for s, (rank, i) in enumerate(zip(up.first, up.part)):
            yield rank, i, up.kids[s * width:(s + 1) * width]


def _node(blocks: tuple, top: int) -> tuple:
    # a node of the state: the blocks in min order, a monotone labelling,
    # with the one that starts at top, an interval, moved last
    j = next(j for j, b in enumerate(blocks) if b[0] == top)
    return blocks[:j] + blocks[j + 1:] + (blocks[j],)


def scan_chunk(kind: str, depth: int,
               record: ScanRecord | None = None) -> ScanRecord:
    """Record the state graph of the tree down to depth, level by level,
    from the root or from the deepest level of ``record``, which gains
    the new levels once all are built.

    The tree folds onto a graph of states: a node's children, as
    partitions, depend only on its state, the pair of its partition id
    and its maximal-label block.  An insertion child's partition depends
    only on the parent's partition and the gap, and the full tree's
    elongation child also on which block carries the maximal label; the
    child's own maximal-label block is its new block or the elongated
    one.  So each state's children are built once, from a node rebuilt
    from the state (:func:`_node`), and stored as the state's batch of
    child states.  Every child that reaches a state has the same
    maximal-label block, so its size is measured once, on the first.
    States are numbered in order of first appearance, so a new state's
    first rank is its parent's first rank times A plus its digit.  Each
    state's node count is summed from the counts of the parent states
    whose batches reach it, never read from :func:`tree.level_count`.  A
    scan whose levels hold more distinct partitions (Catalan(k) at level
    k, on both trees) than the record has ids is refused before any
    child is built; the count stops at the first level past the ids,
    and a deeper scan is said to hold more.  States outnumber partitions
    (66,197 at full level 10), so the child-state cells are 4 bytes wide.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    distinct = 0
    for k in range(1, depth + 1):
        distinct += math.comb(2 * k, k) // (k + 1)
        if distinct > _ID_CAPACITY:
            more = "more than " if k < depth else ""
            raise SizeBoundExceeded(
                f"levels 1..{depth} hold {more}{distinct} distinct "
                f"partitions, more than the {_ID_CAPACITY} ids of a scan "
                f"record")
    scale = tree._scale(kind)
    if record is None:
        root = _States()
        root.part.append(0)
        root.top.append(1)
        root.size.append(scale)
        root.first.append(0)
        root.mult.append(1)
        record = ScanRecord(kind, [tree._root(scale)], {1: root})
    ids = _Ids(zip(record.partitions, range(len(record.partitions))))
    up = record.levels[len(record)]
    del up.kids[:]  # left by a failed extension
    levels = {}
    for n in range(len(record) + 1, depth + 1):
        ground = scale * (n - 1)
        partitions = list(ids)
        down = levels[n] = _States()
        # each state by its partition id and the first point of its
        # maximal-label block, which tells that block from the others
        state_of: dict = {}
        mult: list = []
        for i, top, rank, m in zip(up.part, up.top, up.first, up.mult):
            kids = tree._kids(_node(partitions[i], top), ground, scale)
            base = rank * len(kids)
            for d, kid in enumerate(kids):
                key = ids[tuple(sorted(kid))], kid[-1][0]
                s = state_of.get(key)
                if s is None:
                    s = state_of[key] = len(mult)
                    down.part.append(key[0])
                    down.top.append(key[1])
                    down.size.append(len(kid[-1]))
                    down.first.append(base + d)
                    mult.append(m)
                else:
                    mult[s] += m
                up.kids.append(s)
        down.mult.extend(mult)
        up = down
    record.partitions = list(ids)
    record._add(levels)
    return record


_scan_cache: dict[str, ScanRecord] = {}


def level_histograms(kind: str, depth: int) -> dict[int, Counter]:
    """Partition histograms for every level <= depth, cached per kind:
    each canonical partition with the number of nodes that carry it.
    The door to the scan, which :func:`scan_chunk` refuses past depth
    10, its record's id capacity.  The mapping is fresh; its Counters
    belong to the cache and are read-only."""
    if depth < 1:  # a warm cache would otherwise answer with no levels
        raise ValueError(f"depth must be >= 1, got {depth}")
    record = _scan_cache.get(kind)
    if record is None or len(record) < depth:
        record = _scan_cache[kind] = scan_chunk(kind, depth, record)
    return {level: record[level] for level in range(1, depth + 1)}


def scan_record(kind: str, depth: int) -> ScanRecord:
    """The cached scan of the tree, reaching at least level ``depth``."""
    level_histograms(kind, depth)
    return _scan_cache[kind]


def clear_scan_cache() -> None:
    _scan_cache.clear()


def bruteforce_transform(stat: Statistic, n: int,
                         kind: str = FULL) -> ExactPolynomial:
    """Exact level-n transform by exhaustive enumeration: the value of
    each distinct partition, weighted by the number of nodes that carry
    it."""
    refuse_area_off_pairs(stat, kind)
    level_histograms(kind, n)
    return _scan_cache[kind].transform(stat, n)


# ---------------------------------------------------------------------------
# edge laws, read off the state graph

def _batch_witness(stat: Statistic, record: ScanRecord, n: int, want_of, *,
                   sized: bool) -> dict | None:
    """First level-(n-1) parent, in rank order, whose children do not
    read what the law asks, as a witness; None when every batch holds.

    ``want_of(parent id, z, child states)`` is the law at the parent
    whose value is z: a list of its children's values in digit order,
    or a dict saying why the parent itself breaks the law.  A wrong edge's
    witness names the child's block size when ``sized``.  Each parent
    state is checked once, at its first rank.
    """
    parent_value = record.level_values(stat, n - 1)
    down = record.levels[n]
    # each level-n state's value, read through its partition once
    value = list(map(record.level_values(stat, n).__getitem__, down.part))
    for rank, i, kids in record.batches(n):
        z = parent_value[i]
        want = want_of(i, z, kids)
        if isinstance(want, list):
            got = list(map(value.__getitem__, kids))
            if got == want:
                continue
            digit = next(d for d, v in enumerate(got) if v != want[d])
            want = {"digit": digit, "increment": got[digit] - z,
                    "want": want[digit] - z}
            if sized:
                want["size"] = down.size[kids[digit]]
        return {"n": n, "stat": stat.name, **want,
                "parent": tree.unrank(rank, n - 1, record.kind).to_json()}
    return None


def edge_witness(stat: Statistic, kind: str, n: int) -> dict | None:
    """First violation of the statistic's transition law on the edges
    into level n, in rank order, or None when every batch holds it.
    The law is the recursion's, :func:`stats.transition_law`, with an
    increment vector built only up to r_n, the last entry an edge into
    level n reads.

    An increment vector r asks every edge whose child has a
    maximal-label block of size j to change the statistic by r_j (0 past
    the vector); the child's block size is its state's, which the scan
    measured on a labelled child.  An (alpha, beta; q) law asks for the
    alpha jump on the distinguished children, the beta jump elsewhere,
    and a distinguished subset of size Z + q.
    """
    if n < 2:
        raise ValueError(f"the edges into level {n} need n >= 2")
    law = transition_law(stat, kind, n)
    record = scan_record(kind, n)
    if not isinstance(law, SecondKindInput):
        step = (0, *law) + (0,) * (n - len(law))  # step[j] is r_j
        rise = [step[j] for j in record.levels[n].size]  # by level-n state
        return _batch_witness(stat, record, n, lambda i, z, kids: [
            z + rise[k] for k in kids], sized=True)
    points = tree._scale(kind) * (n - 1)
    alpha, beta, q = law

    def want_of(i: int, z: int, kids):
        core = _core_digits(stat, kind, record.partitions[i], points)
        if len(core) != z + q:
            return {"core_size": len(core), "want": z + q}
        return [z + (alpha if d in core else beta) for d in range(len(kids))]
    return _batch_witness(stat, record, n, want_of, sized=False)


# ---------------------------------------------------------------------------
# recursions

def recurse_first_kind(r: Sequence[int], seeds: Sequence[ExactPolynomial],
                       n: int) -> ExactPolynomial:
    """Level-n transform from the per-edge increment vector r.

    Seeds are the transforms at levels 1..len(seeds) with len(seeds) >=
    len(r): a vector of length 1, as Y's (1,), needs one seed, since
    then L_m = (1 + m t^r_1) L_(m-1).  Intermediate monomial
    shifts may dip below exponent zero; each summed level takes the
    polynomials' normal form, which refuses a surviving negative exponent
    and keeps integral coefficients as ints, for integer arithmetic.
    """
    r = tuple(int(x) for x in r)
    if not r:
        raise ValueError("empty increment vector")
    k = len(r)
    if len(seeds) < k:
        raise InsufficientSeed(f"need {k} seed levels, got {len(seeds)}")
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    if n <= len(seeds):
        return seeds[n - 1]
    levels = [dict(seed.items()) for seed in seeds]
    prefix = [sum(r[:j]) for j in range(k)]  # prefix[j] = r_1 + ... + r_j
    for m in range(len(seeds) + 1, n + 1):
        acc = dict(levels[m - 2])  # the level above, unshifted and unscaled

        def add(level: dict, shift: int, scale: int):
            for e, c in level.items():
                key = e + shift
                acc[key] = acc.get(key, 0) + scale * c

        add(levels[m - 2], r[0], m)
        for j in range(2, k + 1):
            if r[j - 1] == 0:
                continue
            add(levels[m - j - 1], r[j - 1] + prefix[j - 1], m - j + 1)
            add(levels[m - j - 1], prefix[j - 1], -(m - j + 1))
        levels.append(_normal_form(acc))
    return ExactPolynomial(levels[n - 1])


def recurse_second_kind(law: SecondKindInput, seed: ExactPolynomial,
                        n: int, kind: str = FULL) -> ExactPolynomial:
    """Level-n transform from the insertion law (alpha, beta; q).

    ``seed`` is the level-1 transform.  The step multiplies by
    q*t^alpha + (children - q)*t^beta and adds (t^(alpha+1) -
    t^(beta+1)) times the derivative, where children is the child count
    of a level m-1 node (m+1 on the full tree, 2m-1 on the pair tree).
    Term by term, c*t^e steps to (q+e)*c*t^(e+alpha) +
    (children-q-e)*c*t^(e+beta), each level in normal form as above.
    """
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    alpha, beta, q = law.alpha, law.beta, law.q
    cur = dict(seed.items())
    for m in range(2, n + 1):
        rest = tree._radix(m - 1, kind) - q
        nxt: dict = {}
        for e, c in cur.items():
            nxt[e + alpha] = nxt.get(e + alpha, 0) + (q + e) * c
            nxt[e + beta] = nxt.get(e + beta, 0) + (rest - e) * c
        cur = _normal_form(nxt)
    return ExactPolynomial(cur)


def recursion_transform(stat: Statistic, n: int,
                        kind: str = FULL) -> ExactPolynomial:
    """Level-n transform via the statistic's transition law
    (:func:`stats.transition_law`) from its brute-forced
    :func:`stats.seed_levels`; a level among several seeds is its own, and
    builds no vector."""
    k = seed_levels(stat, kind)
    if 1 < k and n <= k:
        return bruteforce_transform(stat, n, kind)
    law = transition_law(stat, kind)
    # the deepest seed first, so a seed past the scan builds no child
    seeds = [bruteforce_transform(stat, m, kind)
             for m in range(k, 0, -1)][::-1]
    if isinstance(law, SecondKindInput):
        return recurse_second_kind(law, seeds[0], n, kind)
    return recurse_first_kind(law, seeds, n)


# ---------------------------------------------------------------------------
# moments

def expectation_from_laplace(poly: ExactPolynomial) -> Fraction:
    """Mean of the statistic whose transform is ``poly``."""
    total = poly.evaluate(1)
    if total == 0:
        raise ZeroPolynomial("transform sums to zero")
    return poly.derivative().evaluate(1) / total


def variance_from_laplace(poly: ExactPolynomial) -> Fraction:
    """Variance of the statistic whose transform is ``poly``: the
    factorial moment P''(1)/P(1) plus the mean minus its square."""
    mean = expectation_from_laplace(poly)
    falling = poly.derivative().derivative().evaluate(1) / poly.evaluate(1)
    return falling + mean - mean * mean
