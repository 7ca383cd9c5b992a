"""Independent reference constructions used as cross-checks.

Nothing here touches the tree walk: non-crossing partitions come from an
interval-splitting recursion on the block of 1, pair-partitions from a
first-point pairing recursion, and monotonic labellings from filtering
all label permutations against the nesting condition.  Moments of given
monotone cumulants come from the Catalan-time weighted sum over all
non-crossing partitions, a second route to the library's semigroup
recurrence.  The outer-block, interval-pair and area evaluators read a
partition through pairwise nesting, point adjacency and the Dyck path,
not through the library's span sweep.  Deliberately separate code paths
so agreement with the library is evidence, not tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from collections.abc import Sequence
from itertools import combinations, permutations, product

from .partitions import NcPartition
from .stats import dyck_path, path_area

Blocks = tuple[tuple[int, ...], ...]


def _shift(blocks: Blocks, offset: int) -> Blocks:
    return tuple(tuple(x + offset for x in b) for b in blocks)


@lru_cache(maxsize=None)
def noncrossing_partitions(n: int) -> tuple[Blocks, ...]:
    """All non-crossing partitions of {1..n}, canonical block order.

    Recursion on the block containing 1: the chosen support splits the
    rest into independent gaps, each partitioned recursively.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []
    for extra in range(n):
        for rest in combinations(range(2, n + 1), extra):
            support = (1,) + rest
            ends = support + (n + 1,)
            gaps = [(ends[i] + 1, ends[i + 1] - 1) for i in range(len(support))]
            gap_choices = [noncrossing_partitions(hi - lo + 1) for lo, hi in gaps]
            for parts in product(*gap_choices):
                blocks = [support]
                for (lo, _), sub in zip(gaps, parts):
                    blocks.extend(_shift(sub, lo - 1))
                out.append(tuple(sorted(blocks)))
    return tuple(out)


@lru_cache(maxsize=None)
def noncrossing_pair_partitions(n: int) -> tuple[Blocks, ...]:
    """All non-crossing pair-partitions of {1..2n}, canonical order.

    Recursion on the partner of 1: pairing 1 with 2k leaves independent
    inside and outside regions.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []
    for k in range(1, n + 1):
        for left in noncrossing_pair_partitions(k - 1):
            for right in noncrossing_pair_partitions(n - k):
                blocks = [(1, 2 * k)]
                blocks.extend(_shift(left, 1))
                blocks.extend(_shift(right, 2 * k))
                out.append(tuple(sorted(blocks)))
    return tuple(out)


def _nesting_pairs(blocks: Blocks) -> list[tuple[int, int]]:
    """(inner, outer) index pairs; inner must get the larger label."""
    pairs = []
    for i, a in enumerate(blocks):
        for j, b in enumerate(blocks):
            if i != j and a[0] > b[0] and a[-1] < b[-1]:
                pairs.append((i, j))
    return pairs


def outer_count(blocks: Blocks) -> int:
    """Blocks nested inside no other block, by the pairwise nesting test."""
    return len(blocks) - len({inner for inner, _ in _nesting_pairs(blocks)})


def interval_pair_count(blocks: Blocks) -> int:
    """Blocks {m, m+1}: adjacent points m, m+1 whose shared block holds
    no other point."""
    owner = {x: b for b in blocks for x in b}
    return sum(1 for m, b in owner.items()
               if owner.get(m + 1) == b and len(b) == 2)


def pair_area(blocks: Blocks) -> int:
    """Area under the Dyck path of a pair-partition, in any block order."""
    part = NcPartition(2 * len(blocks), tuple(sorted(blocks)))
    return path_area(dyck_path(part))


def monotonic_orderings(blocks: Blocks) -> list[Blocks]:
    """All label orders of ``blocks`` with nested blocks labelled later.

    Returned as by-label block lists; brute force over all k!
    permutations, filtered against every nesting pair.
    """
    k = len(blocks)
    pairs = _nesting_pairs(blocks)
    out = []
    for perm in permutations(range(k)):
        label_of = [0] * k
        for pos, idx in enumerate(perm):
            label_of[idx] = pos
        if all(label_of[i] > label_of[j] for i, j in pairs):
            out.append(tuple(blocks[idx] for idx in perm))
    return out


def ordering_count(blocks: Blocks) -> int:
    """Number of monotonic label orders, by the permutation filter."""
    return len(monotonic_orderings(blocks))


def moments_by_partition_sum(cumulants: Sequence) -> tuple[Fraction, ...]:
    """Moments 1..len(cumulants) of the given monotone cumulants: the sum
    over NC(n) of the products of block cumulants, each partition weighted
    by its filtered ordering count over k! for its k blocks."""
    cums = [Fraction(c) for c in cumulants]
    moments = []
    for n in range(1, len(cums) + 1):
        total = Fraction(0)
        for blocks in noncrossing_partitions(n):
            term = Fraction(ordering_count(blocks), math.factorial(len(blocks)))
            for b in blocks:
                term *= cums[len(b) - 1]
            total += term
        moments.append(total)
    return tuple(moments)


def ordered_partitions_by_filter(n: int) -> set[Blocks]:
    """Every ordered partition of {1..n} as a by-label block tuple."""
    out: set[Blocks] = set()
    for blocks in noncrossing_partitions(n):
        out.update(monotonic_orderings(blocks))
    return out


def ordered_pair_partitions_by_filter(n: int) -> set[Blocks]:
    """Every ordered pair-partition of {1..2n} as a by-label tuple."""
    out: set[Blocks] = set()
    for blocks in noncrossing_pair_partitions(n):
        out.update(monotonic_orderings(blocks))
    return out


def has_crossing_naive(blocks: Blocks) -> bool:
    """Quartic-time crossing test, kept as an oracle for the fast sweep."""
    for i, a in enumerate(blocks):
        for b in blocks[i + 1:]:
            for a1 in a:
                for a3 in a:
                    if a1 >= a3:
                        continue
                    for a2 in b:
                        for a4 in b:
                            if a2 >= a4:
                                continue
                            if a1 < a2 < a3 < a4 or a2 < a1 < a4 < a3:
                                return True
    return False
