"""Canonical non-crossing set partitions of {1..n}.

Blocks are stored as sorted tuples, listed in increasing order of their
minima.  Values are immutable and every operation is a pure function, so
partitions can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional


class NotAPartition(ValueError):
    """Blocks fail to cover {1..n} exactly once."""


class Crossing(ValueError):
    """Two blocks interleave.

    ``witness`` holds a quadruple a1 < a2 < a3 < a4 with a1, a3 in one
    block and a2, a4 in the other.
    """

    def __init__(self, witness: tuple[int, int, int, int]):
        self.witness = tuple(witness)
        super().__init__(f"blocks cross at {self.witness}")


class EmptyKeep(ValueError):
    """restrict_relabel needs a non-empty keep set."""


class NotPairPartition(ValueError):
    """All blocks must have exactly two elements for this operation."""


@dataclass(frozen=True)
class NcPartition:
    """A non-crossing partition of {1..n} in canonical block order.

    The constructor trusts its input; route untrusted data through
    :func:`validate_noncrossing`.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def is_pair_partition(self) -> bool:
        return all(len(b) == 2 for b in self.blocks)

    def to_json(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, data: dict) -> "NcPartition":
        return validate_noncrossing(data["blocks"], data["n"])

    def __str__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return "{" + inner + "}"


def validate_noncrossing(blocks: Iterable[Iterable[int]], n: int) -> NcPartition:
    """Canonicalize and fully check a block list over the ground set {1..n}.

    Crossing detection is a single left-to-right sweep keeping a stack of
    open blocks; on a mismatch the offending quadruple is reconstructed
    and attached to the :class:`Crossing` error.
    """
    if not isinstance(n, int) or n < 1:
        raise NotAPartition(f"ground set size must be a positive integer, got {n!r}")
    cleaned = []
    for block in blocks:
        b = tuple(sorted(block))
        if not b:
            raise NotAPartition("empty block")
        cleaned.append(b)
    cleaned.sort()
    owner = [-1] * (n + 1)
    for idx, b in enumerate(cleaned):
        for x in b:
            if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= n:
                raise NotAPartition(f"element {x!r} outside 1..{n}")
            if owner[x] != -1:
                raise NotAPartition(f"element {x} appears twice")
            owner[x] = idx
    for x in range(1, n + 1):
        if owner[x] == -1:
            raise NotAPartition(f"element {x} not covered")
    stack: list[int] = []
    for i in range(1, n + 1):
        b = owner[i]
        if i == cleaned[b][0]:
            stack.append(b)
        elif stack[-1] != b:
            c = stack[-1]
            lo, hi = cleaned[c][0], cleaned[c][-1]
            a1 = max(x for x in cleaned[b] if x < lo)
            raise Crossing((a1, lo, i, hi))
        if i == cleaned[b][-1]:
            stack.pop()
    return NcPartition(n, tuple(cleaned))


def is_nested(p: NcPartition, inner: int, outer: int) -> bool:
    """Whether block ``inner`` sits strictly inside block ``outer``.

    Both arguments are indices into ``p.blocks``; they must be distinct.
    """
    if inner == outer:
        raise ValueError("block references must be distinct")
    a, b = p.blocks[inner], p.blocks[outer]
    return a[0] > b[0] and a[-1] < b[-1]


def nesting_parents(p: NcPartition) -> tuple[Optional[int], ...]:
    """For each block, the index of the innermost block containing it.

    Entries are ``None`` for outer blocks.  One stack sweep over the
    canonical order suffices because mins are increasing.
    """
    parents: list[Optional[int]] = []
    stack: list[int] = []
    for idx, b in enumerate(p.blocks):
        while stack and p.blocks[stack[-1]][-1] < b[0]:
            stack.pop()
        parents.append(stack[-1] if stack else None)
        stack.append(idx)
    return tuple(parents)


def _span_sweep(blocks: Iterable[tuple[int, ...]]) -> tuple[list[int], int, int]:
    """One left-to-right pass over the spans of a non-crossing partition.

    ``blocks`` are sorted tuples in any order; only each block's min and
    max are read, and sorting the tuples orders them by min because the
    minima are distinct.  Returns the minima of the outer blocks, the
    number of two-point interval blocks (max == min + 1), and the summed
    span sum(max - min).  Without crossings a block is outer exactly when
    its min lies past the max of the last outer block, and only outer
    blocks extend the reach.
    """
    outer = []
    ints = 0
    summed = 0
    reach = 0
    for b in sorted(blocks):
        lo = b[0]
        hi = b[-1]
        if lo > reach:
            outer.append(lo)
            reach = hi
        if hi == lo + 1:
            ints += 1
        summed += hi - lo
    return outer, ints, summed


def outer_blocks(p: NcPartition) -> list[int]:
    """Indices of blocks not nested inside any other block, in min order."""
    minima = set(_span_sweep(p.blocks)[0])
    return [idx for idx, b in enumerate(p.blocks) if b[0] in minima]


def interval_pairs(p: NcPartition) -> list[int]:
    """Indices of blocks of the form {m, m+1}.

    Not restricted to pair-partitions; any two-element interval counts.
    """
    return [i for i, b in enumerate(p.blocks) if len(b) == 2 and b[1] == b[0] + 1]


def restrict_relabel(p: NcPartition, keep: Iterable[int]) -> NcPartition:
    """Restrict to the points in ``keep`` and renumber them as 1..|keep|.

    The order-preserving renumbering keeps the non-crossing property, so
    the result is built directly.
    """
    kept = sorted(set(keep))
    if not kept:
        raise EmptyKeep("keep set is empty")
    if kept[0] < 1 or kept[-1] > p.n:
        raise ValueError(f"keep must be a subset of 1..{p.n}")
    pos = {x: i + 1 for i, x in enumerate(kept)}
    new_blocks = []
    for b in p.blocks:
        nb = tuple(pos[x] for x in b if x in pos)
        if nb:
            new_blocks.append(nb)
    new_blocks.sort()
    return NcPartition(len(kept), tuple(new_blocks))
