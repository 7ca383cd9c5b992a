"""Canonical non-crossing set partitions of {1..n}.

Blocks are stored as sorted tuples, listed in increasing order of their
minima.  Values are immutable and every operation is a pure function, so
partitions can be shared freely.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable


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


class NotPairPartition(ValueError):
    """All blocks must have exactly two elements for this operation."""


def _field(data, name: str, *kinds: type):
    """``data[name]`` of a JSON record, or a ValueError that names the
    field when the record lacks it or holds none of ``kinds`` there."""
    if not isinstance(data, dict) or name not in data:
        raise ValueError(f"the record has no field {name!r}")
    value = data[name]
    if kinds and not isinstance(value, kinds):
        raise ValueError(
            f"field {name!r} must be a {kinds[0].__name__}, got {value!r}")
    return value


class NcPartition(namedtuple("NcPartition", "n blocks")):
    """A non-crossing partition of {1..n} in canonical block order:
    ``blocks`` is a tuple of sorted int tuples.

    The constructor trusts its input; route untrusted data through
    :func:`validate_noncrossing`.
    """

    __slots__ = ()

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
        return validate_noncrossing(_field(data, "blocks", list, tuple),
                                    _field(data, "n"))

    def __str__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return "{" + inner + "}"


def validate_noncrossing(blocks: Iterable[Iterable[int]], n: int) -> NcPartition:
    """Canonicalize and fully check a block list over the ground set {1..n}.

    Crossing detection is a single left-to-right sweep keeping a stack of
    open blocks; on a mismatch the offending quadruple is reconstructed
    and attached to the :class:`Crossing` error.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise NotAPartition(f"ground set size must be a positive integer, got {n!r}")
    try:
        cleaned = sorted(tuple(sorted(block)) for block in blocks)
    except TypeError:
        raise NotAPartition(
            f"blocks must be lists of points, got {blocks!r}") from None
    if cleaned and not cleaned[0]:
        raise NotAPartition("empty block")
    # sized by the points given, not by n, so a large n costs nothing
    # before the coverage check refuses it
    owner: dict[int, int] = {}
    for idx, b in enumerate(cleaned):
        for x in b:
            if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= n:
                raise NotAPartition(f"element {x!r} outside 1..{n}")
            if x in owner:
                raise NotAPartition(f"element {x} appears twice")
            owner[x] = idx
    if len(owner) < n:
        x = next((x for x, point in enumerate(sorted(owner), 1) if x != point),
                 len(owner) + 1)
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


def _nesting_sweep(blocks) -> list[tuple[int, int | None]]:
    """``(index, parent index)`` for each block in increasing order of
    minima, in one stack sweep; ``blocks`` are sorted tuples in any
    order."""
    sweep = []
    stack: list[int] = []
    for idx in sorted(range(len(blocks)), key=lambda i: blocks[i][0]):
        while stack and blocks[stack[-1]][-1] < blocks[idx][0]:
            stack.pop()
        sweep.append((idx, stack[-1] if stack else None))
        stack.append(idx)
    return sweep


def _span_sweep(blocks: Iterable[tuple[int, ...]]) -> list[int]:
    """The minima of the outer blocks of a non-crossing partition, in
    one left-to-right pass over the spans.

    ``blocks`` are sorted tuples in any order; only each block's min and
    max are read, and sorting the tuples orders them by min because the
    minima are distinct.  Without crossings a block is outer exactly
    when its min lies past the max of the last outer block, and only
    outer blocks extend the reach.
    """
    outer = []
    reach = 0
    for b in sorted(blocks):
        if b[0] > reach:
            outer.append(b[0])
            reach = b[-1]
    return outer
