"""Rooted trees on monotonically ordered non-crossing partitions.

Two trees share one node type and one step rule, and differ only in the
number of points a step adds: one in the "full" tree, two in the "pair"
tree.  A child inserts a new maximal-label block of that many
consecutive points at one of the gaps.  The nodes at depth n of the full
tree are the ordered partitions of {1..n}; a full-tree node has one more
child, the elongation, which extends the maximal-label block by one
point on its right.  The nodes at depth n of the pair tree are the
ordered pair-partitions of {1..2n}.

Deleting the last point (or pair) of the maximal-label block recovers
the parent, so every node has a unique digit word recording the child
index chosen at each depth.  The digit words give ranking, unranking and
O(depth)-memory enumeration in rank order.

All children of one node are built in one batch by a stepping row.  At
the last gap the row is the node itself.  Each step moves the new point
one place left, past one old point, so only the block holding that point
changes: the point is raised into the block's tail.  Each child is a
copy of the row with the new block in its last slot.  The level walk
always covers a whole level, in rank order from rank 0, and takes every
node, inner or leaf, from its parent's batch.

A single child or parent step, as behind decoding, unranking and
ranking, shifts the points past the gap directly and shares no code
with the batches, so the walk and the codec are two constructions of
each node.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator

from .partitions import (NcPartition, _field, _nesting_sweep,
                         validate_noncrossing)

FULL = "full"
PAIR = "pair"
KINDS = (FULL, PAIR)


class RootHasNoParent(ValueError):
    """The depth-1 node has no parent."""


class DigitOutOfRange(ValueError):
    """A tree-code digit exceeds the child count at its depth."""


class RankOutOfRange(ValueError):
    """Rank outside 0 .. level_count-1."""


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


class OrderedNcPartition:
    """A non-crossing partition together with a monotonic block order.

    ``blocks_by_label[i]`` is the block carrying label i+1; a block
    nested inside another always carries the larger label.  The
    constructor trusts its input; use :meth:`checked` for foreign data.
    """

    __slots__ = ("n", "blocks_by_label")

    def __init__(self, n: int, blocks_by_label: tuple[tuple[int, ...], ...]):
        self.n = n
        self.blocks_by_label = blocks_by_label

    @classmethod
    def checked(cls, n: int, blocks_by_label) -> "OrderedNcPartition":
        validate_noncrossing(blocks_by_label, n)
        blocks = tuple(tuple(sorted(b)) for b in blocks_by_label)
        # indices into the by-label blocks are labels - 1
        for idx, par in _nesting_sweep(blocks):
            if par is not None and idx < par:
                raise ValueError(
                    f"labels not monotonic: {blocks[idx]} nested in "
                    f"{blocks[par]} needs the larger label")
        return cls(n, blocks)

    def partition(self) -> NcPartition:
        """Forget the labels; canonical min-sorted view."""
        return NcPartition(self.n, tuple(sorted(self.blocks_by_label)))

    def labels(self) -> tuple[int, ...]:
        """Labels of the canonical blocks, in min order."""
        return tuple(lab for _, lab in
                     sorted((b[0], i + 1) for i, b in enumerate(self.blocks_by_label)))

    def max_label_block(self) -> tuple[int, ...]:
        """The block with the largest label; always an interval."""
        return self.blocks_by_label[-1]

    def to_json(self) -> dict:
        return {"n": self.n, "blocks_by_label": [list(b) for b in self.blocks_by_label]}

    @classmethod
    def from_json(cls, data: dict) -> "OrderedNcPartition":
        return cls.checked(_field(data, "n"),
                           _field(data, "blocks_by_label", list, tuple))

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrderedNcPartition)
                and self.n == other.n
                and self.blocks_by_label == other.blocks_by_label)

    def __hash__(self) -> int:
        return hash((self.n, self.blocks_by_label))

    def __repr__(self) -> str:
        return f"OrderedNcPartition({self.n}, {self.blocks_by_label!r})"


# ---------------------------------------------------------------------------
# raw-tuple child/parent steps (hot path: no wrapper objects, no validation)

def _shift(blocks, past, by):
    """Move every point past ``past`` by ``by``; a block that lies wholly
    at or below ``past`` is reused as is."""
    return tuple([b if b[-1] <= past else tuple([x + by if x > past else x for x in b])
                  for b in blocks])


def _rows(blocks, shift, n):
    """The children of a node on {1..n} that insert a new block of
    ``shift`` points m, ..., m+shift-1 at each mark m = 1..n+1, in order:
    every old point >= m is raised by ``shift``, and the new block takes
    the last label.

    One row steps along the marks, from the last down to the first.  At
    mark n+1 the row is the node itself plus the new block.  The raised
    part of a block is its tail.  Stepping from mark m+1 down to m raises
    only point m, so only the block that holds it changes: its tail gains
    m+shift at the front, and the block becomes its points below m
    followed by the tail.  The new block sits in the row's last slot, so
    each further child costs one block update and one copy of the row.
    """
    row = list(blocks)
    row.append(tuple(range(n + 1, n + 1 + shift)))
    kids = [tuple(row)]
    tails = [()] * len(blocks)
    slot = {x: i for i, b in enumerate(blocks) for x in b}
    # the new block at each mark m = n, ..., 1: m, ..., m+shift-1
    news = zip(*[range(n + k, k, -1) for k in range(shift)])
    for m, new in zip(range(n, 0, -1), news):
        i = slot[m]
        b = blocks[i]
        tail = tails[i] = (m + shift,) + tails[i]
        row[i] = b[:b.index(m)] + tail
        row[-1] = new
        kids.append(tuple(row))
    kids.reverse()
    return kids


def _elongation(kid):
    """The full-tree elongation child, from the insertion child ``kid``
    at the gap just after the maximal-label block: the new point joins
    that block."""
    return kid[:-2] + (kid[-2] + kid[-1],)


def _kids(blocks, n, scale):
    """All children of a node on {1..n} in digit order: a new block of
    ``scale`` points inserted at every gap 1..n+1, then, in the full tree
    only, the elongation child."""
    kids = _rows(blocks, scale, n)
    if scale == 1:
        kids.append(_elongation(kids[blocks[-1][-1]]))
    return kids


def _child(blocks, n, d, scale):
    """The child of digit d alone, built by shifting points directly
    rather than from a sibling batch: digit d <= n inserts the new block
    at gap d+1, and digit n+1 is the full tree's elongation."""
    top = n + 2 - scale
    if d < 0 or d > top:
        raise DigitOutOfRange(f"digit {d} not in 0..{top}")
    if d <= n:
        return _shift(blocks, d, scale) + (tuple(range(d + 1, d + 1 + scale)),)
    return _elongation(_child(blocks, n, blocks[-1][-1], 1))


def _parent(blocks, scale):
    """Delete the last ``scale`` points of the maximal-label block, or the
    whole block when that is all of it, and close the gap they leave."""
    j = blocks[-1]
    rest = blocks[:-1] if len(j) <= scale else blocks[:-1] + (j[:-scale],)
    return _shift(rest, j[-1], -scale)


def _scale(kind):
    """Points a child step adds: 1 in the full tree, 2 in the pair tree."""
    _require_kind(kind)
    return 1 if kind == FULL else 2


def _root(scale):
    return (tuple(range(1, scale + 1)),)


# ---------------------------------------------------------------------------
# public node operations

def full_root() -> OrderedNcPartition:
    return OrderedNcPartition(1, _root(1))

def pair_root() -> OrderedNcPartition:
    return OrderedNcPartition(2, _root(2))


def parent(op: OrderedNcPartition) -> OrderedNcPartition:
    """Delete the last point of the maximal-label block."""
    if op.n <= 1:
        raise RootHasNoParent("already at the one-point partition")
    return OrderedNcPartition(op.n - 1, _parent(op.blocks_by_label, 1))


def children(op: OrderedNcPartition) -> list[OrderedNcPartition]:
    """All n+2 children in digit order: insertions at gaps 1..n+1, then
    the elongation of the maximal-label block."""
    n = op.n
    return [OrderedNcPartition(n + 1, kid) for kid in _kids(op.blocks_by_label, n, 1)]


def pair_parent(op: OrderedNcPartition) -> OrderedNcPartition:
    """Delete the maximal-label pair; equals parent applied twice."""
    if op.n <= 2:
        raise RootHasNoParent("already at the one-pair partition")
    j = op.blocks_by_label[-1]
    if len(j) != 2 or j[1] != j[0] + 1:
        raise ValueError(f"maximal-label block {j} is not an interval pair")
    return OrderedNcPartition(op.n - 2, _parent(op.blocks_by_label, 2))


def pair_children(op: OrderedNcPartition) -> list[OrderedNcPartition]:
    """All 2n+1 children in digit order: pair spliced in at gaps 1..2n+1."""
    n = op.n
    return [OrderedNcPartition(n + 2, kid) for kid in _kids(op.blocks_by_label, n, 2)]


def child_at(op: OrderedNcPartition, digit: int, kind: str = FULL) -> OrderedNcPartition:
    """The single child selected by ``digit``, without building siblings."""
    scale = _scale(kind)
    return OrderedNcPartition(op.n + scale,
                              _child(op.blocks_by_label, op.n, digit, scale))


# ---------------------------------------------------------------------------
# tree codes, ranking, enumeration

class TreeCode(namedtuple("TreeCode", "kind digits")):
    """Mixed-radix child-index word addressing one tree node.

    ``digits[i]`` picks the child at depth i+1; valid digits run to
    depth+2 exclusive in the full tree and 2*depth+1 exclusive in the
    pair tree.
    """

    __slots__ = ()

    @property
    def level(self) -> int:
        return len(self.digits) + 1

    def to_json(self) -> dict:
        return {"kind": self.kind, "digits": list(self.digits)}

    @classmethod
    def from_json(cls, data: dict) -> "TreeCode":
        kind = _field(data, "kind")
        _require_kind(kind)
        digits = tuple(_field(data, "digits", list, tuple))
        for d in digits:
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"digit {d!r} is not an integer")
        return cls(kind, digits)


def _radix(depth: int, kind: str) -> int:
    """Child count of a node at the given depth."""
    return depth + 2 if kind == FULL else 2 * depth + 1


def level_count(n: int, kind: str = FULL) -> int:
    """Number of nodes at depth n: (n+1)!/2, or (2n-1)!! in the pair tree."""
    _require_kind(kind)
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    if kind == FULL:
        return math.factorial(n + 1) // 2
    return math.prod(range(1, 2 * n, 2))


def decode(code: TreeCode) -> OrderedNcPartition:
    """Walk the digit word from the root down to its node."""
    scale = _scale(code.kind)
    blocks = _root(scale)
    for depth, d in enumerate(code.digits, start=1):
        blocks = _child(blocks, scale * depth, d, scale)
    return OrderedNcPartition(scale * (len(code.digits) + 1), blocks)


def encode(op: OrderedNcPartition, kind: str = FULL) -> TreeCode:
    """Recover the digit word by walking parents up to the root."""
    scale = _scale(kind)
    digits = []
    cur = op
    while cur.n > scale:
        j = cur.max_label_block()
        digits.append(j[0] - 1 if len(j) == scale else cur.n)
        cur = parent(cur) if scale == 1 else pair_parent(cur)
    digits.reverse()
    return TreeCode(kind, tuple(digits))


def rank_of(op: OrderedNcPartition, kind: str = FULL) -> int:
    """Position of the node in rank order at its depth."""
    code = encode(op, kind)
    r = 0
    for depth, d in enumerate(code.digits, start=1):
        r = r * _radix(depth, kind) + d
    return r


def _digits_from_rank(k: int, n: int, kind: str) -> list[int]:
    digits = [0] * (n - 1)
    for depth in range(n - 1, 0, -1):
        k, digits[depth - 1] = divmod(k, _radix(depth, kind))
    return digits


def unrank(k: int, n: int, kind: str = FULL) -> OrderedNcPartition:
    """The node of the given rank at depth n."""
    _require_kind(kind)
    total = level_count(n, kind)
    if not 0 <= k < total:
        raise RankOutOfRange(f"rank {k} not in 0..{total - 1}")
    return decode(TreeCode(kind, tuple(_digits_from_rank(k, n, kind))))


def _walk(n: int, kind: str) -> Iterator[tuple]:
    """Rank-order odometer yielding the raw blocks of each depth-n node.

    ``path`` holds the current node's ancestors (``path[i]`` sits at
    depth i+1, ``path[-1]`` is the node itself).  Stops once every digit
    is at its maximum.  Every path node is taken from its parent's
    sibling batch: ``rest[i]`` iterates over the siblings of ``path[i]``
    still to come, and is rebuilt only when ``path[i-1]`` changes.
    """
    scale = _scale(kind)
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    leaf = n - 1
    path = [_root(scale)] * n
    rest = [iter(())] * n  # rest[0] stays empty: the root has no siblings
    i = 0
    while True:
        while i < leaf:
            i += 1
            siblings = rest[i] = iter(_kids(path[i - 1], scale * i, scale))
            path[i] = next(siblings)
        yield path[-1]
        while (node := next(rest[i], None)) is None:
            if not i:
                return
            i -= 1
        path[i] = node


def stream_level(n: int, kind: str = FULL) -> Iterator[OrderedNcPartition]:
    """Yield every depth-n node, walking the whole level in rank order.

    Iterative depth-first walk over the digit word.  Beyond the yielded
    element, memory holds the O(n) ancestors and the sibling batch of
    each, at most n+2 nodes apiece.  A batch starts from the parent's own
    row and costs one block update and one C-level copy of the row per
    child; a child shares with its parent every block that lies wholly
    below its new point.  The walk never consults the counting formula:
    it ends when every digit sits at its maximum, so the number of nodes
    produced is independent evidence for :func:`level_count`.
    """
    ground = _scale(kind) * n
    for blocks in _walk(n, kind):
        yield OrderedNcPartition(ground, blocks)


def iter_level(n: int, kind: str = FULL) -> Iterator[OrderedNcPartition]:
    """The walk of :func:`stream_level`, under its older name.

    A generator of its own, not an alias, so that a tracer can wrap
    each name apart.
    """
    yield from stream_level(n, kind)
