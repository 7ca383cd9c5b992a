"""Rooted trees on monotonically ordered non-crossing partitions.

Two trees share one node type.  In the "full" tree the nodes at depth n
are the ordered partitions of {1..n}: a child either inserts a new
maximal-label singleton at one of n+1 gaps or extends the current
maximal-label block by one point on its right.  In the "pair" tree the
nodes at depth n are the ordered pair-partitions of {1..2n}: a child
splices a new maximal-label pair {m, m+1} into one of 2n+1 gaps.

Deleting the last point (or pair) of the maximal-label block recovers
the parent, so every node has a unique digit word recording the child
index chosen at each depth.  The digit words give ranking, unranking and
O(depth)-memory enumeration in rank order.

All children of one node are built in one batch by a stepping row.  At
the last gap the row is the node itself.  Each step moves the new point
one place left, past one old point, so only the block holding that point
changes: the point is raised into the block's tail.  Each child is a
copy of the row with the new block in its last slot.  A single child
step is the same row over one gap: every block is classified once,
reused as is below the new point and split into its points below it and
a raised tail otherwise.  The level walk runs its odometer above the
leaf level and takes each parent's leaves from one batch.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Optional

from .partitions import NcPartition, nesting_parents, validate_noncrossing

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
        blocks = tuple(tuple(sorted(b)) for b in blocks_by_label)
        part = validate_noncrossing(blocks, n)
        label_of = {b: i + 1 for i, b in enumerate(blocks)}
        parents = nesting_parents(part)
        for idx, par in enumerate(parents):
            if par is None:
                continue
            if label_of[part.blocks[idx]] <= label_of[part.blocks[par]]:
                raise ValueError(
                    f"labels not monotonic: {part.blocks[idx]} nested in "
                    f"{part.blocks[par]} needs the larger label")
        return cls(n, blocks)

    @property
    def k(self) -> int:
        """Number of blocks."""
        return len(self.blocks_by_label)

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

    def is_pair_partition(self) -> bool:
        return all(len(b) == 2 for b in self.blocks_by_label)

    def to_json(self) -> dict:
        return {"n": self.n, "blocks_by_label": [list(b) for b in self.blocks_by_label]}

    @classmethod
    def from_json(cls, data: dict) -> "OrderedNcPartition":
        return cls.checked(data["n"], data["blocks_by_label"])

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

def _rows(blocks, shift, marks):
    """The children that insert a new block of ``shift`` points
    m, ..., m+shift-1 at each mark m of the range ``marks``, in order:
    every old point >= m is raised by ``shift``, and the new block takes
    the last label.

    One row steps along the marks, from the last down to the first.  At
    the last mark every block is classified: a block wholly below it is
    reused as is, a block wholly at or above it is raised whole, and a
    block that straddles it keeps its points below the mark and takes
    the raised rest.  The raised part of a block is its tail.  Stepping
    from mark m+1 down to m raises only point m, so only the block that
    holds it changes: its tail gains m+shift at the front, and the block
    becomes its points below m followed by the tail.  The new block sits
    in the row's last slot, so each further child costs one block update
    and one copy of the row.  When the range ends past every point, as
    for a whole sibling batch, the starting row is the node itself and
    nothing is raised up front.
    """
    first, last = marks[0], marks[-1]
    row = []
    tails = []
    for b in blocks:
        if b[-1] < last:
            row.append(b)
            tails.append(())
        elif b[0] >= last:
            tail = tuple([x + shift for x in b])
            row.append(tail)
            tails.append(tail)
        else:
            j = bisect_left(b, last)
            tail = tuple([x + shift for x in b[j:]])
            row.append(b[:j] + tail)
            tails.append(tail)
    row.append(tuple(range(last, last + shift)))
    kids = [tuple(row)]
    if last == first:
        return kids
    slot = {x: i for i, b in enumerate(blocks) for x in b}
    # the new block at each mark m = last-1, ..., first: m, ..., m+shift-1
    news = zip(*[range(last - 1 + k, first - 1 + k, -1) for k in range(shift)])
    for m, new in zip(range(last - 1, first - 1, -1), news):
        i = slot[m]
        b = blocks[i]
        tail = tails[i] = (m + shift,) + tails[i]
        row[i] = b[:b.index(m)] + tail
        row[-1] = new
        kids.append(tuple(row))
    kids.reverse()
    return kids


def _kids_full(blocks, n):
    """All n+2 children of a full-tree node in digit order.  The
    elongation child is the insertion child at the gap after the last
    point q of the maximal-label block, with the new point q+1 joined to
    that block instead of standing alone."""
    kids = _rows(blocks, 1, range(1, n + 2))
    q = blocks[-1][-1]
    kids.append(kids[q][:-2] + (blocks[-1] + (q + 1,),))
    return kids


def _kids_pair(blocks, n):
    """All n+1 children of a node on {1..n}: the pair {m, m+1} spliced in
    at every gap m = 1..n+1, in digit order."""
    return _rows(blocks, 2, range(1, n + 2))


def _child_full(blocks, n, d):
    if d < 0 or d > n + 1:
        raise DigitOutOfRange(f"digit {d} not in 0..{n + 1}")
    if d <= n:
        return _rows(blocks, 1, range(d + 1, d + 2))[0]
    q = blocks[-1][-1]
    return (_rows(blocks, 1, range(q + 1, q + 2))[0][:-2]
            + (blocks[-1] + (q + 1,),))


def _child_pair(blocks, n, d):
    if d < 0 or d > n:
        raise DigitOutOfRange(f"digit {d} not in 0..{n}")
    return _rows(blocks, 2, range(d + 1, d + 2))[0]


def _parent_full(blocks):
    j = blocks[-1]
    m = j[-1]
    rest = blocks[:-1] if len(j) == 1 else blocks[:-1] + (j[:-1],)
    return tuple(tuple(x - 1 if x > m else x for x in b) for b in rest)


def _parent_pair(blocks):
    m = blocks[-1][0]
    return tuple(tuple(x - 2 if x > m + 1 else x for x in b) for b in blocks[:-1])


def _steps(kind):
    """The single child step, the sibling batch and the ground size per
    depth of one tree."""
    _require_kind(kind)
    if kind == FULL:
        return _child_full, _kids_full, 1
    return _child_pair, _kids_pair, 2


# ---------------------------------------------------------------------------
# public node operations

def full_root() -> OrderedNcPartition:
    return OrderedNcPartition(1, ((1,),))

def pair_root() -> OrderedNcPartition:
    return OrderedNcPartition(2, ((1, 2),))


def parent(op: OrderedNcPartition) -> OrderedNcPartition:
    """Delete the last point of the maximal-label block."""
    if op.n <= 1:
        raise RootHasNoParent("already at the one-point partition")
    return OrderedNcPartition(op.n - 1, _parent_full(op.blocks_by_label))


def children(op: OrderedNcPartition) -> list[OrderedNcPartition]:
    """All n+2 children in digit order: insertions at gaps 1..n+1, then
    the elongation of the maximal-label block."""
    n = op.n
    return [OrderedNcPartition(n + 1, kid) for kid in _kids_full(op.blocks_by_label, n)]


def pair_parent(op: OrderedNcPartition) -> OrderedNcPartition:
    """Delete the maximal-label pair; equals parent applied twice."""
    if op.n <= 2:
        raise RootHasNoParent("already at the one-pair partition")
    j = op.blocks_by_label[-1]
    if len(j) != 2 or j[1] != j[0] + 1:
        raise ValueError(f"maximal-label block {j} is not an interval pair")
    return OrderedNcPartition(op.n - 2, _parent_pair(op.blocks_by_label))


def pair_children(op: OrderedNcPartition) -> list[OrderedNcPartition]:
    """All 2n+1 children in digit order: pair spliced in at gaps 1..2n+1."""
    n = op.n
    return [OrderedNcPartition(n + 2, kid) for kid in _kids_pair(op.blocks_by_label, n)]


def child_at(op: OrderedNcPartition, digit: int, kind: str = FULL) -> OrderedNcPartition:
    """The single child selected by ``digit``, without building siblings."""
    _require_kind(kind)
    if kind == FULL:
        return OrderedNcPartition(op.n + 1, _child_full(op.blocks_by_label, op.n, digit))
    return OrderedNcPartition(op.n + 2, _child_pair(op.blocks_by_label, op.n, digit))


# ---------------------------------------------------------------------------
# tree codes, ranking, enumeration

@dataclass(frozen=True)
class TreeCode:
    """Mixed-radix child-index word addressing one tree node.

    ``digits[i]`` picks the child at depth i+1; valid digits run to
    depth+2 exclusive in the full tree and 2*depth+1 exclusive in the
    pair tree.
    """

    kind: str
    digits: tuple[int, ...]

    @property
    def level(self) -> int:
        return len(self.digits) + 1

    def to_json(self) -> dict:
        return {"kind": self.kind, "digits": list(self.digits)}

    @classmethod
    def from_json(cls, data: dict) -> "TreeCode":
        kind = data["kind"]
        _require_kind(kind)
        return cls(kind, tuple(int(d) for d in data["digits"]))


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
    child, _, scale = _steps(code.kind)
    blocks = ((1,),) if code.kind == FULL else ((1, 2),)
    for depth, d in enumerate(code.digits, start=1):
        blocks = child(blocks, scale * depth, d)
    n = len(code.digits) + 1
    return OrderedNcPartition(n if code.kind == FULL else 2 * n, blocks)


def encode(op: OrderedNcPartition, kind: str = FULL) -> TreeCode:
    """Recover the digit word by walking parents up to the root."""
    _require_kind(kind)
    digits = []
    cur = op
    if kind == FULL:
        while cur.n > 1:
            j = cur.max_label_block()
            digits.append(j[0] - 1 if len(j) == 1 else cur.n)
            cur = parent(cur)
    else:
        while cur.n > 2:
            digits.append(cur.max_label_block()[0] - 1)
            cur = pair_parent(cur)
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


def _walk(path: list, n: int, kind: str, start: int = 0,
          count: Optional[int] = None) -> Iterator[int]:
    """Rank-order odometer over the depth-n nodes from rank ``start``.

    Keeps the caller-owned ``path`` filled with the raw blocks of the
    current node's ancestors (``path[i]`` sits at depth i+1, ``path[-1]``
    is the node itself) and yields ``fresh``: the first path index whose
    node has the current node as its leftmost descendant.  Stops after
    ``count`` nodes, or, when ``count`` is None, once every digit is at
    its maximum.  The odometer runs above the leaf level only: the
    leaves under one parent come from one sibling batch.
    """
    child, kids, scale = _steps(kind)
    if n < 1:
        raise ValueError(f"depth must be >= 1, got {n}")
    digits = _digits_from_rank(start, n, kind)
    path[:] = [((1,),) if kind == FULL else ((1, 2),)]
    for depth, d in enumerate(digits, start=1):
        path.append(child(path[-1], scale * depth, d))
    fresh = n - 1
    while fresh > 0 and digits[fresh - 1] == 0:
        fresh -= 1
    yield fresh
    if n == 1:
        return
    leaf, d = n - 1, digits[-1]
    batch = kids(path[-2], scale * leaf)
    radii = [_radix(depth, kind) for depth in range(1, leaf)]
    remaining = -1 if count is None else count - 1
    while remaining:
        d += 1
        if d < len(batch):
            path[leaf] = batch[d]
            yield leaf
        else:
            i = leaf - 1
            while i > 0 and digits[i - 1] == radii[i - 1] - 1:
                i -= 1
            if i == 0:
                return
            digits[i - 1] += 1
            path[i] = child(path[i - 1], scale * i, digits[i - 1])
            for j in range(i + 1, leaf):
                digits[j - 1] = 0
                path[j] = child(path[j - 1], scale * j, 0)
            batch = kids(path[leaf - 1], scale * leaf)
            d = 0
            path[leaf] = batch[0]
            yield i
        remaining -= 1


def iter_level(n: int, kind: str = FULL, start: int = 0,
               stop: Optional[int] = None) -> Iterator[OrderedNcPartition]:
    """Yield the depth-n nodes with ranks in [start, stop) in rank order.

    Iterative depth-first walk over the digit word.  Beyond the yielded
    element, memory holds the O(n) ancestors and one parent's batch of at
    most n+2 leaves.  A batch starts from the parent's own row and costs
    one block update and one C-level copy of the row per leaf; a leaf
    shares with its parent every block that lies wholly below its new
    point.
    """
    total = level_count(n, kind)
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise RankOutOfRange(f"range [{start}, {stop}) not within [0, {total})")
    if start == stop:
        return
    ground = n if kind == FULL else 2 * n
    path: list = []
    for _ in _walk(path, n, kind, start, stop - start):
        yield OrderedNcPartition(ground, path[-1])


def stream_level(n: int, kind: str = FULL) -> Iterator[OrderedNcPartition]:
    """Yield every depth-n node, stopping only when the walk is exhausted.

    Unlike :func:`iter_level` this never consults the counting formula:
    the walk ends when every digit sits at its maximum, so the number of
    nodes produced is independent evidence for :func:`level_count`.
    """
    ground = n if kind == FULL else 2 * n
    path: list = []
    for _ in _walk(path, n, kind):
        yield OrderedNcPartition(ground, path[-1])
