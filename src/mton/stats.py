"""Block statistics of ordered partitions and their child-step laws.

Every statistic is evaluated from scratch off the block structure, never
incrementally along tree edges, so the certified transition laws below
are genuine cross-checks and not restatements of the evaluator.  One
evaluator reads every statistic off a partition's blocks, given in any
order: :func:`evaluate` calls it on a node, and the scan's
``ScanRecord`` (in :mod:`laplace`) on each distinct partition of a
level, which is how the brute-force transforms, the edge laws and the
tree lemmas read the statistics.

Two transition shapes appear.  A statistic of the first kind changes by
a fixed amount r_j on any edge whose child has a maximal-label block of
size j.  A statistic of the second kind changes by alpha on a
distinguished subset of insertion children, by beta on every other
child, where the distinguished subset has size Z(parent) + q.  The
witnesses that check both laws on every edge of a level, in
:mod:`laplace`, read the sibling batches the scan kept, once per parent
state, and each child's maximal-label block size through its state.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from io import TextIOBase

from . import tree
from .partitions import NcPartition, NotPairPartition, _span_sweep
from .polynomials import format_rational
from .tree import FULL, PAIR, OrderedNcPartition


class AreaRequiresPairPartition(NotPairPartition):
    """Area is only defined for pair-partitions."""


class NotFirstKind(ValueError):
    """No fixed per-edge increment vector exists for this statistic."""


class NotSecondKind(ValueError):
    """No insertion-subset transition law exists for this statistic."""


# each family's name, which parse reads back; a blocks_of_size statistic
# is named Y and its size, as Y2
_NAMES = {"blocks": "Y", "blocks_at_least3": "Yge3", "outer": "Out",
          "intervals": "Int", "area": "Area"}


class Statistic(namedtuple("Statistic", "family size", defaults=(0,))):
    """Identifier for one of the supported block statistics: ``family`` is
    blocks, blocks_of_size, blocks_at_least3, outer, intervals or area."""

    __slots__ = ()

    @property
    def name(self) -> str:
        if self.family == "blocks_of_size":
            return f"Y{self.size}"
        return _NAMES[self.family]

    @classmethod
    def parse(cls, text: str) -> "Statistic":
        if not isinstance(text, str):
            raise ValueError(f"a statistic is named by a string, got {text!r}")
        text = text.strip()
        for family, name in _NAMES.items():
            if text == name:
                return cls(family)
        if text.startswith("Y") and text[1:].isdigit() and int(text[1:]) >= 1:
            return blocks_of_size(int(text[1:]))
        raise ValueError(f"unknown statistic {text!r}")


BLOCKS = Statistic("blocks")
LARGE_BLOCKS = Statistic("blocks_at_least3")
OUTER = Statistic("outer")
INTERVAL_PAIRS = Statistic("intervals")
AREA = Statistic("area")


def blocks_of_size(size: int) -> Statistic:
    if size < 1:
        raise ValueError("block size must be >= 1")
    return Statistic("blocks_of_size", size)


# Y, Y1, ..., Y4, Yge3: the block-size statistics the tree lemmas check
SIZE_STATS = (BLOCKS, blocks_of_size(1), blocks_of_size(2), blocks_of_size(3),
              blocks_of_size(4), LARGE_BLOCKS)


def _block_sizes(blocks) -> list[int]:
    """The node's block sizes, in label order."""
    return list(map(len, blocks))


def evaluate(stat: Statistic, op: OrderedNcPartition) -> int:
    """Value of the statistic on one ordered partition."""
    return _evaluate_blocks(stat, op.blocks_by_label, op.n)


def _evaluate_blocks(stat: Statistic, blocks, n: int) -> int:
    """Value of the statistic on the blocks of a partition of {1..n},
    given in any order: no statistic reads the labels."""
    family = stat.family
    if family == "blocks":
        return len(blocks)
    if family == "blocks_of_size":
        return _block_sizes(blocks).count(stat.size)
    if family == "blocks_at_least3":
        sizes = _block_sizes(blocks)
        return len(sizes) - sizes.count(1) - sizes.count(2)
    if family == "outer":
        return len(_span_sweep(blocks))
    if family == "intervals":
        return sum(1 for b in blocks if len(b) == 2 and b[1] == b[0] + 1)
    if family == "area":
        if _block_sizes(blocks).count(2) != len(blocks):
            raise AreaRequiresPairPartition(f"n={n} partition has a non-pair block")
        lows, highs = zip(*blocks)
        return sum(highs) - sum(lows)
    raise ValueError(f"unknown statistic family {family!r}")


def area(p: NcPartition) -> int:
    """Sum of max(V) - min(V) over the blocks of a pair-partition."""
    return _evaluate_blocks(AREA, p.blocks, p.n)


def dyck_path(p: NcPartition) -> tuple[int, ...]:
    """Slope word of the lattice path: +1 at block minima, -1 at maxima."""
    if not p.is_pair_partition():
        raise NotPairPartition("dyck path needs a pair-partition")
    steps = [0] * p.n
    for lo, hi in p.blocks:
        steps[lo - 1] = 1
        steps[hi - 1] = -1
    return tuple(steps)


def path_area(steps: Sequence[int]) -> int:
    """Area under a +-1 step path, by exact trapezoid sums."""
    twice = 0
    h = 0
    for s in steps:
        twice += 2 * h + s
        h += s
        if h < 0:
            raise ValueError("path dips below height 0")
    if h != 0:
        raise ValueError("path does not return to height 0")
    if twice % 2:
        raise ValueError("non-integer area; path is not a +-1 step word")
    return twice // 2


# ---------------------------------------------------------------------------
# transition laws

class SecondKindInput(namedtuple("SecondKindInput", "alpha beta q")):
    __slots__ = ()


def first_kind_input(stat: Statistic) -> tuple[int, ...]:
    """Increment vector (r_1, ..., r_k): an edge whose child has a
    maximal-label block of size j changes the statistic by r_j (0 for
    j beyond the vector)."""
    if stat.family == "blocks":
        return (1,)
    if stat.family == "blocks_of_size":
        if stat.size == 1:
            return (1, -1)
        return (0,) * (stat.size - 1) + (1, -1)
    if stat.family == "blocks_at_least3":
        return (0, 0, 1)
    raise NotFirstKind(f"{stat.name} has no per-edge increment vector")


def second_kind_input(stat: Statistic, kind: str) -> SecondKindInput:
    """The (alpha, beta; q) law for insertion-driven statistics."""
    if stat.family == "outer" and kind in (FULL, PAIR):
        return SecondKindInput(1, 0, 1)
    if stat.family == "intervals" and kind == PAIR:
        return SecondKindInput(0, 1, 0)
    raise NotSecondKind(f"{stat.name} on the {kind} tree")


def core_child_digits(stat: Statistic, kind: str,
                      parent_op: OrderedNcPartition) -> set[int]:
    """Digits of the children where a second-kind statistic jumps by alpha.

    Outer blocks: the new singleton (or pair) is outer exactly when it is
    inserted at the left end of an outer block's span or to the right of
    the last one (digit n, since the outer spans reach the last point n).
    Interval pairs: the new pair splits an existing interval pair exactly
    when inserted between its two points.
    """
    return _core_digits(stat, kind, parent_op.blocks_by_label, parent_op.n)


def _core_digits(stat: Statistic, kind: str, blocks, n: int) -> set[int]:
    """:func:`core_child_digits` of the parent with these blocks on
    {1..n}, given in any order."""
    if stat.family == "outer":
        return {m - 1 for m in _span_sweep(blocks)} | {n}
    if stat.family == "intervals" and kind == PAIR:
        return {b[0] for b in blocks if len(b) == 2 and b[1] == b[0] + 1}
    raise NotSecondKind(f"{stat.name} on the {kind} tree")


# ---------------------------------------------------------------------------
# tables

def refuse_area_off_pairs(stat: Statistic, kind: str) -> None:
    if stat.family == "area" and kind == FULL:
        raise AreaRequiresPairPartition(
            f"{stat.name} needs the pair tree, not the {kind} tree")


def stats_table(n: int, kind: str,
                stats: Iterable[Statistic]) -> Iterator[list]:
    """Rows of the statistics table: a header, one row per ordered
    partition in rank order, then an exact-mean row.

    A bad depth or kind, or the area statistic off the pair tree, raises
    here, before the first row is produced.
    """
    stats = list(stats)
    count = tree.level_count(n, kind)
    for s in stats:
        refuse_area_off_pairs(s, kind)
    return _table_rows(n, kind, stats, count)


def _table_rows(n: int, kind: str, stats: list[Statistic],
                count: int) -> Iterator[list]:
    yield ["rank", "n"] + [s.name for s in stats]
    totals = [0] * len(stats)
    for rank, op in enumerate(tree.iter_level(n, kind)):
        values = [evaluate(s, op) for s in stats]
        for i, v in enumerate(values):
            totals[i] += v
        yield [rank, n] + values
    yield ["mean", n] + [format_rational(Fraction(t, count)) for t in totals]


def write_stats_csv(out: TextIOBase, n: int, kind: str,
                    stats: Iterable[Statistic]) -> None:
    """Write :func:`stats_table` as CSV."""
    import csv  # loaded on use, to keep it off the import path
    csv.writer(out).writerows(stats_table(n, kind, stats))
