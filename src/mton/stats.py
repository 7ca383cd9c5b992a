"""Block statistics of ordered partitions and their child-step laws.

A statistic family is one entry of ``_FAMILIES``: its name, its value on
a partition's blocks, the trees it is defined on, its transition law and
so its recursion's seed levels; a new statistic is a new entry there.
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
child, where the distinguished subset has size Z(parent) + q.  One
function, :func:`transition_law`, chooses a statistic's law on a tree.
The recursion reads it there, and so does the one witness that checks
either law on every edge of a level, :func:`laplace.edge_witness`; it
reads the sibling batches the scan kept, once per parent state, and each
child's maximal-label block size through its state.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from . import tree
from .partitions import NcPartition, NotPairPartition, _span_sweep
from .polynomials import _decimal, format_rational
from .tree import FULL, KINDS, PAIR, OrderedNcPartition


class AreaRequiresPairPartition(NotPairPartition):
    """Area is only defined for pair-partitions."""


class NotFirstKind(ValueError):
    """No fixed per-edge increment vector exists for this statistic."""


class NotSecondKind(ValueError):
    """No insertion-subset transition law exists for this statistic."""


SecondKindInput = namedtuple("SecondKindInput", "alpha beta q")


def _at_least3(blocks, size: int, n: int) -> int:
    sizes = list(map(len, blocks))
    return len(sizes) - sizes.count(1) - sizes.count(2)


def _interval_starts(blocks) -> list[int]:
    return [b[0] for b in blocks if len(b) == 2 and b[1] == b[0] + 1]


def _area(blocks, size: int, n: int) -> int:
    if list(map(len, blocks)).count(2) != len(blocks):
        raise AreaRequiresPairPartition(f"n={n} partition has a non-pair block")
    lows, highs = zip(*blocks)
    return sum(highs) - sum(lows)


# One entry per statistic family: the name parse reads back (None: Y and
# the size, as Y2); value(blocks, size, n), the statistic on the blocks of
# a partition of {1..n} in any order (no statistic reads the labels); the
# trees it is defined on; its increment vector on the full tree, zeros +
# size zeros then a tail (Y<size>: size - 1 zeros, then (1, -1)); its
# (alpha, beta; q) law by tree, and core(blocks, n), the digits of the
# children where that law jumps by alpha.
_Family = namedtuple("_Family", "name value trees zeros tail laws core",
                     defaults=(KINDS, 0, (), {}, None))
_FAMILIES = {
    "blocks": _Family("Y", lambda blocks, size, n: len(blocks), tail=(1,)),
    "blocks_of_size": _Family(
        None, lambda blocks, size, n: list(map(len, blocks)).count(size),
        zeros=-1, tail=(1, -1)),
    "blocks_at_least3": _Family("Yge3", _at_least3, zeros=2, tail=(1,)),
    "outer": _Family(
        "Out", lambda blocks, size, n: len(_span_sweep(blocks)),
        laws={FULL: SecondKindInput(1, 0, 1), PAIR: SecondKindInput(1, 0, 1)},
        core=lambda blocks, n: {m - 1 for m in _span_sweep(blocks)} | {n}),
    "intervals": _Family(
        "Int", lambda blocks, size, n: len(_interval_starts(blocks)),
        laws={PAIR: SecondKindInput(0, 1, 0)},
        core=lambda blocks, n: set(_interval_starts(blocks))),
    "area": _Family("Area", _area, trees=(PAIR,)),
}


class Statistic(namedtuple("Statistic", "family size", defaults=(0,))):
    """A block statistic: its ``_FAMILIES`` key, and blocks_of_size's size."""

    __slots__ = ()

    @property
    def name(self) -> str:
        return _FAMILIES[self.family].name or f"Y{_decimal(self.size)}"

    @classmethod
    def parse(cls, text: str) -> "Statistic":
        if not isinstance(text, str):
            raise ValueError(f"a statistic is named by a string, got {text!r}")
        text = text.strip()
        for family, entry in _FAMILIES.items():
            if text == entry.name:
                return cls(family)
        digits = text[1:]  # ASCII only: str.isdigit also passes "²" and "١"
        # int() refuses past 4300 digits, with wording of its own
        if (text.startswith("Y") and digits.isascii() and digits.isdigit()
                and len(digits) <= 4300 and int(digits) >= 1):
            return blocks_of_size(int(digits))
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


def evaluate(stat: Statistic, op: OrderedNcPartition) -> int:
    """Value of the statistic on one ordered partition."""
    return _evaluate_blocks(stat, op.blocks_by_label, op.n)


def _evaluate_blocks(stat: Statistic, blocks, n: int) -> int:
    """The statistic on the blocks of a partition of {1..n}, in any order."""
    return _FAMILIES[stat.family].value(blocks, stat.size, n)


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

def transition_law(stat: Statistic, kind: str,
                   upto: int | None = None) -> tuple | SecondKindInput:
    """The statistic's law on the tree: on the full tree its increment
    vector's entries r_1 .. r_upto, if it has one (all by default), and
    no entry past ``upto`` is built; else :func:`second_kind_input`."""
    family = _FAMILIES[stat.family]
    if kind != FULL or not family.tail:
        return second_kind_input(stat, kind)
    zeros = family.zeros + stat.size
    upto = zeros + len(family.tail) if upto is None else upto
    return (0,) * min(zeros, upto) + family.tail[:max(upto - zeros, 0)]


def first_kind_input(stat: Statistic) -> tuple[int, ...]:
    """Increment vector (r_1, ..., r_k): an edge whose child has a
    maximal-label block of size j changes the statistic by r_j (0 for
    j beyond the vector)."""
    if not _FAMILIES[stat.family].tail:
        raise NotFirstKind(f"{stat.name} has no per-edge increment vector")
    return transition_law(stat, FULL)


def seed_levels(stat: Statistic, kind: str) -> int:
    """How many levels seed the recursion: on the full tree the length of
    the increment vector, if any, else 1; no vector is built, no error."""
    family = _FAMILIES[stat.family]
    if kind == FULL and family.tail:
        return family.zeros + stat.size + len(family.tail)
    return 1


def second_kind_input(stat: Statistic, kind: str) -> SecondKindInput:
    """The (alpha, beta; q) law for insertion-driven statistics."""
    law = _FAMILIES[stat.family].laws.get(kind)
    if law is None:
        raise NotSecondKind(f"{stat.name} on the {kind} tree")
    return law


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
    """:func:`core_child_digits` of the parent with these blocks, in any order."""
    second_kind_input(stat, kind)  # refuses a tree without an insertion law
    return _FAMILIES[stat.family].core(blocks, n)


# ---------------------------------------------------------------------------
# tables

def refuse_area_off_pairs(stat: Statistic, kind: str) -> None:
    if kind not in _FAMILIES[stat.family].trees:
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
    for rank, op in enumerate(tree.stream_level(n, kind)):
        values = [evaluate(s, op) for s in stats]
        totals = list(map(sum, zip(totals, values)))
        yield [rank, n] + values
    yield ["mean", n] + [format_rational(Fraction(t, count)) for t in totals]
