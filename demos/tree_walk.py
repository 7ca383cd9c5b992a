"""Walk the two enumeration trees and play with digit codes.

Every ordered partition is reachable from the root by a unique word of
child indices, which doubles as a mixed-radix numeral: depth i of the
full tree has radix i+2, the pair tree 2i+1.  Ranking, unranking and
streaming a whole level all come down to arithmetic on that word.
"""

from mton import (FULL, PAIR, TreeCode, children, decode, encode, full_root,
                  level_count, pair_children, pair_root, parent, rank_of,
                  stream_level, unrank)


def show(op, prefix=""):
    pretty = "  ".join("{" + ",".join(map(str, b)) + "}"
                       for b in op.blocks_by_label)
    print(f"{prefix}{pretty}")


def main():
    print("== the full tree ==")
    root = full_root()
    show(root, "root:        ")
    for digit, kid in enumerate(children(root)):
        show(kid, f"child {digit}:     ")

    print()
    print("level sizes (n+1)!/2:",
          [level_count(n, FULL) for n in range(1, 7)])
    print("level sizes (2n-1)!!:",
          [level_count(n, PAIR) for n in range(1, 7)])

    print()
    print("== a deep node from its digit word ==")
    code = TreeCode(FULL, (2, 3, 4, 3, 2, 7, 0, 9))
    op = decode(code)
    show(op, "decoded:     ")
    print("max-label block:", op.max_label_block())
    print("round trip:", encode(op, FULL) == code)
    print("rank at depth 9:", rank_of(op, FULL), "of", level_count(9, FULL))

    print()
    print("== parents undo children ==")
    cur = op
    while cur.n > 1:
        cur = parent(cur)
    show(cur, "back at root: ")

    print()
    print("== rank order is walk order ==")
    for k, node in enumerate(stream_level(3, FULL)):
        assert rank_of(node, FULL) == k
        assert unrank(k, 3, FULL) == node
        show(node, f"rank {k:2d}:  ")

    print()
    print("== the pair tree ==")
    show(pair_root(), "root:        ")
    for digit, kid in enumerate(pair_children(pair_root())):
        show(kid, f"child {digit}:     ")


if __name__ == "__main__":
    main()
