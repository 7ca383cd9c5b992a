"""Pair-partitions as Dyck paths and the area statistic.

A non-crossing pair-partition of 2n points draws a Dyck path: up-step at
each opener, down-step at each closer.  The area under the path is an
integer statistic whose level totals obey a clean product recursion and
whose mean grows like n log n.
"""

from mton import (AREA, PAIR, asymptotic_report, dyck_path, evaluate,
                  expected_area, level_count, pair_children, path_area,
                  stream_level, total_area)


def path_picture(steps):
    return "".join("/" if s == 1 else "\\" for s in steps)


def main():
    n = 3
    print(f"all {level_count(n, PAIR)} ordered pair-partitions at n={n}:")
    for op in stream_level(n, PAIR):
        p = op.partition()
        steps = dyck_path(p)
        pretty = "  ".join("{" + ",".join(map(str, b)) + "}"
                           for b in op.blocks_by_label)
        print(f"  {pretty:28} {path_picture(steps)}  area {path_area(steps)}")

    print()
    print("exact area means and totals:")
    for m in range(1, 6):
        print(f"  n={m}:  mean {str(expected_area(m)):12}  total {total_area(m)}")

    print()
    print("the child-sum identity behind the total:")
    m = 3
    for parent_op in stream_level(m - 1, PAIR):
        kids = pair_children(parent_op)
        lhs = sum(evaluate(AREA, kid) for kid in kids)
        rhs = (2 * m - 1) + (2 * m + 1) * evaluate(AREA, parent_op)
        print(f"  parent area {evaluate(AREA, parent_op)}:"
              f"  child sum {lhs} == {rhs}")

    print()
    print("mean area against n log n:")
    for size in (10 ** 4, 10 ** 5, 10 ** 6):
        report = asymptotic_report("EArea", size)
        print(f"  n={size:8d}  ratio {report.ratio:.5f}")


if __name__ == "__main__":
    main()
