"""Ordering counts, the counting triangle, and moment-cumulant interplay.

The number of valid block orderings of a non-crossing partition is a
linear-extension count of its nesting forest, computable by a hook
product.  Summed with weights over all partitions it yields a triangle
of ordered set-partition counts, which in turn packages the moments of
the law with all cumulants equal to a constant.
"""

from fractions import Fraction

from mton import (cumulants_from_moments, moments_from_cumulants,
                  ordering_count, poisson_moments, stirling_by_closed_form,
                  stirling_by_recursion, stirling_by_tree_count,
                  validate_noncrossing)


def main():
    print("ordering counts of a few partitions:")
    for blocks, n in (([[1, 2], [3, 4]], 4),
                      ([[1, 4], [2, 3]], 4),
                      ([[1, 6], [2, 3], [4, 5]], 6),
                      ([[1], [2], [3]], 3)):
        p = validate_noncrossing(blocks, n)
        print(f"  {str(p):28} -> {ordering_count(p)} orderings")

    print()
    print("the counting triangle (rows sum to (n+1)!/2):")
    table = stirling_by_recursion(6)
    for n in range(1, 7):
        row = table.row(n)
        print(f"  n={n}:  {row}  sum {sum(row)}")

    same = all(stirling_by_recursion(6).row(n)
               == stirling_by_closed_form(6).row(n)
               == stirling_by_tree_count(6).row(n)
               for n in range(1, 7))
    print("  three independent constructions agree:", same)

    print()
    print("moments <-> cumulants, exactly:")
    moments = [Fraction(1), Fraction(2), Fraction(5), Fraction(14)]
    cums = cumulants_from_moments(moments)
    print("  moments  ", moments)
    print("  cumulants", list(cums))
    print("  round trip ok:", moments_from_cumulants(cums) == tuple(moments))

    print()
    print("constant cumulants alpha give the Poisson-type moments:")
    for alpha in (Fraction(1), Fraction(1, 2)):
        via_triangle = poisson_moments(alpha, 5)
        via_recurrence = moments_from_cumulants([alpha] * 5)
        print(f"  alpha={alpha}:  {list(via_triangle)}")
        print("    triangle formula matches cumulant recurrence:",
              via_triangle == via_recurrence)


if __name__ == "__main__":
    main()
