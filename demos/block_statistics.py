"""Block counts across a level: exact means against closed forms.

One pass over a level is enough to tabulate every block statistic at
once; the closed forms then reproduce the exact rational means, and at
large sizes the harmonic-number shapes show through numerically.
"""

from collections import Counter
from fractions import Fraction

from mton import (BLOCKS, FULL, LARGE_BLOCKS, blocks_of_size, evaluate,
                  expected_block_count, expected_size1_blocks,
                  expected_size2_blocks, expected_size3plus_blocks,
                  stream_level, variance_block_count, asymptotic_report)


def main():
    n = 7
    stats = {
        "blocks": BLOCKS,
        "singletons": blocks_of_size(1),
        "two-blocks": blocks_of_size(2),
        ">=3 blocks": LARGE_BLOCKS,
    }
    tallies = {name: Counter() for name in stats}
    count = 0
    for op in stream_level(n, FULL):
        count += 1
        for name, s in stats.items():
            tallies[name][evaluate(s, op)] += 1

    print(f"level {n} holds {count} ordered partitions")
    for name, tally in tallies.items():
        mean = Fraction(sum(v * c for v, c in tally.items()), count)
        print(f"  {name:12} histogram {dict(sorted(tally.items()))}  mean {mean}")

    print()
    print("closed forms at the same size:")
    print("  blocks      ", expected_block_count(n))
    print("  variance    ", variance_block_count(n))
    print("  singletons  ", expected_size1_blocks(n))
    print("  two-blocks  ", expected_size2_blocks(n))
    print("  >=3 blocks  ", expected_size3plus_blocks(n))

    print()
    print("decomposition check:",
          expected_block_count(n)
          == expected_size1_blocks(n) + expected_size2_blocks(n)
          + expected_size3plus_blocks(n))

    print()
    print("large-n behaviour of the mean (n - ln n + 3/2 - gamma):")
    for size in (100, 1000, 10000):
        report = asymptotic_report("EY", size)
        print(f"  n={size:6d}  exact {report.exact:12.4f}"
              f"  asymptote {report.asymptotic:12.4f}"
              f"  difference {report.difference:+.2e}")


if __name__ == "__main__":
    main()
