"""Exact combinatorics of monotonically ordered non-crossing partitions.

The package enumerates two rooted trees whose depth-n levels are the
monotonically ordered non-crossing partitions of n points (there are
(n+1)!/2 of them) and the ordered non-crossing pair-partitions of 2n
points ((2n-1)!! of them).  On top of the enumeration sit per-node
statistics, their exact polynomial transforms and recursions, closed
forms for means and variances, the ordered-count triangle with its use
in moment/cumulant conversion, and a verification harness that checks
all of it against independent constructions.
"""

from .partitions import (Crossing, NcPartition, NotAPartition,
                         NotPairPartition, validate_noncrossing)
from .tree import (FULL, KINDS, PAIR, DigitOutOfRange, OrderedNcPartition,
                   RankOutOfRange, RootHasNoParent, TreeCode, children, decode,
                   encode, full_root, iter_level, level_count, pair_children,
                   pair_parent, pair_root, parent, rank_of, stream_level,
                   unrank)
from .polynomials import (ExactPolynomial, NegativeExponent, format_rational,
                          parse_rational)
from .stats import (AREA, BLOCKS, INTERVAL_PAIRS, LARGE_BLOCKS, OUTER,
                    AreaRequiresPairPartition, NotFirstKind, NotSecondKind,
                    SecondKindInput, Statistic, blocks_of_size,
                    core_child_digits, dyck_path, evaluate, first_kind_input,
                    path_area, second_kind_input, seed_levels, stats_table)
from .laplace import (InsufficientSeed, SizeBoundExceeded, ZeroPolynomial,
                      bruteforce_transform, expectation_from_laplace,
                      level_histograms, recurse_first_kind,
                      recurse_second_kind, recursion_transform,
                      variance_from_laplace)
from .closed_forms import (EULER_GAMMA, FORMULAS, AsymptoticReport,
                           OutOfValidity, asymptotic_report,
                           expectation_recursion_step, expected_area,
                           expected_block_count, expected_interval_pairs,
                           expected_outer_blocks, expected_outer_pairs,
                           expected_size1_blocks, expected_size2_blocks,
                           expected_size3plus_blocks, harmonic, harmonic2,
                           harmonic_difference, size_count_increment,
                           telescoped_size3_expectation, total_area,
                           variance_block_count, variance_block_count_alt)
from .cumulants import (InsufficientCumulants, InsufficientMoments,
                        StirlingTable, cumulants_from_moments,
                        moments_from_cumulants, ordering_count,
                        poisson_moments, stirling_by_closed_form,
                        stirling_by_recursion, stirling_by_tree_count)
from .harness import (Check, CheckReport, CheckSpec, NotMinimizable, SUITES,
                      build_checks, counterexample_minimize, run_checks,
                      run_suite, suite_names)

__version__ = "0.1.0"
