"""Monotone moment-cumulant calculus and the ordered-count triangle.

Moments come from the monotone convolution semigroup: the moments m_n(t)
of the law at time t satisfy dm_n/dt = sum_{k=1..n} (n-k+1) kappa_k
m_{n-k}(t) with m_0 = 1, and the law itself sits at t = 1.  Each m_n(t)
is a polynomial in t, so the conversion costs O(n^3) exact operations,
and cumulants come back by the same recurrence solved for kappa_n.  The
weighted sum over all non-crossing partitions is kept in ``reference``
as the independent oracle.  The triangle J[n][k] counts ordered
partitions of {1..n} with exactly k blocks and admits three independent
builders whose agreement is part of the verification surface; the
Poisson moments weigh the recursion's rows by alpha^k / k!.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from operator import mul

from . import laplace
from .partitions import NcPartition, _nesting_sweep
from .polynomials import Rational
from .stats import BLOCKS


class InsufficientCumulants(ValueError):
    """Asked for moments beyond the supplied cumulant order."""


class InsufficientMoments(ValueError):
    """Asked for cumulants beyond the supplied moment order."""


def _ordering_count_blocks(blocks) -> int:
    """Monotonic labelling count via subtree products on the nesting
    forest: k! divided by the product of subtree sizes."""
    subtree = [1] * len(blocks)
    # a block comes after its parent in the sweep, so the reversed sweep
    # completes each subtree before adding it to its parent's
    for idx, parent in reversed(_nesting_sweep(blocks)):
        if parent is not None:
            subtree[parent] += subtree[idx]
    total = math.factorial(len(blocks))
    den = math.prod(subtree)
    assert total % den == 0
    return total // den


def ordering_count(p: NcPartition) -> int:
    """Number of monotonic labellings of ``p``."""
    return _ordering_count_blocks(p.blocks)


def _moment_polynomial(polys: Sequence[list], cums: Sequence[Fraction]) -> list:
    """Coefficients in t of m_n(t) - kappa_n*t for n = len(polys), from
    m_0..m_{n-1} and kappa_1..kappa_{n-1}: the integral from 0 to t of
    sum_{k=1..n-1} (n-k+1) kappa_k m_{n-k}."""
    n = len(polys)
    rate = [Fraction(0)] * n
    for k in range(1, n):
        scale = (n - k + 1) * cums[k - 1]
        for power, c in enumerate(polys[n - k]):
            rate[power] += scale * c
    return [Fraction(0)] + [c / (power + 1) for power, c in enumerate(rate)]


def moments_from_cumulants(cumulants: Sequence[Rational],
                           upto: int | None = None) -> tuple[Fraction, ...]:
    """Moments 1..upto from cumulants, through the semigroup recurrence."""
    cums = [Fraction(c) for c in cumulants]
    upto = len(cums) if upto is None else upto
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    if upto > len(cums):
        raise InsufficientCumulants(f"need {upto} cumulants, got {len(cums)}")
    polys = [[Fraction(1)]]
    for n in range(1, upto + 1):
        poly = _moment_polynomial(polys, cums)
        poly[1] += cums[n - 1]
        polys.append(poly)
    return tuple(sum(poly) for poly in polys[1:])


def cumulants_from_moments(moments: Sequence[Rational],
                           upto: int | None = None) -> tuple[Fraction, ...]:
    """Cumulants 1..upto: moment n is kappa_n plus a polynomial in the
    lower cumulants, so each step solves the recurrence for kappa_n."""
    moms = [Fraction(m) for m in moments]
    upto = len(moms) if upto is None else upto
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    if upto > len(moms):
        raise InsufficientMoments(f"need {upto} moments, got {len(moms)}")
    polys = [[Fraction(1)]]
    cums: list[Fraction] = []
    for n in range(1, upto + 1):
        poly = _moment_polynomial(polys, cums)
        cums.append(moms[n - 1] - sum(poly))
        poly[1] += cums[-1]
        polys.append(poly)
    return tuple(cums)


# ---------------------------------------------------------------------------
# the ordered-count triangle

class StirlingTable(namedtuple("StirlingTable", "rows")):
    """rows[n-1][k-1] counts ordered partitions of {1..n} with k blocks."""

    __slots__ = ()

    @property
    def n_max(self) -> int:
        return len(self.rows)

    def row(self, n: int) -> tuple[int, ...]:
        return self.rows[n - 1]

    def value(self, n: int, k: int) -> int:
        return self.rows[n - 1][k - 1]


def stirling_by_recursion(n_max: int) -> StirlingTable:
    """J[n][k] = J[n-1][k] + n * J[n-1][k-1], from J[1] = (1,)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    rows = [(1,)]
    for n in range(2, n_max + 1):
        prev = rows[-1]
        rows.append(tuple(a + n * b for a, b in zip(prev + (0,), (0,) + prev)))
    return StirlingTable(tuple(rows))


def stirling_by_closed_form(n_max: int) -> StirlingTable:
    """J[n][k] as the sum of products j_1*...*j_{k-1} over increasing
    choices 2 <= j_1 < ... < j_{k-1} <= n, expanded term by term: the
    coefficient of t^k in t(1+2t)...(1+nt)."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return StirlingTable(tuple(
        tuple(sum(map(math.prod, combinations(range(2, n + 1), k - 1)))
              for k in range(1, n + 1))
        for n in range(1, n_max + 1)))


def stirling_by_tree_count(n_max: int) -> StirlingTable:
    """J[n][k] read off the enumerated block-count transforms."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return StirlingTable(tuple(
        tuple(map(laplace.bruteforce_transform(BLOCKS, n).coefficient,
                  range(1, n + 1)))
        for n in range(1, n_max + 1)))


def poisson_moments(alpha: Rational, upto: int) -> tuple[Fraction, ...]:
    """Moments of the law with all cumulants equal to alpha, through the
    triangle: moment n = sum_k J[n][k] * w_k, with the weights
    w_k = alpha^k / k! computed once for k = 1..upto."""
    if upto < 1:
        raise ValueError("upto must be >= 1")
    a = Fraction(alpha)
    weights = [a ** k / math.factorial(k) for k in range(1, upto + 1)]
    return tuple(sum(map(mul, row, weights), Fraction(0))
                 for row in stirling_by_recursion(upto).rows)
