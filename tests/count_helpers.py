"""Counts and matrix checks that only the tests need, each found by plain
filtering or by reading every entry, so that they stay independent of the
code they check.  The matrix checks take the `rows` of a matrix."""

from itertools import combinations
from math import gcd

from fishburn.enumeration import fishburn_matrices
from fishburn.errors import ParameterError


def euler_phi(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


def is_upper_triangular(rows) -> bool:
    return all(rows[i][j] == 0 for i in range(len(rows)) for j in range(i))


def rows_all_positive(rows) -> bool:
    return all(any(v > 0 for v in row) for row in rows)


def columns_all_positive(rows) -> bool:
    return all(any(row[j] > 0 for row in rows) for j in range(len(rows)))


def is_row_fishburn(rows) -> bool:
    return is_upper_triangular(rows) and rows_all_positive(rows)


def is_fishburn(rows) -> bool:
    return is_row_fishburn(rows) and columns_all_positive(rows)


def reverse_transpose(rows) -> tuple:
    """Reflection through the north-east diagonal: (i,j) -> (n-1-j, n-1-i).

    An involution on Fishburn matrices that swaps first-row and
    last-column sums.
    """
    n = len(rows)
    return tuple(tuple(rows[n - 1 - j][n - 1 - i] for j in range(n))
                 for i in range(n))


def is_self_dual(rows) -> bool:
    return rows == reverse_transpose(rows)


def anti_diagonal_is_zero(rows) -> bool:
    n = len(rows)
    return all(rows[i][n - 1 - i] == 0 for i in range(n))


def self_dual_count_by_full_size(n: int) -> int:
    """Self-dual Fishburn matrices of full (non-reduced) size n, found by
    filtering the plain enumeration; independent of self_dual_matrices."""
    return sum(1 for m in fishburn_matrices(n) if is_self_dual(m.rows))


def distinct_partition_parity(largest: int, weight: int) -> int:
    """(#odd - #even) part counts over partitions of `weight` into distinct
    parts with largest part exactly `largest`, by literal enumeration."""
    if largest < 1 or weight < 1:
        raise ParameterError("arguments must be >= 1")
    rest = weight - largest
    if rest < 0:
        return 0
    total = 0
    pool = range(1, largest)
    for k in range(0, largest):
        for combo in combinations(pool, k):
            if sum(combo) == rest:
                # part count is k + 1; odd count means k even
                total += 1 if k % 2 == 0 else -1
    return total
