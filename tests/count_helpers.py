"""Counts that only the tests need, each found by plain filtering so that it
stays independent of the code it checks."""

from math import gcd

from fishburn.enumeration import fishburn_matrices


def euler_phi(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if gcd(j, k) == 1)


def self_dual_count_by_full_size(n: int) -> int:
    """Self-dual Fishburn matrices of full (non-reduced) size n, found by
    filtering the plain enumeration; independent of self_dual_matrices."""
    return sum(1 for m in fishburn_matrices(n) if m.is_self_dual())
