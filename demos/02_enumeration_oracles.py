"""Walkthrough: the combinatorial oracles behind every coefficient.

Enumerates Fishburn matrices, row-Fishburn matrices, and self-dual matrices;
checks the halving facts; generates 2+2-free posets and ascent sequences and
matches their statistics against the matrix counts.
"""

from fishburn import (count_ascent_sequences, fishburn_matrices,
                      fishburn_numbers, refined_counts, verify_facts)
from fishburn.posets import interval_order_statistics

print("=== Fishburn matrices of size 3 ===")
for m in fishburn_matrices(3):
    print(m.dump())
    print(f"  (first row sum {m.first_row_sum}, last column sum {m.last_column_sum})")

print()
print("=== refined tables ===")
table = refined_counts("fishburn", 4)
print("size 4, (first row, last column) joint counts:")
for key, c in sorted(table.counts.items()):
    print(f"  {key}: {c}")
print("note the symmetry under swapping the two statistics (poset duality)")

print()
print("=== self-dual matrices and the halving facts ===")
for m in range(1, 6):
    sd, rf = refined_counts("selfDual", m), refined_counts("rowFishburn", m)
    print(f"  reduced size {m}: self-dual total {sd.total}, "
          f"row-Fishburn total {rf.total} (half)")
report = verify_facts(5)
print("  zero-diagonal half = row-Fishburn count at every (m, l):",
      "holds" if report.ok else report.failures)

print()
print("=== interval orders (2+2-free posets) ===")
f = fishburn_numbers(10)
for n in range(1, 9):
    stats = interval_order_statistics(n)
    print(f"  n={n}: {stats['count']} interval orders (f_{n} = {f[n]}), "
          f"maximal-element distribution {stats['maximal']}")

print()
print("=== ascent sequences count the same objects ===")
for n in range(9):
    print(f"  n={n}: {count_ascent_sequences(n)} ascent sequences, f_{n} = {f[n]}")
