"""Interval orders and ascent sequences.

A poset is an interval order iff it avoids an induced 2+2 (two disjoint
2-chains with all four cross-pairs incomparable), which holds exactly when
its strict down-sets are totally ordered by inclusion (and, dually, its
up-sets).  Interval orders are counted here as the independent cross-check
for the Fishburn numbers, for n <= 8 elements.

The classes on n elements grow from the classes on n - 1 by one-point
extension.  Deleting a maximal element leaves an interval order, so every
class arises from a representative p by adding a new maximal element above
an order ideal D.  The new order is 2+2-free exactly when D is comparable
with every down-set of p, that is when D lies between two consecutive
members A ⊆ D ⊆ B of p's down-set chain (with the empty and the full set
added).  Every such D is down-closed: an element of B - A has its down-set
inside A.  So the candidates are read off the chain, not off all 2^n
subsets, and no extension needs a 2+2 test.

Extensions are deduplicated by Fishburn's characteristic representation
(*J. Math. Psych.* 7 (1970)): rank each element's down-set among the
distinct down-sets (smallest first) and its up-set among the distinct
up-sets (largest first).  The pair (down rank, up rank) is an interval
[l, r] with x < y iff r(x) < l(y), so the sorted multiset of pairs rebuilds
the order and is a complete isomorphism invariant.  It costs O(n log n) and
needs no relabelling; the count of each pair is the order's characteristic
Fishburn matrix.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import BoundExceededError, ParameterError
from .qseries import SEQUENCE_N_CAP

POSET_SIZE_BOUND = 8


class Poset:
    """Finite strict order; rel[i] is the bitmask of elements above i."""

    __slots__ = ("n", "rel")

    def __init__(self, n: int, rel, validate: bool = True):
        self.n = n
        self.rel = tuple(rel)
        if validate:
            self._validate()

    def _validate(self):
        n, rel = self.n, self.rel
        if len(rel) != n:
            raise ParameterError("relation row count must equal n")
        for i in range(n):
            if not 0 <= rel[i] < 1 << n:
                raise ParameterError(f"relation row {i} mask {rel[i]} is outside [0, 2^{n})")
            if rel[i] >> i & 1:
                raise ParameterError(f"relation is not irreflexive at {i}")
            for j in range(n):
                if rel[i] >> j & 1:
                    if rel[j] >> i & 1:
                        raise ParameterError(f"antisymmetry fails at ({i},{j})")
                    if rel[j] & ~rel[i]:
                        raise ParameterError(f"transitivity fails below ({i},{j})")

    @property
    def maximal_count(self) -> int:
        return sum(1 for i in range(self.n) if self.rel[i] == 0)

    @property
    def minimal_count(self) -> int:
        above = 0
        for mask in self.rel:
            above |= mask
        return sum(1 for i in range(self.n) if not (above >> i & 1))

    def __repr__(self):
        pairs = [(i, j) for i in range(self.n) for j in range(self.n)
                 if self.rel[i] >> j & 1]
        return f"Poset(n={self.n}, pairs={pairs})"


def _characteristic_key(ups, downs):
    """Sorted (down rank, up rank) pairs of the interval order whose element
    i has up-set mask ups[i] and strict down-set mask downs[i].  Each family
    is a chain, so its members are ordered by size."""
    down_rank = {d: r for r, d in enumerate(sorted(set(downs), key=int.bit_count))}
    up_rank = {u: r for r, u in enumerate(
        sorted(set(ups), key=int.bit_count, reverse=True))}
    return tuple(sorted((down_rank[d], up_rank[u]) for d, u in zip(downs, ups)))


def _extensions(ups, downs):
    """(ups, downs) of every 2+2-free order that adds a maximal element above
    an ideal D of the interval order (ups, downs), each D once: D = A | S
    for consecutive chain members A ⊂ B and S ⊊ B - A, then D = everything."""
    n = len(ups)
    top, full = 1 << n, (1 << n) - 1
    chain = sorted(set(downs) | {0, full}, key=int.bit_count)
    ideals = [full]
    for a, b in zip(chain, chain[1:]):
        gap = s = b & ~a
        while s:
            s = (s - 1) & gap
            ideals.append(a | s)
    for d in ideals:
        yield (tuple(u | top if d >> i & 1 else u for i, u in enumerate(ups))
               + (0,), downs + (d,))


def interval_orders(n: int):
    """All unlabeled 2+2-free posets on n elements, one per class, ordered
    by characteristic key."""
    if n < 0:
        raise ParameterError("poset size must be nonnegative")
    if n > POSET_SIZE_BOUND:
        raise BoundExceededError(
            f"poset generation is configured for n <= {POSET_SIZE_BOUND}")
    level = [((), ())]
    for _ in range(n):
        seen = {}
        for ups, downs in level:
            for ext in _extensions(ups, downs):
                seen.setdefault(_characteristic_key(*ext), ext)
        level = [seen[k] for k in sorted(seen)]
    return [Poset(n, ups, validate=False) for ups, _ in level]


def interval_order_statistics(n: int) -> dict:
    """Count plus (minimal, maximal)-element joint distribution."""
    joint = {}
    count = 0
    for p in interval_orders(n):
        count += 1
        key = (p.minimal_count, p.maximal_count)
        joint[key] = joint.get(key, 0) + 1
    return {"count": count, "joint": joint,
            "maximal": _marginal(joint, 1), "minimal": _marginal(joint, 0)}


def _marginal(joint, axis):
    out = {}
    for key, c in joint.items():
        out[key[axis]] = out.get(key[axis], 0) + c
    return out


# ---------------------------------------------------------------------------
# ascent sequences


def _require_length(n):
    """Refuse a length below 0 or above SEQUENCE_N_CAP, the bound of the
    Fishburn numbers that the ascent sequences count."""
    if n < 0:
        raise ParameterError("length must be nonnegative")
    if n > SEQUENCE_N_CAP:
        raise BoundExceededError(f"ascent sequence length capped at {SEQUENCE_N_CAP} (got {n})")


def ascent_sequences(n: int):
    """All ascent sequences of length n (x1 = 0, each entry at most one more
    than the number of ascents so far), in lexicographic order.  The length
    is checked when this is called, before the first sequence is asked for."""
    _require_length(n)
    return _ascent_extensions((0,), 0, n) if n else iter([()])


def _ascent_extensions(seq, ascents, n):
    """The ascent sequences of length n that begin with `seq`, a nonempty
    ascent sequence with `ascents` ascents, in lexicographic order."""
    if len(seq) == n:
        yield seq
        return
    for v in range(ascents + 2):
        yield from _ascent_extensions(seq + (v,), ascents + (v > seq[-1]), n)


def count_ascent_sequences(n: int) -> int:
    """Number of ascent sequences of length n, by a loop over positions.

    After each position, counts[a][l] is the number of prefixes with a
    ascents and last entry l (so l <= a).  The next entry v <= a + 1 keeps
    a ascents when v <= l and makes a + 1 when v > l, so row a passes its
    suffix sums to entries 0..a of row a and its prefix sums to entries
    1..a + 1 of row a + 1."""
    _require_length(n)
    counts = [[1]]
    for _ in range(n - 1):
        nxt = [[0] * (a + 1) for a in range(len(counts) + 1)]
        for a, row in enumerate(counts):
            for last, s in enumerate(reversed(list(accumulate(reversed(row))))):
                nxt[a][last] += s
            for v, s in enumerate(accumulate(row), 1):
                nxt[a + 1][v] += s
        counts = nxt
    return sum(map(sum, counts))
