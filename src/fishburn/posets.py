"""Unlabeled posets, interval orders, and ascent sequences.

Small-scale (n <= 7) isomorph-free generation by one-point extension: the
classes on n elements are grown from the classes on n - 1 by adding a new
element above exactly one order ideal (down-closed subset) of a class
representative, then deduplicated by a canonical form.  Deleting a maximal
element of a poset leaves a poset, so every class on n elements arises this
way.  Canonicalization minimizes the relation matrix over relabelings,
restricted to permutations compatible with an iterated degree-refinement
invariant, which keeps the search tiny without a canonical-labeling
dependency.

A poset is an interval order iff it avoids an induced 2+2 (two disjoint
2-chains with all four cross-pairs incomparable); these are counted here as
the independent cross-check for the Fishburn numbers.  An induced subposet
of a 2+2-free poset is 2+2-free, so interval orders are grown from interval
orders only.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

from .errors import BoundExceededError, ParameterError

POSET_SIZE_BOUND = 7


class Poset:
    """Finite strict order; rel[i] is the bitmask of elements above i."""

    __slots__ = ("n", "rel", "_canon")

    def __init__(self, n: int, rel, validate: bool = True):
        self.n = n
        self.rel = tuple(rel)
        self._canon = None
        if validate:
            self._validate()

    def _validate(self):
        n, rel = self.n, self.rel
        if len(rel) != n:
            raise ParameterError("relation row count must equal n")
        for i in range(n):
            if rel[i] >> i & 1:
                raise ParameterError(f"relation is not irreflexive at {i}")
            for j in range(n):
                if rel[i] >> j & 1:
                    if rel[j] >> i & 1:
                        raise ParameterError(f"antisymmetry fails at ({i},{j})")
                    if rel[j] & ~rel[i]:
                        raise ParameterError(f"transitivity fails below ({i},{j})")

    # -- basic structure -----------------------------------------------------

    @property
    def maximal_count(self) -> int:
        return sum(1 for i in range(self.n) if self.rel[i] == 0)

    @property
    def minimal_count(self) -> int:
        above = 0
        for mask in self.rel:
            above |= mask
        return sum(1 for i in range(self.n) if not (above >> i & 1))

    def relabel(self, perm) -> "Poset":
        """perm[i] is the new name of element i."""
        rel = [0] * self.n
        for i in range(self.n):
            mask = self.rel[i]
            j = 0
            while mask:
                if mask & 1:
                    rel[perm[i]] |= 1 << perm[j]
                mask >>= 1
                j += 1
        return Poset(self.n, rel, validate=False)

    # -- isomorphism ---------------------------------------------------------

    def _refined_keys(self):
        n = self.n
        succ = [tuple(j for j in range(n) if self.rel[i] >> j & 1) for i in range(n)]
        pred = [tuple(j for j in range(n) if self.rel[j] >> i & 1) for i in range(n)]
        keys = [(len(succ[i]), len(pred[i])) for i in range(n)]
        for _ in range(2):
            keys = [
                (keys[i],
                 tuple(sorted(keys[j] for j in succ[i])),
                 tuple(sorted(keys[j] for j in pred[i])))
                for i in range(n)
            ]
        return keys

    def canonical_form(self) -> tuple:
        """Lexicographically minimal relation matrix over all relabelings."""
        if self._canon is not None:
            return self._canon
        keys = self._refined_keys()
        order = sorted(range(self.n), key=lambda i: (keys[i], i))
        blocks = []
        for i in order:
            if blocks and keys[blocks[-1][-1]] == keys[i]:
                blocks[-1].append(i)
            else:
                blocks.append([i])
        best = None
        for arrangement in _block_arrangements(blocks):
            perm = [0] * self.n  # old index -> position
            for pos, old in enumerate(arrangement):
                perm[old] = pos
            cand = self.relabel(perm).rel
            if best is None or cand < best:
                best = cand
        self._canon = best
        return best

    def is_interval_order(self) -> bool:
        """2+2-free test.  An order is 2+2-free exactly when its up-sets are
        totally ordered by inclusion (as are, dually, its down-sets): a 2+2
        a < b, c < d puts b above a but not c and d above c but not a, and
        two up-sets neither inside the other give such a pair.  Sorted by
        size, each up-set bitmask must lie inside the next."""
        ups = sorted(self.rel, key=int.bit_count)
        return not any(a & ~b for a, b in zip(ups, ups[1:]))

    def __repr__(self):
        pairs = [(i, j) for i in range(self.n) for j in range(self.n)
                 if self.rel[i] >> j & 1]
        return f"Poset(n={self.n}, pairs={pairs})"


def _block_arrangements(blocks):
    def rec(idx):
        if idx == len(blocks):
            yield []
            return
        for tail in rec(idx + 1):
            for perm in permutations(blocks[idx]):
                yield list(perm) + tail
    # build from the back so the first block varies fastest
    for arrangement in rec(0):
        yield arrangement


def _order_ideals(p):
    """Bitmasks of the down-closed subsets of p: no element outside the
    subset lies below an element inside it."""
    for mask in range(1 << p.n):
        if not any(p.rel[i] & mask for i in range(p.n) if not mask >> i & 1):
            yield mask


def _extend(p, down):
    """p with a new maximal element p.n lying above exactly `down`."""
    top = 1 << p.n
    rel = [r | top if down >> i & 1 else r for i, r in enumerate(p.rel)]
    rel.append(0)
    return Poset(p.n + 1, rel, validate=False)


def _grow(n, keep):
    """One representative per class of posets on n elements that pass `keep`
    (a test inherited by induced subposets), sorted by canonical form."""
    if n < 0:
        raise ParameterError("poset size must be nonnegative")
    if n > POSET_SIZE_BOUND:
        raise BoundExceededError(
            f"poset generation is configured for n <= {POSET_SIZE_BOUND}")
    level = [Poset(0, [])]
    for _ in range(n):
        seen = {}
        for p in level:
            for down in _order_ideals(p):
                q = _extend(p, down)
                if keep(q):
                    seen.setdefault(q.canonical_form(), q)
        level = [seen[k] for k in sorted(seen)]
    return level


def interval_orders(n: int):
    """All unlabeled 2+2-free posets on n elements, deterministically ordered
    by canonical form."""
    return _grow(n, Poset.is_interval_order)


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


def ascent_sequences(n: int):
    """All ascent sequences of length n (x1 = 0, each entry at most one more
    than the number of ascents so far), in lexicographic order."""
    if n < 0:
        raise ParameterError("length must be nonnegative")
    if n == 0:
        yield ()
        return
    seq = [0] * n

    def rec(i, ascents):
        if i == n:
            yield tuple(seq)
            return
        for v in range(ascents + 2):
            seq[i] = v
            yield from rec(i + 1, ascents + (1 if v > seq[i - 1] else 0))

    yield from rec(1, 0)


def count_ascent_sequences(n: int) -> int:
    """Number of ascent sequences of length n, by the recursion that
    `ascent_sequences` follows, memoised on (position, last entry, ascents):
    those fix the completions, so each distinct subtree is counted once."""
    if n < 0:
        raise ParameterError("length must be nonnegative")
    if n == 0:
        return 1

    @cache
    def rec(i, last, ascents):
        if i == n:
            return 1
        return sum(rec(i + 1, v, ascents + (v > last))
                   for v in range(ascents + 2))

    total = rec(1, 0, 0)
    rec.cache_clear()  # rec refers to itself: free the table now, not at gc
    return total
