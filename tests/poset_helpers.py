"""Reference poset routes that only the tests need: a canonical form by
relabelling, generic one-point growth deduplicated by it, labelled
enumeration, all unlabeled posets, the plain 2+2 test, duality and the
order relation.  `fishburn.posets` grows interval orders by their
characteristic key instead; these routes check it."""

from itertools import permutations

from fishburn.posets import Poset


def less(p, i: int, j: int) -> bool:
    """i < j in the poset p."""
    return bool(p.rel[i] >> j & 1)


def down_sets(p):
    """downs[j] is the bitmask of the elements below j."""
    downs = [0] * p.n
    for i, mask in enumerate(p.rel):
        for j in range(p.n):
            if mask >> j & 1:
                downs[j] |= 1 << i
    return tuple(downs)


def relabel(p, perm) -> Poset:
    """p with element i renamed perm[i]."""
    rel = [0] * p.n
    for i in range(p.n):
        mask = p.rel[i]
        j = 0
        while mask:
            if mask & 1:
                rel[perm[i]] |= 1 << perm[j]
            mask >>= 1
            j += 1
    return Poset(p.n, rel, validate=False)


def is_interval_order(p) -> bool:
    """2+2-free test.  An order is 2+2-free exactly when its up-sets are
    totally ordered by inclusion (as are, dually, its down-sets): a 2+2
    a < b, c < d puts b above a but not c and d above c but not a, and
    two up-sets neither inside the other give such a pair.  Sorted by
    size, each up-set bitmask must lie inside the next."""
    ups = sorted(p.rel, key=int.bit_count)
    return not any(a & ~b for a, b in zip(ups, ups[1:]))


def _refined_keys(p):
    n = p.n
    succ = [tuple(j for j in range(n) if p.rel[i] >> j & 1) for i in range(n)]
    pred = [tuple(j for j in range(n) if p.rel[j] >> i & 1) for i in range(n)]
    keys = [(len(succ[i]), len(pred[i])) for i in range(n)]
    for _ in range(2):
        keys = [
            (keys[i],
             tuple(sorted(keys[j] for j in succ[i])),
             tuple(sorted(keys[j] for j in pred[i])))
            for i in range(n)
        ]
    return keys


def _block_arrangements(blocks):
    """Every ordering of the elements that keeps each block in place and
    permutes the elements within it."""
    if not blocks:
        yield []
        return
    for tail in _block_arrangements(blocks[1:]):
        for head in permutations(blocks[0]):
            yield list(head) + tail


def canonical_form(p) -> tuple:
    """Lexicographically minimal relation matrix over all relabelings,
    restricted to the permutations compatible with an iterated
    degree-refinement invariant."""
    keys = _refined_keys(p)
    order = sorted(range(p.n), key=lambda i: (keys[i], i))
    blocks = []
    for i in order:
        if blocks and keys[blocks[-1][-1]] == keys[i]:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    best = None
    for arrangement in _block_arrangements(blocks):
        perm = [0] * p.n  # old index -> position
        for pos, old in enumerate(arrangement):
            perm[old] = pos
        cand = relabel(p, perm).rel
        if best is None or cand < best:
            best = cand
    return best


def _order_ideals(p):
    """Bitmasks of the down-closed subsets of p: no element outside the
    subset lies below an element inside it."""
    for mask in range(1 << p.n):
        if not any(p.rel[i] & mask for i in range(p.n) if not mask >> i & 1):
            yield mask


def extend(p, down) -> Poset:
    """p with a new maximal element p.n lying above exactly `down`."""
    top = 1 << p.n
    rel = [r | top if down >> i & 1 else r for i, r in enumerate(p.rel)]
    rel.append(0)
    return Poset(p.n + 1, rel, validate=False)


def grow(n, keep):
    """One representative per class of posets on n elements that pass `keep`
    (a test inherited by induced subposets), sorted by canonical form: each
    class on n - 1 elements gets a new element above each order ideal."""
    level = [Poset(0, [])]
    for _ in range(n):
        seen = {}
        for p in level:
            for down in _order_ideals(p):
                q = extend(p, down)
                if keep(q):
                    seen.setdefault(canonical_form(q), q)
        level = [seen[k] for k in sorted(seen)]
    return level


def unlabeled_posets(n: int):
    """All unlabeled posets on n elements, deterministically ordered by
    canonical form."""
    return grow(n, lambda p: True)


def dual(p) -> Poset:
    """p with every relation reversed."""
    rel = [0] * p.n
    for i in range(p.n):
        for j in range(p.n):
            if less(p, i, j):
                rel[j] |= 1 << i
    return Poset(p.n, rel, validate=False)


def is_self_dual(p) -> bool:
    return canonical_form(p) == canonical_form(dual(p))


def naturally_labeled_orders(n):
    """All strict orders on 0..n-1 with i < j in P implying i < j as ints,
    generated by downward-closed predecessor sets."""
    preds = [0] * n

    def closed_subsets(k):
        # subsets D of {0..k-1} with: i in D implies preds[i] subset of D
        for mask in range(1 << k):
            ok = True
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                if preds[i] & ~mask:
                    ok = False
                    break
                m &= m - 1
            if ok:
                yield mask
        return

    def rec(k):
        if k == n:
            rel = [0] * n
            for j in range(n):
                m = preds[j]
                while m:
                    i = (m & -m).bit_length() - 1
                    rel[i] |= 1 << j
                    m &= m - 1
            yield Poset(n, rel, validate=False)
            return
        for mask in closed_subsets(k):
            preds[k] = mask
            yield from rec(k + 1)
        preds[k] = 0

    yield from rec(0)


def labelled_classes(n, keep=None):
    """Sorted canonical forms of the labelled orders on n elements that pass
    `keep`: the enumerate-then-deduplicate route."""
    return sorted({canonical_form(p) for p in naturally_labeled_orders(n)
                   if keep is None or keep(p)})
