"""Reference poset routes that only the tests need: labelled enumeration,
against which the one-point extension in `fishburn.posets` is checked, all
unlabeled posets, duality and the plain order relation."""

from fishburn.posets import Poset, _grow


def less(p, i: int, j: int) -> bool:
    """i < j in the poset p."""
    return bool(p.rel[i] >> j & 1)


def unlabeled_posets(n: int):
    """All unlabeled posets on n elements, deterministically ordered by
    canonical form."""
    return _grow(n, lambda p: True)


def dual(p) -> Poset:
    """p with every relation reversed."""
    rel = [0] * p.n
    for i in range(p.n):
        for j in range(p.n):
            if less(p, i, j):
                rel[j] |= 1 << i
    return Poset(p.n, rel, validate=False)


def is_self_dual(p) -> bool:
    return p.canonical_form() == dual(p).canonical_form()


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
    return sorted({p.canonical_form() for p in naturally_labeled_orders(n)
                   if keep is None or keep(p)})
