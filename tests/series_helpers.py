"""Series operations that only the tests need: re-truncation, a change of
coefficient ring, and the references on exponent tuples that the packed
kernel is tested against: sum, product, inverse, comparison and the
generic substitution."""

from fishburn.errors import SubstitutionError, TruncationError
from fishburn.series import MatchReport, TruncatedSeries


def restrict(series, new_trunc):
    """`series` re-truncated to a smaller total degree."""
    if new_trunc > series.trunc:
        raise TruncationError(
            f"cannot extend truncation {series.trunc} to {new_trunc}")
    terms = {e: c for e, c in series.terms.items() if sum(e) <= new_trunc}
    return TruncatedSeries(series.ring, series.nvars, new_trunc, terms, series.names)


def map_coefficients(series, new_ring, fn=None):
    """The same series over `new_ring`; coefficients pass through `fn`
    (default: the new ring's coercion)."""
    if fn is None:
        fn = new_ring.coerce
    terms = {e: fn(c) for e, c in series.terms.items()}
    return TruncatedSeries(new_ring, series.nvars, series.trunc, terms, series.names)


def reference_equal_up_to(a, b, order):
    """`a.equal_up_to(b, order)` on exponent tuples: the lexicographically
    least exponent of total degree <= order where the two differ, with both
    coefficients."""
    zero = a.ring.zero
    for e in sorted(a.terms.keys() | b.terms.keys()):
        left, right = a.terms.get(e, zero), b.terms.get(e, zero)
        if sum(e) <= order and left != right:
            return MatchReport(False, e, left, right)
    return MatchReport(True, None, None, None)


def reference_substitute(series, assignment):
    """`series` composed with per-variable replacement series of zero
    constant term, each of which may be any series in all the variables:
    the generic composition, term by term through powers and products of
    the replacements.  `assignment` maps a variable index to its
    replacement; an unmentioned variable is kept."""
    ring, nvars, trunc, names = series.ring, series.nvars, series.trunc, series.names
    subs = []
    for i in range(nvars):
        s = assignment.get(i)
        if s is None:
            s = TruncatedSeries.variable(ring, nvars, trunc, i, names)
        elif s.constant_term:
            raise SubstitutionError(
                f"substitution for variable {names[i]} has nonzero "
                f"constant term {s.constant_term!r}")
        subs.append(s)
    one = TruncatedSeries.constant(ring, nvars, trunc, ring.one, names)
    pow_cache = [{0: one} for _ in range(nvars)]

    def powi(i, k):
        cache = pow_cache[i]
        if k not in cache:
            cache[k] = powi(i, k - 1) * subs[i]
        return cache[k]

    total = TruncatedSeries.zero(ring, nvars, trunc, names)
    for e, c in sorted(series.terms.items()):
        mono = one
        for i, k in enumerate(e):
            if k:
                mono = mono * powi(i, k)
        total = total + mono.scale(c)
    return total


def reference_add(a, b):
    """The sum of `a` and `b` on exponent tuples."""
    zero = a.ring.zero
    terms = {e: a.terms.get(e, zero) + b.terms.get(e, zero)
             for e in a.terms.keys() | b.terms.keys()}
    return {e: c for e, c in terms.items() if c}


def reference_mul(a, b):
    """Schoolbook product on exponent tuples with degree-bound pruning -- the
    loop the packed-key kernel replaced."""
    bound = a.trunc
    sa = sorted(((sum(e), e, c) for e, c in a.terms.items()))
    sb = sorted(((sum(e), e, c) for e, c in b.terms.items()))
    terms = {}
    for da, ea, ca in sa:
        for db, eb, cb in sb:
            if da + db > bound:
                break
            exp = tuple(x + y for x, y in zip(ea, eb))
            prod = ca * cb
            if exp in terms:
                terms[exp] = terms[exp] + prod
            else:
                terms[exp] = prod
    return {e: c for e, c in terms.items() if c}


def reference_invert(a):
    """Order-by-order inverse on exponent tuples -- the recurrence the
    packed-key kernel replaced."""
    ring = a.ring
    c0inv = ring.invert(a.constant_term)
    by_deg = {}
    for e, c in a.terms.items():
        if sum(e):
            by_deg.setdefault(sum(e), []).append((e, c))
    levels = [{(0,) * a.nvars: c0inv}]
    for d in range(1, a.trunc + 1):
        acc = {}
        for da, entries in by_deg.items():
            if da > d:
                continue
            for eb, cb in levels[d - da].items():
                for ea, ca in entries:
                    exp = tuple(x + y for x, y in zip(ea, eb))
                    prod = ca * cb
                    acc[exp] = acc[exp] + prod if exp in acc else prod
        levels.append({e: -(c0inv * c) for e, c in acc.items() if c0inv * c})
    return {e: c for level in levels for e, c in level.items()}
