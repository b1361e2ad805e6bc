"""Series operations that only the tests need: re-truncation, a change of
coefficient ring, and a comparison on exponent tuples."""

from fishburn.errors import TruncationError
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
