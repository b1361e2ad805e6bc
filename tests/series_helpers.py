"""Series operations that only the tests need: re-truncation and a change
of coefficient ring."""

from fishburn.errors import TruncationError
from fishburn.series import TruncatedSeries


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
    terms = {}
    for e, c in series.terms.items():
        val = fn(c)
        if val:
            terms[e] = val
    return TruncatedSeries(new_ring, series.nvars, series.trunc, terms, series.names)
