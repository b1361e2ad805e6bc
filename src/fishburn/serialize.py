"""JSON payloads for series: exact strings, deterministic ordering.

Coefficients are serialized through the ring's exact string form ("num/den"
for rationals, comma-joined coordinate vectors for cyclotomic elements),
never floats, so round-tripping is the identity.  Term lists are sorted by
multi-index so emitted files are diff-stable.

A payload read back is checked where it is read: no exponent may appear
twice, and a Q(zeta_k) coefficient must have exactly phi(k) coordinates.
Its exponents are checked by the series constructor, as every exponent is:
one nonnegative integer per variable, of total degree at most the
truncation.  Any fault raises PayloadError instead of yielding a silently
wrong series.
"""

from __future__ import annotations

from .cyclotomic import CyclotomicField
from .errors import PayloadError, SeriesCompatibilityError, TruncationError
from .rings import ring_from_tag
from .series import TruncatedSeries


def series_to_payload(series: TruncatedSeries) -> dict:
    return {
        "vars": list(series.names),
        "truncation": series.trunc,
        "ring": series.ring.tag,
        "terms": [
            {"exp": list(exp), "coeff": series.ring.coeff_to_str(series.terms[exp])}
            for exp in sorted(series.terms)
        ],
    }


def series_from_payload(payload: dict) -> TruncatedSeries:
    try:
        ring = ring_from_tag(payload["ring"])
        names = tuple(payload["vars"])
        trunc = payload["truncation"]
        items = [(tuple(item["exp"]), item["coeff"]) for item in payload["terms"]]
        hash(tuple(exp for exp, _ in items))  # refuses a list or dict in an exponent
    except (KeyError, TypeError, ValueError) as exc:
        raise PayloadError(f"malformed series payload: {exc!r}") from exc
    width = ring.degree if isinstance(ring, CyclotomicField) else None
    terms = {}
    for exp, text in items:
        if exp in terms:
            raise PayloadError(f"exponent {list(exp)!r} appears twice")
        if width is not None and (not isinstance(text, str) or text.count(",") + 1 != width):
            raise PayloadError(f"coefficient {text!r} does not have {width} coordinates")
        try:
            terms[exp] = ring.coeff_from_str(text)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise PayloadError(f"bad coefficient {text!r} for {ring.tag}") from exc
    try:
        return TruncatedSeries(ring, len(names), trunc, terms, names)
    except (ValueError, SeriesCompatibilityError, TruncationError) as exc:
        raise PayloadError(str(exc)) from exc
