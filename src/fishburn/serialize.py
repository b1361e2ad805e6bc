"""JSON payloads for series: exact strings, deterministic ordering.

Coefficients are serialized through the ring's exact string form ("num/den"
for rationals, comma-joined coordinate vectors for cyclotomic elements),
never floats, so round-tripping is the identity.  Term lists are sorted by
multi-index so emitted files are diff-stable.

Payloads read back are validated here, at the boundary, rather than in the
series constructor: a term must have one nonnegative integer exponent per
variable, total degree at most the truncation, and (for Q(zeta_k)) exactly
phi(k) coordinates.  Anything else raises PayloadError instead of yielding a
silently wrong series.
"""

from __future__ import annotations

from .cyclotomic import CyclotomicField
from .errors import PayloadError
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
        items = [(item["exp"], item["coeff"]) for item in payload["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise PayloadError(f"malformed series payload: {exc!r}") from exc
    nvars = len(names)
    if not 1 <= nvars <= 3:
        raise PayloadError(f"{nvars} variables; supported counts are 1..3")
    if type(trunc) is not int or trunc < 0:
        raise PayloadError(f"truncation {trunc!r} is not a nonnegative integer")
    width = ring.degree if isinstance(ring, CyclotomicField) else None
    terms = {}
    seen = set()
    for exp, text in items:
        if not isinstance(exp, list) or len(exp) != nvars:
            raise PayloadError(f"exponent {exp!r} does not have {nvars} entries")
        if any(type(e) is not int or e < 0 for e in exp):
            raise PayloadError(f"exponent {exp!r} is not nonnegative integers")
        if sum(exp) > trunc:
            raise PayloadError(f"exponent {exp!r} exceeds truncation {trunc}")
        exp = tuple(exp)
        if exp in seen:
            raise PayloadError(f"exponent {list(exp)!r} appears twice")
        seen.add(exp)
        if width is not None and (not isinstance(text, str) or text.count(",") + 1 != width):
            raise PayloadError(f"coefficient {text!r} does not have {width} coordinates")
        try:
            coeff = ring.coeff_from_str(text)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise PayloadError(f"bad coefficient {text!r} for {ring.tag}") from exc
        if coeff:
            terms[exp] = coeff
    return TruncatedSeries(ring, nvars, trunc, terms, names)
