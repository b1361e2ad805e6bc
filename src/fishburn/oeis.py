"""OEIS b-file ingestion and sequence cross-checks.

b-files are plain ASCII, one "index value" pair per line, '#' comments and
blank lines allowed, indices strictly increasing.  Cross-checks are
offline-first: files come from disk; `fetch_b_file` can download one when
explicitly asked for, but nothing here requires the network.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BFileFormatError, BoundExceededError, ParameterError
from .qseries import SEQUENCE_N_CAP, fishburn_numbers, row_fishburn_numbers

BFileRecord = namedtuple("BFileRecord", "index value")

FETCH_TIMEOUT_S = 30.0  # seconds `fetch_b_file` waits for the server

# the two sequences this library materializes
SEQUENCES = {
    "A022493": ("Fishburn numbers (interval orders by size)", fishburn_numbers),
    "A158691": ("row-Fishburn matrices by size", row_fishburn_numbers),
}


def parse_b_file_lines(lines, source="<memory>"):
    records = []
    last_index = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileFormatError(
                f"{source}:{lineno}: expected 'index value', got {line!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileFormatError(
                f"{source}:{lineno}: non-integer field in {line!r}") from None
        if last_index is not None and idx <= last_index:
            raise BFileFormatError(
                f"{source}:{lineno}: index {idx} not increasing after {last_index}")
        last_index = idx
        records.append(BFileRecord(idx, val))
    return records


def parse_b_file(path: str):
    """Parse an OEIS b-file from disk into (index, value) records."""
    with open(path, encoding="utf-8") as fh:
        return parse_b_file_lines(fh, source=path)


def cross_check(tag: str, records, max_n=SEQUENCE_N_CAP) -> dict:
    """Compare ingested values against the library's own sequence.

    Returns {"tag", "checked", "matches", "rows": [(n, ours, theirs, ok)]}.
    Indices below 0 or above `max_n` are skipped (b-files may carry offsets
    and lengths the library does not materialize).  A negative `max_n`, or
    records that leave no index to compare, raise ParameterError: a check of
    nothing neither matches nor mismatches.  A `max_n` above SEQUENCE_N_CAP
    is BoundExceededError.
    """
    if tag not in SEQUENCES:
        raise ParameterError(
            f"unsupported sequence {tag!r}; supported: {', '.join(sorted(SEQUENCES))}")
    if max_n < 0:
        raise ParameterError(f"max_n (--max-n) must be nonnegative, got {max_n}")
    if max_n > SEQUENCE_N_CAP:
        raise BoundExceededError(f"max_n (--max-n) is capped at {SEQUENCE_N_CAP}, got {max_n}")
    usable = [r for r in records if 0 <= r.index <= max_n]
    if not usable:
        raise ParameterError(f"the records of {tag} have no index from 0 up to {max_n} "
                             "to compare")
    top = max(r.index for r in usable)
    ours = SEQUENCES[tag][1](top)
    rows = []
    matches = 0
    for rec in usable:
        mine = ours[rec.index]
        ok = mine == rec.value
        matches += ok
        rows.append((rec.index, mine, rec.value, ok))
    return {"tag": tag, "checked": len(rows), "matches": matches, "rows": rows}


def fetch_b_file(tag: str, dest_path: str) -> str:
    """Download https://oeis.org/<tag>/b<digits>.txt to dest_path.

    Only invoked behind an explicit --fetch; never needed by the test suite.
    """
    import urllib.request

    digits = tag.lstrip("A")
    url = f"https://oeis.org/{tag}/b{digits}.txt"
    with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
        data = resp.read()
    with open(dest_path, "wb") as fh:
        fh.write(data)
    return dest_path
