"""Content-addressed on-disk cache for expanded series.

One JSON file per entry, keyed by the SHA-256 of the canonical
(id, params, truncation, ring) tuple.  Files carry a schema version and
their id and params; a version mismatch, an entry of another expansion, a
series in other variables than the family's, and any entry that cannot be
read back are treated as a miss (with a warning) rather than an error.
Writes go through a temp file + rename so concurrent readers never observe a
torn entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings

from .cyclotomic import fraction_str
from .errors import PayloadError
from .serialize import series_from_payload, series_to_payload

SCHEMA_VERSION = 1

ENV_CACHE_DIR = "FISHBURN_CACHE_DIR"


def default_cache_dir():
    return os.environ.get(ENV_CACHE_DIR)


def _exact_params(params):
    """The parameters, sorted, with each value written exactly."""
    return {k: fraction_str(v) for k, v in sorted((params or {}).items())}


def _miss(message):
    warnings.warn(message, stacklevel=3)
    return None


class SeriesCache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    @staticmethod
    def _key(expr_id: str, params: dict, truncation: int, ring_tag: str) -> str:
        canonical = json.dumps(
            {"id": expr_id, "params": _exact_params(params),
             "truncation": truncation, "ring": ring_tag},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def get(self, expr_id: str, params: dict, truncation: int, ring_tag: str, names):
        """Cached series, or None on a miss.

        An entry that cannot be used -- undecodable JSON, a missing key, a
        payload that fails validation, a schema version, an id, parameters,
        a truncation/ring or variable names other than the ones requested --
        is a miss with a warning; the next `put` overwrites it.  The key
        does not hold the names, so a series planted in other variables
        would otherwise be served with its coefficients under the wrong
        variables.
        """
        path = self._path(self._key(expr_id, params, truncation, ring_tag))
        if not os.path.exists(path):
            return None
        name = os.path.basename(path)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except ValueError as exc:
            return _miss(f"cache entry {name} is not valid JSON ({exc}); ignoring")
        if not isinstance(entry, dict):
            return _miss(f"cache entry {name} is not a JSON object; ignoring")
        if entry.get("schema") != SCHEMA_VERSION:
            return _miss(
                f"cache entry {name} has schema "
                f"{entry.get('schema')} (current {SCHEMA_VERSION}); ignoring")
        if entry.get("id") != expr_id or entry.get("params") != _exact_params(params):
            return _miss(
                f"cache entry {name} holds {entry.get('id')!r} with parameters "
                f"{entry.get('params')!r}, not {expr_id!r} with "
                f"{_exact_params(params)!r}; ignoring")
        if "series" not in entry:
            return _miss(f"cache entry {name} has no 'series' key; ignoring")
        try:
            series = series_from_payload(entry["series"])
        except PayloadError as exc:
            return _miss(f"cache entry {name} holds a bad series ({exc}); ignoring")
        if (series.trunc, series.ring.tag, series.names) != (truncation, ring_tag, tuple(names)):
            return _miss(
                f"cache entry {name} holds a {series.ring.tag} series in {series.names} "
                f"truncated at {series.trunc}, not {ring_tag} in {tuple(names)} at "
                f"{truncation}; ignoring")
        return series

    def put(self, expr_id: str, params: dict, truncation: int, series) -> str:
        key = self._key(expr_id, params, truncation, series.ring.tag)
        path = self._path(key)
        entry = {
            "schema": SCHEMA_VERSION,
            "id": expr_id,
            "params": _exact_params(params),
            "series": series_to_payload(series),
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path
