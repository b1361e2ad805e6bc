"""b-file parsing, sequence cross-checks, serialization, and the cache."""

import json
import os
import random
from fractions import Fraction

import pytest

from fishburn.cache import SCHEMA_VERSION, SeriesCache
from fishburn.cyclotomic import get_field
from fishburn.errors import BFileFormatError, BoundExceededError, ParameterError, PayloadError
from fishburn.oeis import cross_check, parse_b_file, parse_b_file_lines
from fishburn.qseries import BIVARIATE_NAMES, SEQUENCE_N_CAP, expand_family, fishburn_numbers
from fishburn.rings import QQ, ZZ
from fishburn.serialize import series_from_payload, series_to_payload
from fishburn.series import TruncatedSeries


def test_parse_basic():
    records = parse_b_file_lines(["0 1", "1 1", "2 2"])
    assert [(r.index, r.value) for r in records] == [(0, 1), (1, 1), (2, 2)]


def test_parse_skips_comments_and_blanks():
    records = parse_b_file_lines(["# header", "", "5 53"])
    assert [(r.index, r.value) for r in records] == [(5, 53)]


def test_parse_reports_line_numbers():
    with pytest.raises(BFileFormatError, match=":1:"):
        parse_b_file_lines(["3 x"])
    with pytest.raises(BFileFormatError, match=":3:"):
        parse_b_file_lines(["1 1", "2 2", "1 5"])
    with pytest.raises(BFileFormatError, match="index value"):
        parse_b_file_lines(["1 2 3"])


def test_parse_from_disk(tmp_path):
    path = tmp_path / "b022493.txt"
    path.write_text("# fixture from the library's own enumeration\n"
                    + "\n".join(f"{n} {v}" for n, v in
                                enumerate(fishburn_numbers(8))))
    records = parse_b_file(str(path))
    assert len(records) == 9


def test_cross_check_matches(tmp_path):
    records = parse_b_file_lines(
        f"{n} {v}" for n, v in enumerate(fishburn_numbers(10)))
    result = cross_check("A022493", records, max_n=8)
    assert result["checked"] == 9
    assert result["matches"] == 9


def test_cross_check_detects_mismatch():
    records = parse_b_file_lines(["0 1", "1 1", "2 3"])
    result = cross_check("A022493", records)
    rows = {n: ok for n, _, _, ok in result["rows"]}
    assert rows == {0: True, 1: True, 2: False}


def test_cross_check_skips_indices_past_the_sequence_cap():
    records = parse_b_file_lines([f"{n} {v}" for n, v in enumerate(fishburn_numbers(5))]
                                 + [f"{SEQUENCE_N_CAP + 1} 1", "100000 1"])
    result = cross_check("A022493", records)
    assert (result["checked"], result["matches"]) == (6, 6)
    with pytest.raises(BoundExceededError, match=f"capped at {SEQUENCE_N_CAP}, got 100000$"):
        cross_check("A022493", records, max_n=100000)


def test_cross_check_unknown_tag():
    with pytest.raises(ParameterError):
        cross_check("A000001", [])


# -- serialization -------------------------------------------------------------


def _random_series(rng, ring, coeff_gen, n=5):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        i = rng.randint(0, n)
        j = rng.randint(0, n - i)
        c = coeff_gen()
        if c:
            terms[(i, j)] = c
    return TruncatedSeries(ring, 2, n, terms)


def test_roundtrip_integer_and_rational():
    rng = random.Random(4242)
    for _ in range(20):
        s = _random_series(rng, ZZ, lambda: rng.randint(-10**12, 10**12))
        assert series_from_payload(series_to_payload(s)) == s
        t = _random_series(rng, QQ, lambda: Fraction(rng.randint(-99, 99),
                                                     rng.randint(1, 99)))
        assert series_from_payload(series_to_payload(t)) == t


def test_roundtrip_past_the_int_string_digit_limit():
    # str(int) and int(str) stop at 4300 digits by default
    huge = Fraction(-(10**5000 + 7), 3 * 10**4999 + 1)
    s = TruncatedSeries(QQ, 2, 3, {(0, 0): Fraction(1), (1, 2): huge})
    payload = series_to_payload(s)
    assert len(payload["terms"][1]["coeff"]) > 10_000
    assert series_from_payload(json.loads(json.dumps(payload))) == s
    z = TruncatedSeries(ZZ, 1, 2, {(1,): 10**5000 - 1}, ("w",))
    assert series_from_payload(series_to_payload(z)) == z
    assert f"{payload['terms'][1]['coeff']}*x*y^2" in repr(s)
    assert "9" * 5000 in repr(z)


def test_roundtrip_cyclotomic():
    ring = get_field(5)
    rng = random.Random(5)
    s = _random_series(
        rng, ring,
        lambda: ring.element([Fraction(rng.randint(-4, 4), 3) for _ in range(4)]))
    assert series_from_payload(series_to_payload(s)) == s


def test_payload_is_exact_strings_sorted():
    s = expand_family("F1", 3)
    payload = series_to_payload(s)
    exps = [tuple(t["exp"]) for t in payload["terms"]]
    assert exps == sorted(exps)
    assert all(isinstance(t["coeff"], str) for t in payload["terms"])
    json.dumps(payload)  # must be JSON-clean


def _payload(ring="ZZ", nvars=1, trunc=3, terms=(([0], "1"),)):
    return {"vars": list("xyr"[:nvars]), "truncation": trunc, "ring": ring,
            "terms": [{"exp": exp, "coeff": coeff} for exp, coeff in terms]}


def test_valid_payload_reads_back():
    s = series_from_payload(_payload(terms=(([0], "1"), ([3], "-2"))))
    assert s.terms == {(0,): 1, (3,): -2} and s.trunc == 3


@pytest.mark.parametrize("payload,match", [
    (_payload(terms=(([9], "1"),)), "exceeds truncation"),
    (_payload(nvars=2, trunc=4, terms=(([3, 2], "1"),)), "exceeds truncation"),
    (_payload(terms=(([1, 1], "1"),)), "entries"),
    (_payload(nvars=2, terms=(([1], "1"),)), "entries"),
    (_payload(terms=(([-1], "1"),)), "nonnegative integers"),
    (_payload(terms=(([1.5], "1"),)), "nonnegative integers"),
    (_payload(terms=((["1"], "1"),)), "nonnegative integers"),
    (_payload(terms=(([[1]], "1"),)), "malformed"),
    (_payload(ring="QQ(zeta_12)", terms=(([1], "1,0,0"),)), "4 coordinates"),
    (_payload(ring="QQ(zeta_4)", terms=(([1], "1,0,0"),)), "2 coordinates"),
    (_payload(terms=(([1], "1/2"),)), "bad coefficient"),
    (_payload(terms=(([1], "1"), ([1], "2"))), "twice"),
    (_payload(trunc=-1, terms=()), "truncation"),
    ({"vars": ["x"], "ring": "ZZ", "terms": []}, "malformed"),
    (_payload(ring="CC(60)"), "unknown ring tag"),
    (_payload(ring="QQ(zeta_100003)", terms=(([1], "1"),)), "conductor 100003"),
    (_payload(ring="QQ(zeta_0)"), "conductor 0"),
    (_payload(ring="QQ(zeta_+6)"), "unknown ring tag"),
    (_payload(ring="QQ(zeta_06)"), "unknown ring tag"),
    (_payload(ring="QQ(zeta_ 6)"), "unknown ring tag"),
    (_payload(ring="QQ(zeta_1_2)"), "unknown ring tag"),
    (_payload(ring=6), "malformed"),
    (_payload(terms=(([1], "1e50"),)), "bad coefficient"),
    (_payload(terms=(([1], "1_0"),)), "bad coefficient"),
    (_payload(terms=(([1], " 1"),)), "bad coefficient"),
], ids=["degree", "degree-2var", "arity-long", "arity-short", "negative",
        "float", "string-exp", "list-in-exp", "cyclo-width-12", "cyclo-width-4", "zz-fraction",
        "duplicate", "negative-truncation", "missing-key", "complex-ring",
        "conductor-above-cap", "conductor-zero", "conductor-plus-sign",
        "conductor-leading-zero", "conductor-space", "conductor-underscore",
        "ring-not-a-string", "coeff-exponent", "coeff-underscore", "coeff-space"])
def test_rejected_payload_shapes(payload, match):
    with pytest.raises(PayloadError, match=match):
        series_from_payload(payload)


# -- cache ---------------------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    cache = SeriesCache(str(tmp_path))
    s = expand_family("F1", 10)
    cache.put("F1", {}, 10, s)
    got = cache.get("F1", {}, 10, "ZZ", BIVARIATE_NAMES)
    assert got == s


def test_cache_miss_on_different_key(tmp_path):
    cache = SeriesCache(str(tmp_path))
    cache.put("F1", {}, 10, expand_family("F1", 10))
    assert cache.get("F1", {}, 11, "ZZ", BIVARIATE_NAMES) is None
    assert cache.get("F2", {}, 10, "ZZ", BIVARIATE_NAMES) is None
    assert cache.get("F1", {"gamma": "1/2"}, 10, "ZZ", BIVARIATE_NAMES) is None


def test_cache_miss_after_clear(tmp_path):
    cache = SeriesCache(str(tmp_path))
    path = cache.put("F1", {}, 6, expand_family("F1", 6))
    import os
    os.unlink(path)
    assert cache.get("F1", {}, 6, "ZZ", BIVARIATE_NAMES) is None


def test_cache_schema_mismatch_warns_and_misses(tmp_path):
    cache = SeriesCache(str(tmp_path))
    path = cache.put("F1", {}, 6, expand_family("F1", 6))
    entry = json.loads(open(path).read())
    entry["schema"] = SCHEMA_VERSION + 1
    with open(path, "w") as fh:
        json.dump(entry, fh)
    with pytest.warns(UserWarning, match="schema"):
        assert cache.get("F1", {}, 6, "ZZ", BIVARIATE_NAMES) is None


def test_cache_entries_are_content_addressed(tmp_path):
    cache = SeriesCache(str(tmp_path))
    p1 = cache.put("F1", {}, 6, expand_family("F1", 6))
    p2 = cache.put("F1", {}, 6, expand_family("F1", 6))
    assert p1 == p2
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1


def _rewrite(path, edit):
    entry = json.loads(open(path).read())
    edit(entry)
    with open(path, "w") as fh:
        json.dump(entry, fh)


def _plant(path, family):
    """Move `family`'s order-6 entry to `path`, the key path of another entry."""
    os.replace(SeriesCache(os.path.dirname(path)).put(family, {}, 6, expand_family(family, 6)),
               path)


@pytest.mark.parametrize("corrupt,match", [
    (lambda path: open(path, "w").write(open(path).read()[:40]), "not valid JSON"),
    (lambda path: open(path, "w").write("[1, 2]"), "not a JSON object"),
    (lambda path: _rewrite(path, lambda e: e.pop("series")), "no 'series' key"),
    (lambda path: _rewrite(path, lambda e: e["series"].pop("terms")), "bad series"),
    (lambda path: _rewrite(path, lambda e: e["series"]["terms"].append(
        {"exp": [9, 9], "coeff": "1"})), "bad series"),
    (lambda path: _rewrite(path, lambda e: e["series"].update(truncation=7)),
     "truncated at 7"),
    (lambda path: _rewrite(path, lambda e: e["series"].update(ring="QQ")), "QQ series"),
    (lambda path: _rewrite(path, lambda e: e["series"].update(truncation=10**9)),
     "truncated at 1000000000"),
    (lambda path: _rewrite(path, lambda e: e["series"].update(ring="QQ(zeta_100003)")),
     "conductor 100003"),
    (lambda path: _rewrite(path, lambda e: e["series"].update(ring=6)), "malformed"),
    (lambda path: _rewrite(path, lambda e: e["series"]["terms"][0].update(coeff="1e50")),
     "bad series"),
    (lambda path: _plant(path, "G1"), "holds 'G1' with parameters {}, not 'F1'"),
    (lambda path: _plant(path, "pentagonal-sum"), "holds 'pentagonal-sum'"),
    (lambda path: _rewrite(path, lambda e: e.update(params={"gamma": "1/2"})),
     "holds 'F1' with parameters {'gamma': '1/2'}, not 'F1' with {}"),
    (lambda path: _rewrite(path, lambda e: e["series"].update(vars=["y", "x"])),
     r"series in \('y', 'x'\) truncated at 6, not ZZ in \('x', 'y'\)"),
], ids=["truncated-json", "not-object", "missing-series", "missing-terms",
        "rejected-payload", "other-truncation", "other-ring", "huge-truncation",
        "huge-conductor", "ring-not-a-string", "exponent-coefficient", "other-id",
        "other-family-shape", "other-params", "swapped-vars"])
def test_unusable_cache_entry_is_a_miss_then_overwritten(tmp_path, corrupt, match):
    cache = SeriesCache(str(tmp_path))
    s = expand_family("F1", 6)
    path = cache.put("F1", {}, 6, s)
    corrupt(path)
    with pytest.warns(UserWarning, match=match):
        assert cache.get("F1", {}, 6, "ZZ", BIVARIATE_NAMES) is None
    assert cache.put("F1", {}, 6, s) == path
    assert cache.get("F1", {}, 6, "ZZ", BIVARIATE_NAMES) == s

