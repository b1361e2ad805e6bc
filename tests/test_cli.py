"""Command-line surface: exit codes, JSON schemas, golden outputs, and the
lazy imports that keep each command's start-up small."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import fishburn
from fishburn import names
from fishburn.cli import _report_exit, build_parser, main
from fishburn.cyclotomic import CONDUCTOR_CAP
from fishburn.hypergeom import DPS_CAP, DRAWS_CAP, MAX_TERMS_CAP
from fishburn.identities import VerificationReport
from fishburn.qseries import (FORMAL_ORDER_CAP, N_MAX_CAP, SEQUENCE_N_CAP, fishburn_numbers,
                              row_fishburn_numbers)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_thm_main_json(capsys):
    code, out, _ = run(capsys, "verify", "--id", "thm-main", "--order", "6",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 6
    for rep in reports:
        assert rep["outcome"] == "verified"
        assert set(rep) >= {"id", "mode", "order", "outcome", "timing_ms"}


def test_verify_all_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--id", "all")
    assert code == 0
    assert "mismatch" not in out


def test_verify_unknown_identity_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--id", "bogus")
    assert code == 2
    assert "unknown identity" in err


def test_expand_json_golden(capsys):
    code, out, _ = run(capsys, "expand", "--family", "F1", "--order", "3",
                       "--format", "json", "--no-cache")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "ZZ"
    assert payload["truncation"] == 3
    terms = {tuple(t["exp"]): t["coeff"] for t in payload["terms"]}
    assert terms == {(0, 0): "1", (0, 1): "1", (1, 1): "1", (0, 2): "1",
                     (2, 1): "2", (1, 2): "2", (0, 3): "1"}


def test_expand_uses_cache(tmp_path, capsys):
    argv = ("expand", "--family", "G1", "--order", "8", "--format", "json",
            "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["cached"] is False
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["cached"] is True
    assert list(tmp_path.glob("*.json"))


def test_expand_past_the_int_string_digit_limit(tmp_path, capsys):
    # a 3001-digit gamma gives coefficients beyond the 4300 digits that
    # str(int) prints by default; the cache must read the entry back as a hit
    argv = ("expand", "--family", "gamma2-lhs", "--order", "6", "--gamma",
            "1" + "0" * 3000, "--format", "json")
    code, out, _ = run(capsys, *argv, "--no-cache")
    assert code == 0
    fresh = json.loads(out)
    assert max(len(t["coeff"]) for t in fresh["terms"]) > 4300
    for cached in (False, True):
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        payload = json.loads(out)
        assert code == 0 and payload["cached"] is cached
        assert payload["terms"] == fresh["terms"]


def test_rational_options_past_the_int_string_digit_limit(tmp_path, capsys):
    # a 5001-digit option value is read, keyed in the cache and reported in
    # full, where Fraction(text) and str(Fraction) stop at 4300 digits
    big = "1" + "0" * 5000
    argv = ("expand", "--family", "gamma2-lhs", "--order", "2", f"--gamma={big}",
            "--format", "json", "--cache-dir", str(tmp_path))
    for cached in (False, True):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["cached"] is cached
    code, out, _ = run(capsys, "verify", "--id", "gamma2", "--order", "2",
                       f"--gamma={big}", "--format", "json")
    (report,) = json.loads(out)
    assert code == 0 and report["detail"] == {"gamma": big}
    # p q = 1 ends comp1-left and comp1-mid after two terms
    for fmt in ("text", "json"):
        code, out, _ = run(capsys, "terminating", "--expr", "comp1", "--p", big,
                           "--q", f"1/{big}", "--format", fmt)
        assert code == 0 and big in out
        code, out, _ = run(capsys, "terminating", "--expr", "comp1-left", "--p", big,
                           "--q", f"1/{big}", "--format", fmt)
        assert code == 0 and f"1/{big}" in out


@pytest.mark.parametrize("text", ["1e1000000", "1_0", "\u0661", " 1"],
                         ids=["exponent", "underscore", "arabic-indic-digit", "space"])
def test_rational_option_reads_only_what_fraction_str_writes(text, capsys):
    # an exponent would make a nine-character argument a million-digit number
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["terminating", "--expr", "comp1", "--p", text, "--q", "1/2"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    assert "not an exact rational" in capsys.readouterr().err


def test_expand_proposition_sides(tmp_path, capsys):
    payloads = {}
    for side in ("prop12-lhs", "prop12-rhs"):
        argv = ("expand", "--family", side, "--order", "6", "--format", "json",
                "--cache-dir", str(tmp_path))
        for cached in (False, True):
            code, out, _ = run(capsys, *argv)
            payloads[side] = json.loads(out)
            assert code == 0 and payloads[side]["cached"] is cached
    lhs, rhs = payloads["prop12-lhs"], payloads["prop12-rhs"]
    assert lhs["vars"] == rhs["vars"] == ["x", "y", "r"]
    assert lhs["terms"] == rhs["terms"] and len(lhs["terms"]) == 18
    code, _, err = run(capsys, "expand", "--family", "prop12-lhs", "--order", "2",
                       "--r", "1/2", "--no-cache")
    assert code == 2 and "takes no parameters" in err


def test_expand_corrupt_cache_entry_is_a_miss(tmp_path, capsys):
    argv = ("expand", "--family", "G1", "--order", "8", "--format", "json",
            "--cache-dir", str(tmp_path))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(entry.read_text()[:100])
    with pytest.warns(UserWarning, match="not valid JSON"):
        code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["cached"] is False
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["cached"] is True


def test_expand_planted_entry_of_another_family_is_a_miss(tmp_path, capsys):
    """A pentagonal-sum entry of the same truncation and ring, put at F2's
    key path, is a miss: F2 is computed, and its own terms are printed."""
    argv = ("expand", "--family", "F2", "--order", "6", "--format", "json")
    _, want, _ = run(capsys, *argv, "--no-cache")
    for family in ("F2", "pentagonal-sum"):
        code, _, _ = run(capsys, "expand", "--family", family, "--order", "6",
                         "--cache-dir", str(tmp_path / family))
        assert code == 0
    (f2,), (planted,) = ((tmp_path / family).glob("*.json") for family in ("F2", "pentagonal-sum"))
    f2.write_text(planted.read_text())
    with pytest.warns(UserWarning, match="holds 'pentagonal-sum'"):
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path / "F2"))
    assert code == 0 and json.loads(out)["cached"] is False
    assert json.loads(out) == json.loads(want)
    code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path / "F2"))
    assert code == 0 and json.loads(out)["cached"] is True


def test_expand_planted_entry_in_other_variables_is_a_miss(tmp_path, capsys):
    """An F1 entry whose series is in (y, x) holds the same terms under
    swapped names; it is a miss, and F1 is computed in (x, y)."""
    argv = ("expand", "--family", "F1", "--order", "6", "--format", "json",
            "--cache-dir", str(tmp_path))
    code, want, _ = run(capsys, *argv)
    assert code == 0 and json.loads(want)["vars"] == ["x", "y"]
    (entry,) = tmp_path.glob("*.json")
    planted = json.loads(entry.read_text())
    planted["series"]["vars"] = ["y", "x"]
    entry.write_text(json.dumps(planted))
    with pytest.warns(UserWarning, match=r"series in \('y', 'x'\)"):
        code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out) == json.loads(want)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out) == {**json.loads(want), "cached": True}


def test_expand_cache_dir_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FISHBURN_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "expand", "--family", "F2", "--order", "5",
                       "--format", "json")
    assert code == 0 and json.loads(out)["cached"] is False
    code, out, _ = run(capsys, "expand", "--family", "F2", "--order", "5",
                       "--format", "json")
    assert code == 0 and json.loads(out)["cached"] is True
    monkeypatch.setenv("FISHBURN_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "expand", "--family", "F2", "--order", "5",
                       "--format", "json", "--no-cache")
    assert code == 0 and json.loads(out)["cached"] is False


def test_expand_gamma_validation(capsys):
    code, _, err = run(capsys, "expand", "--family", "gamma1-lhs",
                       "--order", "4", "--gamma", "1", "--r", "1/2")
    assert code == 2
    assert "gamma" in err


def test_terminating_comp2(capsys):
    code, out, _ = run(capsys, "terminating", "--expr", "comp2",
                       "--p", "4", "--q", "1/2")
    assert code == 0
    assert "5/8" in out


def test_terminating_single_expression(capsys):
    code, out, _ = run(capsys, "terminating", "--expr", "comp1-left",
                       "--p", "2", "--q", "1/2")
    assert code == 0
    assert "3/2" in out


def test_terminating_comp2_first_at_an_odd_certificate(capsys):
    # p*q = 1 makes the factor (1/p; 1/q) of comp2-first vanish at j = 1, but
    # the factor (p; q^2) of comp2-right never vanishes, so the family refuses
    code, out, _ = run(capsys, "terminating", "--expr", "comp2-first",
                       "--p", "2", "--q", "1/2")
    assert code == 0
    assert out.strip() == "comp2-first(2, 1/2) = 1/2"
    code, _, err = run(capsys, "terminating", "--expr", "comp2",
                       "--p", "2", "--q", "1/2")
    assert code == 2
    assert "comp2-right" in err and "certificate" in err


def test_terminating_value_past_the_int_string_digit_limit(capsys):
    from fishburn.identities import evaluate_terminating
    p = str(2**180)
    want = evaluate_terminating("comp1-left", Fraction(p), Fraction(1, 2))
    for expr in ("comp1", "comp1-left"):
        code, out, _ = run(capsys, "terminating", "--expr", expr, "--p", p,
                           "--q", "1/2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        text = (payload["value"] if expr == "comp1-left"
                else payload["detail"]["values"]["comp1-left"])
        num, den = text.split("/")
        assert len(num) > 4300
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == want


def test_terminating_refusal_exit_2(capsys):
    code, _, err = run(capsys, "terminating", "--expr", "comp1",
                       "--p", "3", "--q", "1/2")
    assert code == 2
    assert "certificate" in err


def test_enumerate_fishburn_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "fishburn",
                       "--size", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 5


def test_enumerate_dump_format(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "fishburn",
                       "--size", "2", "--dump")
    assert code == 0
    assert out.splitlines() == ["n=1", "2", "n=2", "1 0", "0 1"]


# sha256 prefix and object count of each dump, recorded from the
# explicit-stack walk the memoised tree replaced; selfDual was recorded from
# matrices completed out of their south-east half by a separate class, so it
# pins the mirror map of the one generator to the same rows in the same order
@pytest.mark.parametrize("family,size,objects,digest", [
    ("fishburn", 6, 217, "4b8fcded9c1013a9"),
    ("rowFishburn", 5, 380, "2e70effedb1eb1d5"),
    ("selfDual", 4, 122, "e8cda88d2e795330"),
])
def test_enumerate_dump_is_frozen(capsys, family, size, objects, digest):
    code, out, _ = run(capsys, "enumerate", "--family", family,
                       "--size", str(size), "--dump")
    assert code == 0
    assert sum(line.startswith("n=") for line in out.splitlines()) == objects
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_enumerate_above_the_size_bound_is_refused(capsys):
    # past the bound the tree's recursion would overflow: a clean refusal
    code, out, err = run(capsys, "enumerate", "--family", "rowFishburn", "--size", "30")
    assert (code, out) == (2, "")
    assert err == "error: rowFishburn enumeration is configured for size <= 24, got 30\n"


def test_enumerate_dump_of_interval_orders_fails_before_work(capsys, monkeypatch):
    def refuse(size):
        raise AssertionError("interval orders enumerated before the usage check")

    monkeypatch.setattr("fishburn.posets.interval_order_statistics", refuse)
    code, _, err = run(capsys, "enumerate", "--family", "intervalOrders",
                       "--size", "7", "--dump")
    assert code == 2
    assert "--dump applies to matrix families only" in err


def test_enumerate_interval_orders(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "intervalOrders",
                       "--size", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["total"] == 15


def test_enumerate_interval_orders_at_the_size_bound(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "intervalOrders",
                       "--size", "8", "--format", "json")
    assert code == 0
    assert json.loads(out)["total"] == 5335


def test_enumerate_interval_orders_of_size_zero(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "intervalOrders",
                       "--size", "0")
    assert code == 0
    assert out.splitlines() == ["intervalOrders size 0: total 1", "  (0, 0): 1"]


def test_numeric_rf(capsys):
    code, out, _ = run(capsys, "numeric", "--id", "rf", "--draws", "2",
                       "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert all(r["outcome"] == "verified" for r in reports)


def test_numeric_explicit_params(capsys):
    code, out, _ = run(capsys, "numeric", "--id", "rf",
                       "--param", "a=0.3", "--param", "b=0.2",
                       "--param", "t=0.4", "--param", "q=0.5")
    assert code == 0


def test_numeric_missing_param(capsys):
    code, _, err = run(capsys, "numeric", "--id", "rf", "--param", "a=0.3")
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_numeric_needs_at_least_one_draw(capsys, draws):
    code, out, err = run(capsys, "numeric", "--id", "rf", "--draws", draws)
    assert code == 2
    assert "--draws" in err and out == ""


@pytest.mark.parametrize("max_terms", ["0", "-3"])
def test_numeric_needs_a_term_budget_of_at_least_one(capsys, max_terms):
    code, out, err = run(capsys, "numeric", "--id", "rf", "--draws", "1",
                         "--max-terms", max_terms)
    assert code == 2 and out == ""
    assert "--max-terms" in err and f"got {max_terms}" in err


@pytest.mark.parametrize("tol_exp", ["0", "-2"])
def test_numeric_needs_a_positive_tolerance_exponent(capsys, tol_exp):
    code, out, err = run(capsys, "numeric", "--id", "rf", "--draws", "1",
                         "--tol-exp", tol_exp)
    assert code == 2 and out == ""
    assert err == f"error: --tol-exp must be at least 1, got {tol_exp}\n"


@pytest.mark.parametrize("digits, guard", [("60", "1.0e-40"), ("100", "1.0e-67")])
def test_numeric_exactly_vanishing_denominator_is_a_pole(capsys, digits, guard):
    # b q = 2 at q = 1/2: the factor 1 - bq q^1 of (bq; q)_2 is exactly zero
    code, out, err = run(capsys, "numeric", "--id", "rf", "--digits", digits,
                         "--param", "a=0.3", "--param", "b=4",
                         "--param", "t=0.4", "--param", "q=0.5")
    assert code == 2 and out == ""
    assert err == f"error: denominator (bq;q)_n is within {guard} of zero\n"


def test_numeric_refuses_digits_too_few_for_the_tolerance(capsys):
    code, _, err = run(capsys, "numeric", "--id", "grf", "--digits", "25")
    assert code == 2
    assert "too few" in err
    code, _, _ = run(capsys, "numeric", "--id", "grf", "--digits", "40",
                     "--tol-exp", "25", "--draws", "1")
    assert code == 0


def test_numeric_grf_degeneration_names_the_digits_it_needs(capsys):
    code, out, err = run(capsys, "numeric", "--id", "grf-degeneration", "--digits", "40",
                         "--draws", "1")
    assert code == 2
    assert "at least 44 digits" in err and out == ""
    code, _, _ = run(capsys, "numeric", "--id", "grf-degeneration", "--digits", "44",
                     "--draws", "1")
    assert code == 0


def test_numeric_rejects_an_unknown_param(capsys):
    code, _, err = run(capsys, "numeric", "--id", "rf",
                       "--param", "a=0.3", "--param", "b=0.2",
                       "--param", "t=0.4", "--param", "q=0.5", "--param", "zz=3")
    assert code == 2
    assert "zz" in err



def test_numeric_refuses_a_repeated_param(capsys):
    code, out, err = run(capsys, "numeric", "--id", "rf",
                         "--param", "a=0.1", "--param", "b=0.2", "--param", "t=0.3",
                         "--param", "q=0.4", "--param", "q=0.5")
    assert (code, out, err) == (2, "", "error: --param q is given more than once\n")


def _untimed(payload):
    """The JSON `payload` with every report's timing_ms dropped."""
    if isinstance(payload, list):
        return [_untimed(x) for x in payload]
    if isinstance(payload, dict):
        return {k: _untimed(v) for k, v in payload.items() if k != "timing_ms"}
    return payload


def test_numeric_and_pentagonal_defaults_are_the_library_defaults(capsys):
    parser = build_parser()
    numeric = parser.parse_args(["numeric", "--id", "rf"])
    assert [numeric.digits, numeric.tol_exp, numeric.max_terms, numeric.seed] == [None] * 4
    assert parser.parse_args(["pentagonal"]).order is None
    outputs = []
    for argv in (["numeric", "--id", "rf", "--draws", "2"],
                 ["numeric", "--id", "rf", "--draws", "2", "--digits", "60",
                  "--tol-exp", "25", "--max-terms", "400", "--seed", "20260809"],
                 ["pentagonal"], ["pentagonal", "--order", "30"]):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        outputs.append(_untimed(json.loads(out)))
    assert outputs[0] == outputs[1]
    assert outputs[2] == outputs[3] and outputs[2]["report"]["order"] == 30


@pytest.mark.parametrize("argv, cap", [
    (["expand", "--family", "G1", "--order", "100", "--no-cache"], FORMAL_ORDER_CAP),
    (["pentagonal", "--order", "100000"], N_MAX_CAP),
    (["roots", "explore", "--k", "12", "--a", "5", "--b", "7", "--order", "40"],
     FORMAL_ORDER_CAP),
    (["roots", "expand", "--k", "4", "--order", "33"], FORMAL_ORDER_CAP),
    (["verify", "--id", "pentagonal-3way", "--order", "121"], N_MAX_CAP),
])
def test_an_order_above_its_cap_is_refused_before_any_work(capsys, argv, cap):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: order capped at {cap} for ")


@pytest.mark.parametrize("argv", [
    ["expand", "--family", "G1", "--order", "-1", "--no-cache"],
    ["pentagonal", "--order", "-1"],
    ["verify", "--id", "pentagonal-3way", "--order", "-1"],
    ["roots", "explore", "--k", "4", "--order", "-1"],
    ["roots", "expand", "--k", "4", "--order", "-1"],
])
def test_a_negative_order_is_refused_with_the_shared_message(capsys, argv):
    # pentagonal once built a series of order -1 before any family expanded
    assert run(capsys, *argv) == (2, "", "error: order must be nonnegative\n")


def test_expand_above_the_cap_writes_no_cache_file(capsys, tmp_path):
    code, _, err = run(capsys, "expand", "--family", "G1", "--order", "100",
                       "--cache-dir", str(tmp_path))
    assert code == 2 and "order capped" in err
    assert list(tmp_path.iterdir()) == []


def test_numeric_ids_are_the_hypergeom_table():
    from fishburn import cli, hypergeom
    assert cli._NUMERIC_IDS is hypergeom.NUMERIC_IDENTITIES


def test_numeric_registry_ids_are_the_hypergeom_table():
    from fishburn import hypergeom
    assert list(names.NUMERIC_REGISTRY_IDS.items()) == [
        (alias, ident) for alias, (ident, *_) in hypergeom.NUMERIC_IDENTITIES.items()]


def test_watson_cli(capsys):
    code, out, _ = run(capsys, "watson", "--n", "1", "--a", "1/3",
                       "--b", "1/5", "--c", "1/7", "--e", "1/11", "--q", "1/2")
    assert code == 0
    assert "verified" in out


def test_asymptotics_cli(capsys):
    code, out, _ = run(capsys, "asymptotics", "--which", "rowFishburn",
                       "--n-max", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 30


def test_roots_explore(capsys):
    code, out, _ = run(capsys, "roots", "explore", "--k", "2", "--a", "1",
                       "--b", "1", "--order", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["conj1"]["outcome"] == "agreement"
    assert payload["constant_terms"]["left"].startswith("(3")


def test_roots_certificate_failure_exit_2(capsys):
    code, _, err = run(capsys, "roots", "explore", "--k", "4", "--a", "1",
                       "--b", "2", "--order", "4")
    assert code == 2
    assert "certificate" in err


def test_roots_expand(capsys):
    code, out, _ = run(capsys, "roots", "expand", "--expr", "comp1-left",
                       "--k", "2", "--a", "1", "--b", "1", "--order", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "QQ(zeta_2)"
    terms = {tuple(t["exp"]): t["coeff"] for t in payload["terms"]}
    assert terms[(0, 0)] == "3"


def test_roots_check(capsys):
    code, out, _ = run(capsys, "roots", "check", "--k", "4",
                       "--family", "comp2-three-way",
                       "--p-exp", "2", "--q-exp", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["outcome"] == "verified"


@pytest.mark.parametrize("k", ["13", "300"])
def test_roots_check_refuses_a_conductor_beyond_the_cap(capsys, k):
    # at k = 300 the exact values agree but the embedding check read 5.9e-38
    # against its 1e-40 bound: no field beyond the cap is built
    code, out, err = run(capsys, "roots", "check", "--k", k, "--family", "comp2-three-way",
                         "--p-exp", "2", "--q-exp", "1")
    assert code == 2 and out == ""
    assert err == f"error: conductor capped at {CONDUCTOR_CAP}\n"


@pytest.mark.parametrize("argv", [
    ["roots", "check", "--k", "4", "--expr", "comp1-left"],
    ["roots", "check", "--k", "4", "--order", "99", "--a", "3"],
    ["roots", "explore", "--k", "2", "--p-exp", "5"],
    ["roots", "expand", "--k", "2", "--family", "comp2-three-way"],
], ids=["check-expr", "check-point", "explore-p-exp", "expand-family"])
def test_roots_flag_of_another_action_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_oeis_check_cli(tmp_path, capsys):
    path = tmp_path / "b158691.txt"
    path.write_text("\n".join(f"{n} {v}" for n, v in
                              enumerate(row_fishburn_numbers(9))))
    code, out, _ = run(capsys, "oeis-check", "--seq", "A158691",
                       "--bfile", str(path), "--max-n", "8")
    assert code == 0
    assert "9/9" in out


def test_oeis_check_mismatch_exit_1(tmp_path, capsys):
    path = tmp_path / "b022493.txt"
    values = fishburn_numbers(5)
    values[5] += 1
    path.write_text("\n".join(f"{n} {v}" for n, v in enumerate(values)))
    code, out, _ = run(capsys, "oeis-check", "--seq", "A022493",
                       "--bfile", str(path))
    assert code == 1
    assert "MISMATCH" in out


def test_oeis_check_bad_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 x\n")
    code, _, err = run(capsys, "oeis-check", "--seq", "A022493",
                       "--bfile", str(path))
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (("--max-n", "-1"), "error: max_n (--max-n) must be nonnegative, got -1\n"),
    ((), "error: the records of A022493 have no index from 0 up to 200 to compare\n"),
])
def test_oeis_check_of_nothing_exit_2(tmp_path, capsys, argv, message):
    # exit 1 means a mismatch was found; comparing no index finds none
    path = tmp_path / "b022493.txt"
    path.write_text("# no records\n")
    code, out, err = run(capsys, "oeis-check", "--seq", "A022493", "--bfile", str(path), *argv)
    assert (code, out, err) == (2, "", message)


def test_pentagonal_cli(capsys):
    code, out, _ = run(capsys, "pentagonal", "--order", "30")
    assert code == 0
    assert "verified" in out


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# lazy imports

# what neither the package nor the CLI may load before a command needs it
COMPUTING_MODULES = ("mpmath", "fishburn.enumeration", "fishburn.posets",
                     "fishburn.hypergeom", "fishburn.roots", "fishburn.asymptotics",
                     "fishburn.oeis", "fishburn.identities")


def last_line_of(script):
    """The last line that a fresh interpreter prints when it runs `script`."""
    src = str(Path(fishburn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("FISHBURN_CACHE_DIR", None)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1]


def computing_modules_after(code):
    """The COMPUTING_MODULES that a fresh interpreter has loaded once `code`
    has run."""
    return last_line_of(
        f"{code}\nimport sys\n"
        f"print(' '.join(m for m in {COMPUTING_MODULES!r} if m in sys.modules))").split()


@pytest.mark.parametrize("code", ["import fishburn", "import fishburn.cli",
                                  "import fishburn.cli; fishburn.cli.build_parser()"])
def test_import_loads_no_computing_module(code):
    assert computing_modules_after(code) == []


def test_numeric_module_loads_no_mpmath():
    # the numeric checks compute and print in decimal
    assert computing_modules_after("import fishburn.hypergeom") == [
        "fishburn.hypergeom", "fishburn.identities"]


@pytest.mark.parametrize("argv, loaded", [
    (["expand", "--family", "F2", "--order", "6", "--no-cache"], []),
    (["terminating", "--expr", "comp2", "--p", "4", "--q", "1/2"],
     ["fishburn.identities"]),
    (["roots", "expand", "--k", "3", "--a", "1", "--b", "1", "--order", "3"],
     ["fishburn.roots", "fishburn.identities"]),
    (["pentagonal", "--order", "10"], ["fishburn.identities"]),
    (["verify", "--id", "F1=F2", "--order", "4"], ["fishburn.identities"]),
])
def test_exact_commands_load_only_their_layers(argv, loaded):
    code = f"from fishburn.cli import main\nmain({argv!r})"
    assert computing_modules_after(code) == loaded


@pytest.mark.parametrize("argv, loaded", [
    (["verify", "--id", "all"],
     ["fishburn.enumeration", "fishburn.hypergeom", "fishburn.identities"]),
    *[(["numeric", "--id", alias, "--draws", "1"],
       ["fishburn.hypergeom", "fishburn.identities"]) for alias in names.NUMERIC_IDS],
    *[(["asymptotics", "--which", which], ["fishburn.asymptotics"])
      for which in names.TREND_SEQUENCES],
    (["roots", "check", "--family", "comp1-left-vs-mid", "--k", "3", "--p-exp", "1",
      "--q-exp", "1"], ["fishburn.roots", "fishburn.identities"]),
    (["roots", "explore", "--k", "4", "--a", "1", "--b", "1", "--order", "3"],
     ["fishburn.roots", "fishburn.identities"]),
])
def test_numeric_and_asymptotic_commands_load_no_mpmath(argv, loaded):
    # their values are decimals from parameter to printed digit, and the
    # roots cross-check embeds Q(zeta_k) in decimal
    code = f"from fishburn.cli import main\nmain({argv!r})"
    assert computing_modules_after(code) == loaded


# one cheap command of every subcommand but oeis-check, which needs a b-file,
# and of every roots action
EVERY_SUBCOMMAND = [
    ["verify", "--id", "all"],
    ["numeric", "--id", "grf", "--draws", "2"],
    ["asymptotics", "--which", "fishburn", "--n-max", "20"],
    ["roots", "check", "--k", "3", "--p-exp", "1", "--q-exp", "1"],
    ["roots", "explore", "--k", "4", "--a", "1", "--b", "1", "--order", "3"],
    ["roots", "expand", "--k", "3", "--a", "1", "--b", "1", "--order", "3"],
    ["terminating", "--expr", "comp2", "--p", "4", "--q", "1/2"],
    ["watson", "--n", "2", "--a", "2/3", "--b=-1/5", "--c", "3/7", "--e", "5/11",
     "--q", "1/3"],
    ["pentagonal", "--order", "10"],
    ["expand", "--family", "F2", "--order", "6", "--no-cache"],
    ["enumerate", "--family", "fishburn", "--size", "5"],
]


def test_every_subcommand_runs_with_mpmath_blocked(tmp_path):
    bfile = tmp_path / "b022493.txt"
    bfile.write_text("\n".join(f"{n} {v}" for n, v in enumerate(fishburn_numbers(10))))
    commands = EVERY_SUBCOMMAND + [["oeis-check", "--seq", "A022493", "--bfile", str(bfile),
                                    "--max-n", "10"]]
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert sorted({argv[0] for argv in commands}) == sorted(subcommands)
    assert sorted(argv[1] for argv in commands if argv[0] == "roots") == [
        "check", "expand", "explore"]
    # a None entry in sys.modules makes any import of mpmath fail
    exits = last_line_of("import sys\nsys.modules['mpmath'] = None\n"
                         "from fishburn.cli import main\n"
                         f"print([main(argv) for argv in {commands!r}])")
    assert exits == str([0] * len(commands))


@pytest.mark.parametrize("name", fishburn.__all__)
def test_package_name_is_the_submodule_binding(name, monkeypatch):
    module = importlib.import_module(f"fishburn.{fishburn._SOURCE[name]}")
    assert name in vars(module)
    assert getattr(fishburn, name) is getattr(module, name)
    # nothing is cached in the package: a rebinding in the submodule shows
    stand_in = object()
    monkeypatch.setattr(module, name, stand_in)
    assert getattr(fishburn, name) is stand_in
    assert name not in vars(fishburn)


def test_package_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from fishburn import *", namespace)
    assert set(fishburn.__all__) <= set(namespace)
    assert set(fishburn.__all__) <= set(dir(fishburn))
    with pytest.raises(AttributeError, match="no_such_name"):
        fishburn.no_such_name
    with pytest.raises(ImportError):
        exec("from fishburn import no_such_name", {})


# names tuple -> (module, the keys of the table there that it lists)
NAME_TABLES = {
    "FAMILY_IDS": ("qseries", lambda m: sorted(m._FAMILIES)),
    "NUMERIC_IDS": ("hypergeom", lambda m: sorted(m.NUMERIC_IDENTITIES)),
    "TREND_SEQUENCES": ("asymptotics", lambda m: list(m.MAIN_TERMS)),
    "OEIS_SEQUENCES": ("oeis", lambda m: sorted(m.SEQUENCES)),
}


@pytest.mark.parametrize("name", sorted(NAME_TABLES))
def test_choice_names_match_their_tables(name):
    module, keys = NAME_TABLES[name]
    assert getattr(names, name) == tuple(keys(importlib.import_module(f"fishburn.{module}")))


def test_terminating_above_the_term_cap_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "terminating", "--expr", "comp1", "--p", str(2**2000),
                         "--q", "1/2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "capped at" in err
    # the 603-digit p is named by its size, so the error stays one short line
    assert err.count("\n") == 1 and len(err) < 200
    assert "p=<a number of 603 digits>" in err


# commands that ran unbounded before a bound refused them: the ascent count
# and the oeis-check were still running when a 20 s timeout killed them, the
# dump computed a count it never printed and then raised RecursionError, and
# 100000 digits took over 8 s, and a budget of 100000000 terms at a ratio of
# 0.9999999 was still running when a 20 s timeout killed it
BOUNDED_COMMANDS = {
    "ascent count": (["enumerate", "--family", "ascentSequences", "--size", "100000000"],
                     f"ascent sequence length capped at {SEQUENCE_N_CAP} (got 100000000)"),
    "ascent dump": (["enumerate", "--family", "ascentSequences", "--size", "100000000",
                     "--dump"],
                    f"ascent sequence length capped at {SEQUENCE_N_CAP} (got 100000000)"),
    "oeis-check max-n": (["oeis-check", "--seq", "A022493", "--bfile", "BFILE",
                          "--max-n", "100000"],
                         f"max_n (--max-n) is capped at {SEQUENCE_N_CAP}, got 100000"),
    "numeric digits": (["numeric", "--id", "rf", "--draws", "1", "--digits", "100000"],
                       f"dps (--digits) is capped at {DPS_CAP}, got 100000"),
    "numeric draws": (["numeric", "--id", "rf", "--draws", "100000000"],
                      f"--draws 100000000 is not within 1..{DRAWS_CAP}"),
    "numeric max-terms": (["numeric", "--id", "rf", "--draws", "1", "--max-terms", "100000000",
                           "--param", "a=0.3", "--param", "b=0.2", "--param", "t=0.9999999",
                           "--param", "q=0.5"],
                          "the term budget max_terms (--max-terms) must be within "
                          f"1..{MAX_TERMS_CAP}, got 100000000"),
}


@pytest.mark.parametrize("name", sorted(BOUNDED_COMMANDS))
def test_a_bounded_command_exits_2_at_once(capsys, tmp_path, name):
    argv, message = BOUNDED_COMMANDS[name]
    bfile = tmp_path / "b022493.txt"
    bfile.write_text("100000 1\n")
    argv = [str(bfile) if arg == "BFILE" else arg for arg in argv]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_report_exit_is_2_when_a_check_did_not_converge():
    # as the module docstring promises for every command, ahead of a mismatch
    verified, mismatch, inconclusive = (VerificationReport("x", "numeric", outcome=outcome)
                                        for outcome in ("verified", "mismatch", "inconclusive"))
    assert _report_exit([verified]) == 0
    assert _report_exit([verified, mismatch]) == 1
    assert _report_exit([mismatch, inconclusive]) == 2


def test_watson_above_its_cap_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "watson", "--n", "3000", "--a", "1/3", "--b", "1/5",
                         "--c", "1/7", "--e", "1/11", "--q", "1/2")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "capped at" in err
