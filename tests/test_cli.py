"""Command-line surface: exit codes, JSON schemas, golden outputs."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest

from fishburn.cli import main
from fishburn.qseries import fishburn_numbers, row_fishburn_numbers


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


def test_enumerate_interval_orders(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "intervalOrders",
                       "--size", "4", "--format", "json")
    assert code == 0
    assert json.loads(out)["total"] == 15


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


def test_numeric_refuses_digits_too_few_for_the_tolerance(capsys):
    code, _, err = run(capsys, "numeric", "--id", "grf", "--digits", "25")
    assert code == 2
    assert "too few" in err
    code, _, _ = run(capsys, "numeric", "--id", "grf", "--digits", "40",
                     "--tol-exp", "25", "--draws", "1")
    assert code == 0


def test_numeric_rejects_an_unknown_param(capsys):
    code, _, err = run(capsys, "numeric", "--id", "rf",
                       "--param", "a=0.3", "--param", "b=0.2",
                       "--param", "t=0.4", "--param", "q=0.5", "--param", "zz=3")
    assert code == 2
    assert "zz" in err


def test_numeric_ids_are_the_hypergeom_table():
    from fishburn import cli, hypergeom
    assert cli._NUMERIC_IDS is hypergeom.NUMERIC_IDENTITIES


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


def test_pentagonal_cli(capsys):
    code, out, _ = run(capsys, "pentagonal", "--order", "30")
    assert code == 0
    assert "verified" in out


def test_usage_error_without_command():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
