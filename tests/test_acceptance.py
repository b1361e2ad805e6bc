"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values are frozen from the independent oracles (brute-force
enumeration, direct parity counts, exact terminating sums); runtime budgets
are asserted where stated.
"""

import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from fishburn.asymptotics import deviation_band, trend
from fishburn.cli import main as cli_main
from fishburn.cyclotomic import get_field
from fishburn.enumeration import refined_counts, verify_facts
from fishburn.errors import CertificateError
from fishburn.hypergeom import (NumericEvalParams, generalized_rf_check,
                                grf_degeneration_check, random_grf_params,
                                random_rf_params, random_watson_limit_params,
                                rogers_fine_check, watson_exact,
                                watson_limit_check)
from fishburn.identities import (evaluate_terminating, verify,
                                 verify_coefficient_oracle,
                                 verify_proposition,
                                 verify_proposition_specializations,
                                 verify_terminating)
from fishburn.oeis import cross_check, parse_b_file_lines
from fishburn.posets import count_ascent_sequences, interval_order_statistics
from fishburn.qseries import (expand_family, fishburn_numbers,
                              partition_parity_table, row_fishburn_numbers)
from fishburn.rings import ZZ
from fishburn.roots import RootContext, conjecture_explore, root_terminating_check
from fishburn.series import TruncatedSeries

FISHBURN_NUMBERS = [1, 1, 2, 5, 15, 53, 217, 1014, 5335]
# frozen from three independent routes: the alternating inverse-Pochhammer
# sum, the odd-exponent product expansion, and brute-force matrix counts
ROW_FISHBURN_NUMBERS = [1, 1, 3, 12, 61, 380]


def _report(criterion, label, t0):
    print(f"[ACCEPTANCE] C{criterion:02d} {label}: PASS "
          f"({time.time() - t0:.2f}s)")


def test_c01_theorem_six_series_degree_24():
    t0 = time.time()
    order = 24
    series = {fid: expand_family(fid, order)
              for fid in ("F1", "F2", "F3", "G1", "G2", "G3")}
    for group in (("F1", "F2", "F3"), ("G1", "G2", "G3")):
        for a in group:
            for b in group:
                match = series[a].equal_up_to(series[b], order)
                assert match.equal, (a, b, match)
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(1, "F1=F2=F3 and G1=G2=G3 to total degree 24 (exact)", t0)


def test_c02_coefficient_oracle_to_size_7():
    t0 = time.time()
    assert verify_coefficient_oracle("F1", 7).outcome == "verified"
    assert verify_coefficient_oracle("G1", 7).outcome == "verified"
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(2, "F1 and G1 coefficients equal matrix counts for m <= 7", t0)


def test_c03_univariate_sequences_triple_checked():
    t0 = time.time()
    # route 1: series expansion
    assert fishburn_numbers(8) == FISHBURN_NUMBERS
    assert row_fishburn_numbers(5) == ROW_FISHBURN_NUMBERS
    # route 2: brute-force enumeration
    for m in range(9):
        assert refined_counts("fishburn", m).total == FISHBURN_NUMBERS[m]
    for m in range(6):
        assert refined_counts("rowFishburn", m).total == ROW_FISHBURN_NUMBERS[m]
    # route 3 for the row sequence: the odd-exponent product expansion
    n = 5
    one = TruncatedSeries.constant(ZZ, 1, n, 1, ("x",))
    x = TruncatedSeries.variable(ZZ, 1, n, 0, ("x",))
    total = one
    prod = one
    for j in range(1, n + 1):
        prod = prod * (one - (one - x) ** (2 * j - 1))
        total = total + prod
    assert [total.coefficient((m,)) for m in range(6)] == ROW_FISHBURN_NUMBERS
    # b-file ingestion harness against the frozen values
    records = parse_b_file_lines(
        f"{i} {v}" for i, v in enumerate(FISHBURN_NUMBERS))
    result = cross_check("A022493", records)
    assert result["matches"] == result["checked"] == 9
    records = parse_b_file_lines(
        f"{i} {v}" for i, v in enumerate(ROW_FISHBURN_NUMBERS))
    result = cross_check("A158691", records)
    assert result["matches"] == result["checked"] == 6
    _report(3, "f_n (n <= 8) and r_m (m <= 5) triple-checked", t0)


def test_c04_halving_facts_to_reduced_size_8():
    t0 = time.time()
    report = verify_facts(8)
    assert report.ok, report.failures
    assert {m for m, _ in report.checked} == set(range(1, 9))
    _report(4, "zero-diagonal self-dual = s/2 = row-Fishburn for m <= 8", t0)


def test_c05_interval_order_cross_checks():
    t0 = time.time()
    for n in range(1, 9):
        stats = interval_order_statistics(n)
        assert stats["count"] == FISHBURN_NUMBERS[n], n
        matrix_joint = refined_counts("fishburn", n).counts
        by_ell = {}
        for (_, ell), c in matrix_joint.items():
            by_ell[ell] = by_ell.get(ell, 0) + c
        assert stats["maximal"] == by_ell, n
        assert stats["joint"] == matrix_joint, n
        for (a, b), c in stats["joint"].items():
            assert stats["joint"].get((b, a), 0) == c, (n, a, b)
    assert stats["count"] == 5335  # n = 8, the poset size bound
    for n in range(11):
        expected = fishburn_numbers(n)[n]
        assert count_ascent_sequences(n) == expected, n
    _report(5, "posets/ascent sequences match Fishburn statistics", t0)


def test_c06_proposition_with_formal_r_degree_24():
    t0 = time.time()
    assert verify_proposition(24).outcome == "verified"
    spec = verify_proposition_specializations(24)
    assert spec.outcome == "verified"
    _report(6, "formal-r identity to degree 24 plus respecializations", t0)


def test_c07_gamma_identities_ten_random_draws():
    t0 = time.time()
    rng = random.Random(715)
    draws = 0
    while draws < 10:
        gamma = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        r = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        if gamma == 1 or r == 0:
            continue
        (rep1,) = verify("gamma1", order=8, gamma=gamma, r=r)
        (rep2,) = verify("gamma2", order=8, gamma=gamma)
        assert rep1.ok, (gamma, r, rep1.witness)
        assert rep2.ok, (gamma, rep2.witness)
        draws += 1
    _report(7, "gamma-generalized identities to degree 8, 10 draws", t0)


def test_c08_watson_terminating_random_rationals():
    t0 = time.time()
    from fishburn.errors import ParameterError, PoleError
    for N in (1, 2, 3):
        rng = random.Random(880 + N)
        accepted = 0
        while accepted < 20:
            a, b, c, e = (Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                          for _ in range(4))
            q = Fraction(rng.randint(1, 9), rng.randint(2, 10))
            if 0 in (a, b, c, e) or q in (1, -1):
                continue
            try:
                rep = watson_exact(N, a, b, c, e, q)
            except (PoleError, ParameterError):
                continue
            assert rep.outcome == "verified", (N, a, b, c, e, q)
            accepted += 1
    _report(8, "Watson transformation exact for N in {1,2,3}, 20 tuples each", t0)


def test_c09_numeric_identities_thirty_draws():
    t0 = time.time()
    tol = mp.mpf("1e-25")
    rng = random.Random(909)
    for _ in range(30):
        rep = rogers_fine_check(random_rf_params(rng))
        assert rep.outcome == "verified", rep.witness
        assert mp.mpf(rep.detail["abs_diff"]) < tol
    for _ in range(30):
        rep = generalized_rf_check(random_grf_params(rng))
        assert rep.outcome == "verified", rep.witness
        assert mp.mpf(rep.detail["abs_diff"]) < tol
    for _ in range(30):
        rep = watson_limit_check(random_watson_limit_params(rng))
        assert rep.outcome == "verified", rep.witness
        assert mp.mpf(rep.detail["abs_diff"]) < tol
    deg = grf_degeneration_check(NumericEvalParams(
        values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}))
    assert deg.outcome == "verified"
    _report(9, "Rogers-Fine / generalized / Watson-limit < 1e-25, 30 draws each", t0)


def test_c10_terminating_values():
    t0 = time.time()
    p, q = Fraction(4), Fraction(1, 2)
    for expr in ("comp2-first", "comp2-mid", "comp2-right"):
        assert evaluate_terminating(expr, p, q) == Fraction(5, 8)
    assert verify_terminating("comp2", p, q).ok
    p, q = Fraction(2), Fraction(1, 2)
    assert evaluate_terminating("comp1-left", p, q) == Fraction(3, 2)
    assert evaluate_terminating("comp1-mid", p, q) == Fraction(3, 2)
    F4 = get_field(4)
    rep = root_terminating_check("comp2-three-way", F4.zeta(2), F4.zeta(1))
    assert rep.outcome == "verified"
    assert mp.mpf(rep.detail["embedding_diff"]) < mp.mpf("1e-40")
    _report(10, "terminating sums: 5/8 at (4,1/2), 3/2 at (2,1/2), zeta_4 point", t0)


def test_c11_conjecture_explorer():
    t0 = time.time()
    # k = 1 restates the theorem: must agree to order 8
    rep = conjecture_explore(RootContext(1, 0, 0, 8))
    assert rep.conj1.outcome == "agreement"
    # (-1, -1): well-formed report at order 6 with constant terms 3
    ctx = RootContext(2, 1, 1, 6)
    rep = conjecture_explore(ctx)
    assert rep.conj1.outcome in ("agreement", "mismatch")
    assert rep.conj1.outcome == "agreement"
    three = ctx.field.from_rational(3)
    assert rep.constant_terms["left"] == three
    assert rep.constant_terms["right"] == three
    d = rep.to_json_dict()
    assert d["conj1"]["outcome"] == "agreement"
    # certificate-failing pair is refused, exit code 2 through the CLI
    with pytest.raises(CertificateError):
        conjecture_explore(RootContext(4, 1, 2, 4))
    code = cli_main(["roots", "explore", "--k", "4", "--a", "1", "--b", "2",
                     "--order", "4"])
    assert code == 2
    _report(11, "explorer: k=1 order 8, (-1,-1) order 6 with constants 3, refusal", t0)


def test_c12_asymptotic_trends_to_n_100():
    t0 = time.time()
    for which in ("fishburn", "rowFishburn"):
        rows = trend(which, 100)
        dev = {row.n: row.deviation for row in rows}
        assert dev[60] < dev[30], which
        lo, hi = deviation_band(rows, 20, 100)
        assert hi < 3 * lo, (which, lo, hi)
    elapsed = time.time() - t0
    assert elapsed < 120
    _report(12, "main-term deviations shrink; n*deviation in a factor-3 band", t0)


def test_c13_pentagonal_and_partition_table():
    t0 = time.time()
    order = 30
    one = TruncatedSeries.constant(ZZ, 1, order, 1, ("w",))
    s = expand_family("pentagonal-sum", order)
    prod = expand_family("pentagonal-product", order)
    theta = expand_family("pentagonal-theta", order)
    assert s.equal_up_to(one - prod, order).equal
    assert s.equal_up_to(one - theta, order).equal
    from count_helpers import distinct_partition_parity
    table = partition_parity_table(8, 30)
    for r in range(1, 9):
        for w in range(1, 31):
            assert table.a(r, w) == distinct_partition_parity(r, w), (r, w)
    _report(13, "pentagonal three-way to degree 30; parity table r<=8, s<=30", t0)
