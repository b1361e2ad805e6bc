"""The verification registry: formal, terminating, and specialization checks."""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from fishburn.errors import (CertificateError, ParameterError,
                             UnknownFamilyError)
from fishburn.cyclotomic import get_field
from fishburn.identities import (TERMINATING_SCAN_CAP, THM_MAIN_IDS,
                                 _terminating_exponent, evaluate_terminating,
                                 registry, verify, verify_coefficient_oracle,
                                 verify_proposition,
                                 verify_proposition_specializations,
                                 verify_terminating)
from fishburn.qseries import expand_family


@pytest.mark.parametrize("ident", THM_MAIN_IDS)
def test_theorem_pairs_at_order_8(ident):
    (report,) = verify(ident, order=8)
    assert report.outcome == "verified"
    assert report.mode == "formal"


def test_kr_chain():
    (report,) = verify("KR-first=F3", order=8)
    assert report.ok


def test_proposition_formal_r():
    report = verify_proposition(8)
    assert report.outcome == "verified"


def test_proposition_specializations():
    report = verify_proposition_specializations(8)
    assert report.outcome == "verified"
    assert report.detail["specialized_order"] == 4


def test_proposition_order_cap():
    with pytest.raises(ParameterError, match="capped"):
        verify_proposition(11)


def test_formal_order_cap():
    with pytest.raises(ParameterError, match="capped"):
        verify("F1=F2", order=15)


def test_gamma_identities_for_random_rationals():
    rng = random.Random(20260809)
    for _ in range(10):
        gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        while gamma == 1:
            gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        r = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        while r == 0:
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        (rep1,) = verify("gamma1", order=6, gamma=gamma, r=r)
        assert rep1.ok, (gamma, r, rep1.witness)
        (rep2,) = verify("gamma2", order=6, gamma=gamma)
        assert rep2.ok, (gamma, rep2.witness)


def test_pentagonal_registry_entry():
    (report,) = verify("pentagonal-3way", order=30)
    assert report.ok


def test_coefficient_oracles():
    assert verify_coefficient_oracle("F1", 5).ok
    assert verify_coefficient_oracle("G1", 5).ok
    with pytest.raises(UnknownFamilyError):
        verify_coefficient_oracle("F2", 3)


def test_coefficient_oracle_m0():
    report = verify_coefficient_oracle("F1", 0)
    assert report.ok and report.detail["coefficients_checked"] == 1


def test_mismatch_carries_witness():
    left = expand_family("F1", 4)
    right = expand_family("G1", 4)
    match = left.equal_up_to(right, 4)
    assert not match.equal
    assert match.index is not None


# -- terminating sums --------------------------------------------------------


def test_comp2_three_way_at_4_half():
    p, q = Fraction(4), Fraction(1, 2)
    vals = [evaluate_terminating(e, p, q)
            for e in ("comp2-first", "comp2-mid", "comp2-right")]
    assert vals == [Fraction(5, 8)] * 3


def test_comp1_at_2_half():
    p, q = Fraction(2), Fraction(1, 2)
    assert evaluate_terminating("comp1-left", p, q) == Fraction(3, 2)
    assert evaluate_terminating("comp1-mid", p, q) == Fraction(3, 2)


def test_comp1_left_at_p_equal_one():
    assert evaluate_terminating("comp1-left", Fraction(1), Fraction(5, 7)) == 1


def test_terminating_refuses_without_certificate():
    with pytest.raises(CertificateError):
        evaluate_terminating("comp1-left", Fraction(3), Fraction(1, 2))


def test_rational_refusal_says_that_no_j_exists():
    with pytest.raises(CertificateError, match="no such j exists"):
        evaluate_terminating("comp1-left", Fraction(3), Fraction(1, 2))
    # p*q^j = 1 only at the odd j = 601, far beyond any scan
    with pytest.raises(CertificateError, match="no such j exists"):
        evaluate_terminating("comp2-first", Fraction(2**601), Fraction(1, 2))


def test_exact_values_past_the_int_string_digit_limit():
    """At (2^180, 1/2) the exact value has more digits than str() of an int
    allows by default; the report still carries it exactly, and the check
    leaves the interpreter's limit alone."""
    limit = sys.get_int_max_str_digits()
    p, q = Fraction(2**180), Fraction(1, 2)
    rep = verify_terminating("comp1", p, q)
    assert rep.ok
    values = set(rep.detail["values"].values())
    assert len(values) == 1
    num, den = values.pop().split("/")
    assert len(num) > 4300
    assert (Fraction(int(Decimal(num)), int(Decimal(den)))
            == evaluate_terminating("comp1-left", p, q))
    assert sys.get_int_max_str_digits() == limit


def test_terminating_exponent_is_exact_beyond_the_scan_cap():
    """At (2^600, 1/2) the certificate j = 600 lies beyond
    TERMINATING_SCAN_CAP; the prime powers of p and q fix it without a scan."""
    p, q = Fraction(2**600), Fraction(1, 2)
    assert 600 > TERMINATING_SCAN_CAP
    assert _terminating_exponent(p, q, even_only=False) == 600
    assert _terminating_exponent(p, q, even_only=True) == 600
    assert _terminating_exponent(2 * p, q, even_only=True) is None
    assert _terminating_exponent(-p, q, even_only=False) is None
    assert _terminating_exponent(Fraction(1, 3**500), Fraction(3), even_only=False) == 500
    F = get_field(1)
    assert _terminating_exponent(F.from_rational(p), F.from_rational(q),
                                 even_only=False) == 600


@pytest.mark.parametrize("p,q,even_only,j", [
    (1, 1, False, 0), (2, 1, False, None), (1, -1, True, 0), (-1, -1, False, 1),
    (-1, -1, True, None), (-8, Fraction(-1, 2), False, 3),
    (Fraction(4, 9), Fraction(3, 2), True, 2), (Fraction(4, 9), Fraction(2, 3), False, None),
])
def test_terminating_exponent_at_rational_points(p, q, even_only, j):
    assert _terminating_exponent(Fraction(p), Fraction(q), even_only) == j


def test_terminating_exponent_scan_that_cannot_decide_says_so():
    """1 + zeta_5 is neither rational nor a root of unity: the search for j is
    a bounded scan, which finds j = 3 but cannot rule out every j."""
    F = get_field(5)
    q = F.one + F.zeta(1)
    assert _terminating_exponent(q ** -3, q, even_only=False) == 3
    with pytest.raises(CertificateError, match="not exhaustive"):
        _terminating_exponent(F.zeta(1), q, even_only=False)


def test_comp2_requires_even_exponent():
    # p*q = 1 has only the odd solution k=1, so the comp2 family refuses
    with pytest.raises(CertificateError):
        evaluate_terminating("comp2-first", Fraction(2), Fraction(1, 2))


def test_comp1_right_is_not_evaluatable():
    with pytest.raises(UnknownFamilyError, match="right"):
        evaluate_terminating("comp1-right", Fraction(2), Fraction(1, 2))


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_comp2_three_way_grid(q, k):
    p = q ** (-2 * k)
    report = verify_terminating("comp2", p, q)
    assert report.ok, report.witness


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_comp1_left_mid_grid(q, k):
    p = q ** (-k)
    report = verify_terminating("comp1", p, q)
    assert report.ok, report.witness


# -- registry plumbing -------------------------------------------------------


def test_registry_covers_every_mode():
    modes = {d.mode for d in registry().values()}
    assert modes == {"formal", "terminating-exact", "numeric"}


def test_verify_all_aggregate():
    reports = verify("all")
    assert len(reports) == len(registry())
    assert all(r.ok for r in reports)


def test_verify_unknown_id():
    with pytest.raises(UnknownFamilyError):
        verify("no-such-identity")


def test_report_json_shape():
    (report,) = verify("F1=F2", order=6)
    d = report.to_json_dict()
    assert set(d) >= {"id", "mode", "order", "outcome", "timing_ms"}
    assert d["outcome"] == "verified"
