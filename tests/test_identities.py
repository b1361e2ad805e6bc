"""The verification registry: formal, terminating, and specialization checks."""

import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from fishburn import identities
from fishburn.errors import (CertificateError, ParameterError,
                             UnknownFamilyError)
from fishburn.cyclotomic import get_field
from fishburn.identities import (THM_MAIN_IDS, evaluate_terminating,
                                 registry, verify, verify_coefficient_oracle,
                                 verify_proposition,
                                 verify_proposition_specializations,
                                 verify_terminating)
from fishburn.qseries import (TERMINATING_SCAN_CAP, _vanishing_index,
                              expand_family)


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
        verify_proposition(33)
    with pytest.raises(ParameterError, match="capped"):
        verify_proposition_specializations(33)


def test_formal_order_cap():
    with pytest.raises(ParameterError, match="capped"):
        verify("F1=F2", order=33)


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
    # p*q^j = 1 only at the odd j = 601, far beyond any scan, so the factor
    # (p; q^2) of comp2-right never vanishes
    with pytest.raises(CertificateError, match="no such j exists"):
        evaluate_terminating("comp2-right", Fraction(2**601), Fraction(1, 2))
    # the family check asks every certificate before it sums the 602 terms
    # of comp2-first and comp2-mid
    with pytest.raises(CertificateError, match="comp2-right .*no such j exists"):
        verify_terminating("comp2", Fraction(2**601), Fraction(1, 2))


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
    TERMINATING_SCAN_CAP; the prime powers of a and r fix it without a scan.
    In base r = q^2 it is j = 300."""
    p, q = Fraction(2**600), Fraction(1, 2)
    assert 600 > TERMINATING_SCAN_CAP
    assert _vanishing_index(p, q) == 600
    assert _vanishing_index(p, q * q) == 300
    assert _vanishing_index(2 * p, q * q) is None
    assert _vanishing_index(-p, q) is None
    assert _vanishing_index(Fraction(1, 3**500), Fraction(3)) == 500
    F = get_field(1)
    assert _vanishing_index(F.from_rational(p), F.from_rational(q)) == 600


def test_terminating_exponent_of_a_large_power_is_quick():
    # j is estimated from logarithms and confirmed by one power, not found by
    # j divisions, so neither a certificate nor a refusal grows with j
    start = time.perf_counter()
    assert _vanishing_index(Fraction(1, 2**200000), Fraction(2)) == 200000
    assert _vanishing_index(Fraction(3**20000), Fraction(1, 3)) == 20000
    assert _vanishing_index(Fraction(1, 10**30000), Fraction(2)) is None
    assert time.perf_counter() - start < 1


# j is the least index with p*r^j = 1, where r = q^2 when `squared`
@pytest.mark.parametrize("p,q,squared,j", [
    (1, 1, False, 0), (2, 1, False, None), (1, -1, True, 0), (-1, -1, False, 1),
    (-1, -1, True, None), (-8, Fraction(-1, 2), False, 3),
    (Fraction(4, 9), Fraction(3, 2), True, 1), (Fraction(4, 9), Fraction(2, 3), False, None),
    (0, 2, False, None), (2, 0, False, None), (1, 0, False, 0),
])
def test_terminating_exponent_at_rational_points(p, q, squared, j):
    r = Fraction(q) ** 2 if squared else Fraction(q)
    assert _vanishing_index(Fraction(p), r) == j


def test_terminating_exponent_scan_that_cannot_decide_says_so():
    """1 + zeta_5 is neither rational nor a root of unity: the search for j is
    a bounded scan, which finds j = 3 but cannot rule out every j."""
    F = get_field(5)
    q = F.one + F.zeta(1)
    assert _vanishing_index(q ** -3, q) == 3
    with pytest.raises(CertificateError, match="not exhaustive"):
        _vanishing_index(F.zeta(1), q)


def test_undecided_factor_does_not_hide_one_that_vanishes():
    """comp1-mid at p = q^-3, q = 1 + zeta_5: the scan cannot decide whether
    its factor (q; q) ever vanishes, but (p; q) vanishes at j = 3, so the
    sum has four terms.  comp1-left has only the factor that vanishes."""
    F = get_field(5)
    q = F.one + F.zeta(1)
    p = q ** -3
    assert evaluate_terminating("comp1-mid", p, q) == evaluate_terminating("comp1-left", p, q)


def test_comp2_requires_even_exponent():
    # p*q = 1 has only the odd solution k=1, so comp2-right's factor
    # (p; q^2) never vanishes, and the comp2 family check refuses with it
    with pytest.raises(CertificateError):
        evaluate_terminating("comp2-right", Fraction(2), Fraction(1, 2))
    with pytest.raises(CertificateError, match="comp2-right"):
        verify_terminating("comp2", Fraction(2), Fraction(1, 2))


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


@pytest.fixture(scope="module")
def all_reports():
    return verify("all")


def test_registry_covers_every_mode(all_reports):
    modes = {r.mode for r in all_reports}
    assert modes == {"formal", "terminating-exact", "numeric"}


def test_verify_all_aggregate(all_reports):
    # one report per registry entry, in registry order, each under its id
    assert [r.id for r in all_reports] == list(registry())
    assert all(r.ok for r in all_reports)


def test_thm_main_expands_each_family_once_per_call(monkeypatch):
    """The six thm-main pairs share their six expansions within one verify
    call, and a second call expands them afresh."""
    calls = []
    real = identities.expand_family
    monkeypatch.setattr(identities, "expand_family",
                        lambda family, order, **kw: calls.append((family, order))
                        or real(family, order, **kw))
    reports = verify("thm-main", order=6)
    assert all(r.outcome == "verified" for r in reports)
    assert sorted(calls) == [(f, 6) for f in ("F1", "F2", "F3", "G1", "G2", "G3")]
    verify("thm-main", order=6)
    assert len(calls) == 12
    verify("F1=F2", order=6)
    assert len(calls) == 14


def test_verify_all_requests_each_expansion_once(monkeypatch):
    """Within one `verify --id all`, every formal check reads its families
    through the shared expansions, the formal-r proposition's sides too."""
    requests = []
    real = identities.expand_family

    def counted(family, order, **params):
        requests.append((family, order, tuple(sorted(params.items()))))
        return real(family, order, **params)
    monkeypatch.setattr(identities, "expand_family", counted)
    assert all(r.ok for r in verify("all"))
    assert len(requests) == len(set(requests))
    assert [f for f, _, _ in requests if f.startswith("prop12")] == ["prop12-lhs",
                                                                      "prop12-rhs"]


def test_verify_unknown_id():
    with pytest.raises(UnknownFamilyError):
        verify("no-such-identity")


def test_report_json_shape():
    (report,) = verify("F1=F2", order=6)
    d = report.to_json_dict()
    assert set(d) >= {"id", "mode", "order", "outcome", "timing_ms"}
    assert d["outcome"] == "verified"


def test_terminating_term_cap():
    # at p = 2^k, q = 1/2 the comp1 sums have k + 1 terms: the cap passes,
    # one term more is refused after every certificate is asked and before
    # any summing
    from fishburn.errors import BoundExceededError
    from fishburn.qseries import TERMINATING_TERM_CAP
    q, p = Fraction(1, 2), Fraction(2**(TERMINATING_TERM_CAP - 1))
    assert identities._certified("comp1-left", p, q)[1] == TERMINATING_TERM_CAP
    assert verify_terminating("comp1", p, q).ok
    start = time.perf_counter()
    for p in (2**TERMINATING_TERM_CAP, 2**2000):
        with pytest.raises(BoundExceededError, match="capped at"):
            evaluate_terminating("comp1-left", Fraction(p), q)
        with pytest.raises(BoundExceededError, match="capped at"):
            verify_terminating("comp1", Fraction(p), q)
    assert time.perf_counter() - start < 1
