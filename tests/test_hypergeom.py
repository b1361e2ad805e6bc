"""Numeric Rogers-Fine circle checks and the exact Watson transformation."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from fishburn import hypergeom
from fishburn.errors import ParameterError, PoleError
from fishburn.hypergeom import (NUMERIC_IDENTITIES, NumericEvalParams,
                                generalized_rf_check,
                                grf_degeneration_check, random_grf_params,
                                random_rf_params, random_watson_limit_params,
                                rogers_fine_check, watson_exact,
                                watson_limit_check)
from fishburn.identities import registry


def test_rogers_fine_reference_point():
    rep = rogers_fine_check(NumericEvalParams(
        values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}))
    assert rep.outcome == "verified"
    assert mp.mpf(rep.detail["abs_diff"]) < mp.mpf("1e-25")


def test_rogers_fine_random_draws():
    rng = random.Random(11)
    for _ in range(8):
        rep = rogers_fine_check(random_rf_params(rng))
        assert rep.outcome == "verified", rep.witness


def test_generalized_rf_random_draws():
    rng = random.Random(12)
    for _ in range(8):
        rep = generalized_rf_check(random_grf_params(rng))
        assert rep.outcome == "verified", rep.witness


def test_watson_limit_random_draws():
    rng = random.Random(13)
    for _ in range(8):
        rep = watson_limit_check(random_watson_limit_params(rng))
        assert rep.outcome == "verified", rep.witness


def test_grf_degenerates_to_rf():
    rep = grf_degeneration_check(NumericEvalParams(
        values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}))
    assert rep.outcome == "verified"


def test_grf_degeneration_mismatch_witness(monkeypatch):
    # a Rogers-Fine side that is off by 1e-20 must be reported against the
    # generalized left-hand side
    lhs = hypergeom.rogers_fine_lhs

    def shifted(*args):
        value, n = lhs(*args)
        return value + mp.mpf("1e-20"), n
    monkeypatch.setattr(hypergeom, "rogers_fine_lhs", shifted)
    rep = grf_degeneration_check(NumericEvalParams(
        values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}))
    assert rep.outcome == "mismatch"
    assert rep.detail["gamma"] == "1e-30"
    assert mp.mpf(rep.detail["abs_diff"]) == pytest.approx(1e-20, rel=1e-6)
    assert set(rep.witness) == {"index", "left", "right"}
    assert set(rep.witness["index"]) == {"a", "b", "t", "q"}
    assert rep.witness["left"] != rep.witness["right"]


def test_precision_must_resolve_the_tolerance():
    values = {"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}
    NumericEvalParams(values=values, dps=60, tol="1e-25")
    NumericEvalParams(values=values, dps=33, tol="1e-25")
    for dps, tol in ((32, "1e-25"), (25, "1e-25"), (10, "1e-25"), (60, "1e-60")):
        with pytest.raises(ParameterError, match="too few"):
            NumericEvalParams(values=values, dps=dps, tol=tol)


def test_parameters_must_be_those_of_the_identity():
    with pytest.raises(ParameterError, match="missing"):
        rogers_fine_check(NumericEvalParams(values={"a": 0.3, "b": 0.2, "t": 0.4}))
    with pytest.raises(ParameterError, match="zz"):
        rogers_fine_check(NumericEvalParams(
            values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5, "zz": 3}))


def test_registry_numeric_entries_are_the_table():
    numeric = {d.id for d in registry().values() if d.mode == "numeric"}
    assert numeric == {ident for ident, *_ in NUMERIC_IDENTITIES.values()}


def test_unit_disk_hypotheses_enforced():
    with pytest.raises(ParameterError, match=r"\|q\|"):
        rogers_fine_check(NumericEvalParams(
            values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 1.5}))
    with pytest.raises(ParameterError, match=r"\|t\|"):
        rogers_fine_check(NumericEvalParams(
            values={"a": 0.3, "b": 0.2, "t": 1.0, "q": 0.5}))


def test_tiny_budget_is_inconclusive_not_mismatch():
    rep = rogers_fine_check(NumericEvalParams(
        values={"a": 0.3, "b": 0.2, "t": 0.59, "q": 0.55}, max_terms=4))
    assert rep.outcome == "inconclusive"
    assert "reason" in rep.detail


def test_pole_guard():
    # b = 0 puts a denominator at zero on the right-hand side
    with pytest.raises(PoleError):
        rogers_fine_check(NumericEvalParams(
            values={"a": 0.3, "b": 0.0, "t": 0.4, "q": 0.5}))


# -- exact Watson -------------------------------------------------------------


def test_watson_exact_reference():
    rep = watson_exact(1, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                       Fraction(1, 11), Fraction(1, 2))
    assert rep.outcome == "verified"
    assert rep.detail["lhs"] == rep.detail["rhs"]


@pytest.mark.parametrize("N", [1, 2, 3])
def test_watson_exact_random_rationals(N):
    rng = random.Random(300 + N)
    accepted = 0
    while accepted < 20:
        params = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(4)]
        q = Fraction(rng.randint(1, 8), rng.randint(2, 9))
        if q in (1, -1) or 0 in params:
            continue
        a, b, c, e = params
        try:
            rep = watson_exact(N, a, b, c, e, q)
        except (PoleError, ParameterError):
            continue
        assert rep.outcome == "verified", (N, params, q)
        accepted += 1


def test_watson_exact_general_d():
    rep = watson_exact(2, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                       Fraction(1, 11), Fraction(1, 2), d=Fraction(2, 7))
    assert rep.outcome == "verified"


def test_watson_exact_pole_is_reported():
    # b = aq makes (aq/b; q)_n = (1; q)_n vanish in a denominator
    a, q = Fraction(1, 3), Fraction(1, 2)
    with pytest.raises(PoleError, match="aq/b"):
        watson_exact(1, a, a * q, Fraction(1, 7), Fraction(1, 11), q)


def test_watson_exact_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        watson_exact(0, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                     Fraction(1, 11), Fraction(1, 2))
    with pytest.raises(ParameterError):
        watson_exact(1, Fraction(0), Fraction(1, 5), Fraction(1, 7),
                     Fraction(1, 11), Fraction(1, 2))
