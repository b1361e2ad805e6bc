"""Numeric Rogers-Fine circle checks and the exact Watson transformation."""

import inspect
import random
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest

from fishburn import hypergeom
from fishburn.cyclotomic import decimal_context
from fishburn.errors import ConvergenceError, ParameterError, PoleError
from fishburn.hypergeom import (DPS_CAP, DRAW_SEED, DRAWS_CAP, MAX_TERMS_CAP,
                                NUMERIC_IDENTITIES, NumericEvalParams, Side,
                                draw_params, generalized_rf_check,
                                grf_degeneration_check, random_grf_params,
                                random_rf_params, random_watson_limit_params,
                                rogers_fine_check, watson_exact,
                                watson_limit_check)
from fishburn.identities import verify
from fishburn.qseries import PochhammerSum
from numeric_helpers import reference_sum_with_guard


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


def test_draws_are_refused_outside_their_cap_before_any_draw(monkeypatch):
    """`draw_params` refuses a count outside 1..DRAWS_CAP before it calls
    the sampler, and otherwise draws from the alias's sampler with
    DRAW_SEED unless it is given a seed."""
    calls = []
    ident, sampler, checker, names = NUMERIC_IDENTITIES["rf"]
    monkeypatch.setitem(NUMERIC_IDENTITIES, "rf",
                        (ident, lambda rng: calls.append(1) or sampler(rng), checker, names))
    for draws in (0, -3, DRAWS_CAP + 1):
        with pytest.raises(ParameterError, match=f"--draws {draws} is not within 1..{DRAWS_CAP}"):
            draw_params("rf", draws)
    assert not calls
    rng = random.Random(DRAW_SEED)
    seeded = [random_rf_params(rng) for _ in range(3)]
    assert draw_params("rf", 3) == draw_params("grf-degeneration", 3) == seeded
    assert len(calls) == 3
    assert draw_params("rf", 3, seed=7) != seeded


def test_grf_degenerates_to_rf():
    rep = grf_degeneration_check(NumericEvalParams(
        values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}))
    assert rep.outcome == "verified" and "side" not in rep.detail


def test_grf_degeneration_mismatch_witness(monkeypatch):
    # a Rogers-Fine side that is off by 1e-20 must be reported against the
    # generalized left-hand side
    summer = hypergeom._sum_with_guard

    def shifted(side, *budget):
        value, n = summer(side, *budget)
        if side.label == "(bq;q)_n":  # the Rogers-Fine left side
            value += hypergeom._DecimalComplex(Decimal("1e-20"))
        return value, n
    monkeypatch.setattr(hypergeom, "_sum_with_guard", shifted)
    rep = grf_degeneration_check(NumericEvalParams(
        values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}))
    assert rep.outcome == "mismatch"
    assert rep.detail["gamma"] == "1e-30"
    assert mp.mpf(rep.detail["abs_diff"]) == pytest.approx(1e-20, rel=1e-6, abs=0)
    assert set(rep.witness) == {"index", "left", "right"}
    assert set(rep.witness["index"]) == {"a", "b", "t", "q"}
    assert rep.witness["left"] != rep.witness["right"]


def _witness_gap(rep):
    """|left - right| of a numeric witness, each printed as (re +- imj)."""
    def parts(text):
        re, sign, im = text[1:-2].split(" ")
        return Decimal(re), Decimal(sign + im)
    (lre, lim), (rre, rim) = parts(rep.witness["left"]), parts(rep.witness["right"])
    return ((lre - rre) ** 2 + (lim - rim) ** 2).sqrt()


def test_grf_degeneration_mismatch_witness_names_the_side_that_differs(monkeypatch):
    # the generalized right side off by 1e-20: the witness must set it
    # against the Rogers-Fine side, not show the two sides that agree
    summer = hypergeom._sum_with_guard
    label = "(beta;q)_n (gamma;q)_n (t;q)_{n+1}"

    def shifted(side, *budget):
        value, n = summer(side, *budget)
        if side.label == label:
            value += hypergeom._DecimalComplex(Decimal("1e-20"))
        return value, n
    monkeypatch.setattr(hypergeom, "_sum_with_guard", shifted)
    rep = grf_degeneration_check(NumericEvalParams(
        values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}))
    assert rep.outcome == "mismatch"
    assert mp.mpf(rep.detail["abs_diff"]) == pytest.approx(1e-20, rel=1e-6, abs=0)
    assert float(_witness_gap(rep)) == pytest.approx(1e-20, rel=1e-6, abs=0)
    assert rep.detail["side"] == label


@pytest.mark.parametrize("dps", (33, 43))
def test_grf_degeneration_refuses_a_precision_whose_guard_hides_gamma(dps):
    # gamma = 1e-30 at tol 1e-25; the pole guard 10^-floor(2 dps / 3) is
    # 1e-22 at 33 digits and 1e-29 at 43, so the check names the 44 it needs
    with pytest.raises(ParameterError, match="gamma = 1e-30.*at least 44 digits"):
        grf_degeneration_check(NumericEvalParams(
            values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}, dps=dps))


@pytest.mark.parametrize("dps", (44, 60))
def test_grf_degeneration_verifies_once_gamma_clears_the_guard(dps):
    rng = random.Random(dps)
    for values in [{"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}] + \
            [random_rf_params(rng).values for _ in range(4)]:
        rep = grf_degeneration_check(NumericEvalParams(values=values, dps=dps))
        assert rep.outcome == "verified", rep.witness
        assert rep.detail["gamma"] == "1e-30"


def test_grf_degeneration_gamma_follows_the_tolerance():
    # at tol 1e-10 gamma is 1e-15, well outside the 33-digit guard
    rep = grf_degeneration_check(NumericEvalParams(
        values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}, dps=33, tol="1e-10"))
    assert rep.outcome == "verified"
    assert rep.detail["gamma"] == "1e-15"


def test_precision_must_resolve_the_tolerance():
    values = {"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}
    NumericEvalParams(values=values, dps=60, tol="1e-25")
    NumericEvalParams(values=values, dps=33, tol="1e-25")
    for dps, tol in ((32, "1e-25"), (25, "1e-25"), (10, "1e-25"), (60, "1e-60")):
        with pytest.raises(ParameterError, match="too few"):
            NumericEvalParams(values=values, dps=dps, tol=tol)


def test_precision_is_capped():
    values = {"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}
    NumericEvalParams(values=values, dps=DPS_CAP)
    with pytest.raises(ParameterError, match=f"capped at {DPS_CAP}, got {DPS_CAP + 1}$"):
        NumericEvalParams(values=values, dps=DPS_CAP + 1)


def test_term_budget_is_capped():
    values = {"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}
    NumericEvalParams(values=values, max_terms=MAX_TERMS_CAP)
    for max_terms in (0, MAX_TERMS_CAP + 1):
        with pytest.raises(ParameterError, match=f"within 1..{MAX_TERMS_CAP}, got {max_terms}$"):
            NumericEvalParams(values=values, max_terms=max_terms)


def test_parameters_must_be_those_of_the_identity():
    with pytest.raises(ParameterError, match="missing"):
        rogers_fine_check(NumericEvalParams(values={"a": 0.3, "b": 0.2, "t": 0.4}))
    with pytest.raises(ParameterError, match="zz"):
        rogers_fine_check(NumericEvalParams(
            values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5, "zz": 3}))


def test_registry_numeric_entries_are_the_table():
    numeric = {r.id for r in verify("all") if r.mode == "numeric"}
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


@pytest.mark.parametrize("value", ("inf", "nan"))
def test_non_finite_parameter_is_refused(value):
    with pytest.raises(ParameterError, match="finite"):
        rogers_fine_check(NumericEvalParams(
            values={"a": complex(value), "b": 0.2, "t": 0.4, "q": 0.5}))


SIDES = {"rf": ("rogers_fine_lhs", "rogers_fine_rhs"),
         "grf": ("generalized_rf_lhs", "generalized_rf_rhs"),
         "watson-limit": ("watson_limit_lhs", "watson_limit_rhs")}


@pytest.mark.parametrize("alias", SIDES)
def test_sides_take_only_the_identity_parameters(alias):
    # the summation budget belongs to _compare_sides, not to a side
    names = list(NUMERIC_IDENTITIES[alias][3])
    for side in SIDES[alias]:
        assert list(inspect.signature(getattr(hypergeom, side)).parameters) == names


def test_each_inverse_factor_is_stepped_once_per_term(monkeypatch):
    # summing sum_n (aq; q)_n t^n / (bq; q)_n forms 1 - a q^{n+1} and
    # 1 - b q^{n+1} once for each term after the first: the pole guard reads
    # the same divisors that the terms are divided by
    dc = hypergeom._DecimalComplex
    ones = []
    rsub = dc.__rsub__

    def counted(self, one):
        ones.append(self)
        return rsub(self, one)
    with decimal_context(60):
        side = hypergeom.rogers_fine_lhs(*map(dc.read, (0.3, 0.2, 0.4, 0.5)))
        monkeypatch.setattr(dc, "__rsub__", counted)
        _, used = hypergeom._sum_with_guard(side, Decimal("1e-28"), 400)
    assert used == 75
    assert len(ones) == (used - 1) * (len(side.spec.factors) + len(side.spec.inverses))


# -- decimal sums against the mpmath reference --------------------------------

DIFFERENTIAL_DRAWS = 10


def _recording(summer, sums):
    def record(*args, **kwargs):
        total, used = summer(*args, **kwargs)
        sums.append((total, used))
        return total, used
    return record


def _run_with(monkeypatch, summer, checker, params):
    sums = []
    monkeypatch.setattr(hypergeom, "_sum_with_guard", _recording(summer, sums))
    return checker(params), sums


@pytest.mark.parametrize("summer", (hypergeom._sum_with_guard, reference_sum_with_guard))
def test_decay_guard_bounds_the_magnitude_ratio(summer):
    # squared magnitudes must decay by DECAY_RATIO^2: a geometric sum of
    # ratio 0.88 converges, one of ratio 0.92i never counts as decaying
    with decimal_context(60):
        budget = (Decimal("1e-6"), 400)
        ratio = hypergeom._DecimalComplex(Decimal("0.88"))
        total, used = summer(Side(PochhammerSum(hypergeom._ONE, (ratio,)), "none"), *budget)
        assert (total - hypergeom._DecimalComplex(1 / Decimal("0.12"))).norm() < Decimal("1e-8")
        assert used == 97
        with pytest.raises(ConvergenceError, match="within 400 terms"):
            ratio = hypergeom._DecimalComplex(Decimal(0), Decimal("0.92"))
            summer(Side(PochhammerSum(hypergeom._ONE, (ratio,)), "none"), *budget)


def test_pole_guard_bounds_the_modulus_not_its_square():
    # the 60-digit guard is 1e-40, compared with squared moduli: a first
    # denominator of modulus 1e-30 is summed, one of modulus 1e-41 is a pole
    dc = hypergeom._DecimalComplex
    with decimal_context(60):
        budget = (Decimal("1e-6"), 400)
        spec = PochhammerSum(hypergeom._ONE, (dc(Decimal("0.5")),))
        total, _ = hypergeom._sum_with_guard(Side(spec, "d", dc(Decimal("1e-30"))), *budget)
        assert (total - dc(Decimal("2e30"))).norm() < Decimal("1e48")
        with pytest.raises(PoleError, match=r"^denominator d is within 1\.0e-40 of zero$"):
            hypergeom._sum_with_guard(Side(spec, "d", dc(Decimal(0), Decimal("1e-41"))),
                                      *budget)


@pytest.mark.parametrize("dps, tol", ((40, "1e-20"), (60, "1e-25"), (100, "1e-40")))
@pytest.mark.parametrize("alias", NUMERIC_IDENTITIES)
def test_decimal_sums_match_the_mpmath_reference(monkeypatch, alias, dps, tol):
    # the same outcome, term counts and |diff| string as the mpmath term
    # loop, and every side's sum within 10^(10 - dps) of it
    _ident, sampler, checker, _names = NUMERIC_IDENTITIES[alias]
    decimal_sum = hypergeom._sum_with_guard
    rng = random.Random(f"{alias} {dps}")
    for _ in range(DIFFERENTIAL_DRAWS):
        params = NumericEvalParams(values=sampler(rng).values, dps=dps, tol=tol)
        fast, fast_sums = _run_with(monkeypatch, decimal_sum, checker, params)
        ref, ref_sums = _run_with(monkeypatch, reference_sum_with_guard, checker, params)
        assert fast.outcome == ref.outcome
        assert fast.detail.get("terms") == ref.detail.get("terms")
        assert fast.detail.get("abs_diff") == ref.detail.get("abs_diff")
        assert [n for _, n in fast_sums] == [n for _, n in ref_sums]
        with decimal_context(dps):
            for (value, _), (want, _) in zip(fast_sums, ref_sums):
                bound2 = Decimal(f"1e{2 * (10 - dps)}") * max(1, want.norm())
                assert (value - want).norm() <= bound2


# -- exact Watson -------------------------------------------------------------


def test_watson_exact_reference():
    rep = watson_exact(1, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                       Fraction(1, 11), Fraction(1, 2))
    assert rep.outcome == "verified"
    assert rep.detail["lhs"] == rep.detail["rhs"]


def test_watson_exact_past_the_int_string_digit_limit():
    big = 10**5000
    rep = watson_exact(1, Fraction(big + 1, 3), Fraction(1, 5), Fraction(1, 7),
                       Fraction(1, 11), Fraction(1, 2))
    assert rep.outcome == "verified"
    assert rep.detail["params"]["a"] == "1" + "0" * 4999 + "1/3"
    assert rep.detail["lhs"] == rep.detail["rhs"] and len(rep.detail["lhs"]) > 10_000


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


def test_exact_pole_refusal_matches_a_plain_scan():
    # the reference: scan j < N, labels in order, multiplying out x q^j
    def scan(named, q, N):
        for j in range(N):
            for label, x in named.items():
                if x * q**j == 1:
                    return f"({label}; q)_{j + 1} vanishes at factor j={j}"
        return None

    rng = random.Random(16)
    for _ in range(300):
        q = Fraction(rng.choice([-3, -2, 2, 3, 5]), rng.choice([1, 2, 3, 4]))
        # half of the bases are q^-j for a small j, so poles and ties occur
        named = {label: q**-rng.randint(0, 5) if rng.random() < 0.5
                 else Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
                 for label in ("q", "aq/b", "aq/c", "def/a")}
        N = rng.randint(1, 5)
        want = scan(named, q, N)
        if want is None:
            hypergeom._refuse_exact_poles(named, q, N)
        else:
            with pytest.raises(PoleError) as err:
                hypergeom._refuse_exact_poles(named, q, N)
            assert str(err.value) == want


def test_watson_exact_n_cap():
    from fishburn.errors import BoundExceededError
    params = ("1/3", "1/5", "1/7", "1/11", "1/2")
    assert watson_exact(hypergeom.WATSON_N_CAP, *params).outcome == "verified"
    with pytest.raises(BoundExceededError, match="capped at"):
        watson_exact(hypergeom.WATSON_N_CAP + 1, *params)
