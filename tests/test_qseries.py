"""q-Pochhammer builders, series families, and the partition side table."""

import random
from fractions import Fraction
from itertools import islice, product
from math import inf

import pytest

from count_helpers import distinct_partition_parity
from fishburn import qseries
from fishburn.cyclotomic import get_field
from fishburn.enumeration import refined_counts
from fishburn.errors import ParameterError, UnknownFamilyError
from fishburn.names import FAMILY_IDS
from fishburn.identities import THM_MAIN_IDS
from fishburn.qseries import (BIVARIATE_NAMES, COMPACT_SUMS, FORMAL_ORDER_CAP, GAMMA_SUMS,
                              KR_SUM, N_MAX_CAP, PENTAGONAL_NAMES, PROPOSITION_NAMES,
                              SEQUENCE_N_CAP, Point, PochhammerSum, expand_family, expand_sum,
                              family_names, family_parameters, family_ring,
                              fishburn_numbers, involution,
                              partial_sum, partition_parity_table, pochhammer_terms,
                              q_pochhammer, row_fishburn_numbers, termination_index,
                              truncated_sum, univariate_fishburn_series, xy_point)
from fishburn.rings import QQ, ZZ
from fishburn.series import TruncatedSeries
from series_helpers import map_coefficients


def xyu(n):
    one = TruncatedSeries.constant(ZZ, 2, n, 1)
    x = TruncatedSeries.variable(ZZ, 2, n, 0)
    y = TruncatedSeries.variable(ZZ, 2, n, 1)
    return one, one - x, one - y


def test_pochhammer_empty_product():
    one, u, w = xyu(4)
    assert q_pochhammer(w, u, 0).terms == {(0, 0): 1}


def test_pochhammer_single_factor():
    one, u, w = xyu(4)
    assert q_pochhammer(w, u, 1).terms == {(0, 1): 1}  # 1 - (1-y) = y


def test_pochhammer_selfpaired():
    one, u, _ = xyu(4)
    assert q_pochhammer(u, u, 2).terms == {(2, 0): 2, (3, 0): -1}


def test_pochhammer_rejects_bad_length():
    one, u, w = xyu(3)
    with pytest.raises(ParameterError):
        q_pochhammer(w, u, -1)


def test_infinite_pochhammer_needs_zero_constant():
    one, u, w = xyu(3)
    with pytest.raises(ParameterError):
        q_pochhammer(w, u, inf)  # q = 1-x has constant term 1


def test_infinite_pochhammer_matches_long_finite_product():
    N = 15
    w = TruncatedSeries.variable(ZZ, 1, N, 0, ("w",))
    assert q_pochhammer(w, w, inf).terms == q_pochhammer(w, w, N + 1).terms


def test_univariate_unknown_sequence():
    with pytest.raises(UnknownFamilyError):
        univariate_fishburn_series("selfDual", 4)


@pytest.mark.parametrize("which", ["fishburn", "rowFishburn"])
def test_univariate_sequences_stop_at_the_sequence_cap(which):
    with pytest.raises(ParameterError, match=f"^order capped at {SEQUENCE_N_CAP} for the "
                                             f"{which} sequence \\(got {SEQUENCE_N_CAP + 1}\\)$"):
        univariate_fishburn_series(which, SEQUENCE_N_CAP + 1)
    with pytest.raises(ParameterError, match="^order must be nonnegative$"):
        univariate_fishburn_series(which, -1)


@pytest.mark.parametrize("n", range(13))
def test_min_degree_property(n):
    """Every monomial of (1-y; 1-x)_n has total degree >= n."""
    N = 12
    one, u, w = xyu(N)
    poch = q_pochhammer(w, u, n)
    assert all(sum(e) >= n for e in poch.terms)


@pytest.mark.parametrize("builder_id,n_extra", [
    ("F1", 1), ("G1", 1), ("F3", 1), ("G3", 1),
])
def test_next_summand_vanishes_below_cut(builder_id, n_extra):
    """The cutoff lemma: the first skipped summand has no terms below the
    truncation order."""
    N = 6
    one, u, w = xyu(N)
    a, q = {
        "F1": (w, u), "G1": (w.invert(), u.invert()),
        "F3": (u, u), "G3": (w, u * u),
    }[builder_id]
    assert q_pochhammer(a, q, N + n_extra).is_zero()


def test_f1_low_order_against_enumeration():
    got = expand_family("F1", 3)
    expect = {(0, 0): 1, (0, 1): 1, (1, 1): 1, (0, 2): 1,
              (2, 1): 2, (1, 2): 2, (0, 3): 1}
    assert got.terms == expect


def test_g1_low_order_against_enumeration():
    got = expand_family("G1", 2)
    assert got.terms == {(0, 0): 1, (0, 1): 1, (1, 1): 1, (0, 2): 2}


@pytest.mark.parametrize("family,matrix_family", [("F1", "fishburn"),
                                                  ("G1", "rowFishburn")])
def test_bivariate_coefficients_match_matrix_counts(family, matrix_family):
    m_max = 5
    series = expand_family(family, m_max)
    for m in range(m_max + 1):
        table = refined_counts(matrix_family, m)
        for ell in range(m + 1):
            want = sum(c for key, c in table.counts.items()
                       if (key[-1] if matrix_family == "fishburn" else key[0]) == ell)
            assert series.coefficient((m - ell, ell)) == want, (m, ell)


def test_f1_coefficients_nonnegative():
    series = expand_family("F1", 8)
    assert all(c > 0 for c in series.terms.values())


def test_univariate_fishburn():
    s = univariate_fishburn_series("fishburn", 6)
    assert [s.coefficient((m,)) for m in range(7)] == [1, 1, 2, 5, 15, 53, 217]


def test_univariate_row_fishburn():
    s = univariate_fishburn_series("rowFishburn", 5)
    assert [s.coefficient((m,)) for m in range(6)] == [1, 1, 3, 12, 61, 380]


def test_univariate_matches_diagonal_specialization():
    """f, summed at p = q, agrees with the diagonals of the bivariate F1
    expansion; r, summed as the G3 diagonal, agrees with the diagonals of
    G1, which is an independent sum."""
    N = 8
    f = fishburn_numbers(N)
    F1 = expand_family("F1", N)
    for m in range(N + 1):
        diag = sum(F1.coefficient((m - ell, ell)) for ell in range(m + 1))
        assert diag == f[m]
    r = row_fishburn_numbers(N)
    G1 = expand_family("G1", N)
    for m in range(N + 1):
        diag = sum(G1.coefficient((m - ell, ell)) for ell in range(m + 1))
        assert diag == r[m]


def test_fishburn_order_zero():
    assert fishburn_numbers(0) == [1]


def test_pentagonal_sum_and_diagonals_match_their_direct_sums():
    """The pentagonal sum and the two diagonals, summed by `expand_sum`,
    equal their sums summed directly: comp1-right at p = 1, q = 1/w,
    comp1-left at p = q = 1/u and comp2-right at p = q = u."""
    N = 14
    w = TruncatedSeries.variable(ZZ, 1, N, 0, PENTAGONAL_NAMES)
    want = truncated_sum(COMPACT_SUMS["comp1-right"](Point(p=w ** 0, qinv=w)))
    assert expand_family("pentagonal-sum", N) == want
    one = TruncatedSeries.constant(ZZ, 1, N, 1, ("x",))
    u = one - TruncatedSeries.variable(ZZ, 1, N, 0, ("x",))
    for which, entry, point in (("fishburn", "comp1-left", Point(pinv=u, qinv=u)),
                                ("rowFishburn", "comp2-right", Point(p=u, q=u))):
        want = truncated_sum(COMPACT_SUMS[entry](point))
        assert univariate_fishburn_series(which, N) == want, which


def test_pentagonal_product_sparse():
    got = expand_family("pentagonal-product", 12)
    assert got.terms == {(0,): 1, (1,): -1, (2,): -1, (5,): 1, (7,): 1, (12,): -1}


def test_pentagonal_three_way_to_30():
    N = 30
    one = TruncatedSeries.constant(ZZ, 1, N, 1, ("w",))
    s = expand_family("pentagonal-sum", N)
    prod = expand_family("pentagonal-product", N)
    theta = expand_family("pentagonal-theta", N)
    assert s.equal_up_to(one - prod, N).equal
    assert s.equal_up_to(one - theta, N).equal


def test_kr_first_form_equals_f1():
    N = 7
    kr = expand_family("F3-KR-first-form", N)
    assert kr.equal_up_to(expand_family("F1", N), N).equal


def test_gamma_family_rejects_gamma_one():
    with pytest.raises(ParameterError):
        expand_family("gamma1-lhs", 4, gamma=Fraction(1), r=Fraction(1, 2))
    with pytest.raises(ParameterError):
        expand_family("gamma2-rhs", 4, gamma=1)


def test_gamma1_requires_nonzero_r():
    with pytest.raises(ParameterError):
        expand_family("gamma1-lhs", 4, gamma=Fraction(1, 2), r=0)


def test_gamma_families_degenerate_to_plain_at_gamma_zero():
    """gamma = 0 removes every gamma factor, leaving the formal-r identity
    specialized at the given rational r."""
    N = 5
    lhs = expand_family("gamma1-lhs", N, gamma=0, r=Fraction(-1))
    rhs = expand_family("gamma1-rhs", N, gamma=0, r=Fraction(-1))
    from fishburn.rings import QQ
    g1 = map_coefficients(expand_family("G1", N), QQ)
    g2 = map_coefficients(expand_family("G2", N), QQ)
    assert lhs.equal_up_to(g1, N).equal
    assert rhs.equal_up_to(g2, N).equal


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        expand_family("F9", 3)


def test_plain_family_rejects_parameters():
    with pytest.raises(ParameterError):
        expand_family("F1", 3, gamma=Fraction(1, 2))


PARAMETER_VALUES = {"gamma": Fraction(2, 3), "r": Fraction(-3, 5)}


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_each_family_takes_exactly_its_declared_parameters(family):
    names = family_parameters(family)
    params = {name: PARAMETER_VALUES[name] for name in names}
    series = expand_family(family, 2, **params)
    assert series.trunc == 2 and series.ring == family_ring(family)
    assert series.names == family_names(family)
    # a None value is a parameter not given
    assert expand_family(family, 2, **params, delta=None) == series
    extra = next((n for n in PARAMETER_VALUES if n not in names), "delta")
    with pytest.raises(ParameterError, match=f"family {family} takes"):
        expand_family(family, 2, **params, **{extra: Fraction(1, 2)})
    for name in names:
        with pytest.raises(ParameterError, match=f"family {family} takes"):
            expand_family(family, 2, **{k: v for k, v in params.items() if k != name})


def _no_work(*args):
    raise AssertionError("the expansion ran")


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_each_family_refuses_an_order_above_its_cap_before_any_work(family, monkeypatch):
    # two- and three-variable families stop at FORMAL_ORDER_CAP, the
    # one-variable pentagonal forms at N_MAX_CAP
    params = {name: PARAMETER_VALUES[name] for name in family_parameters(family)}
    cap = FORMAL_ORDER_CAP if expand_family(family, 1, **params).nvars > 1 else N_MAX_CAP
    entry = qseries._FAMILIES[family]
    monkeypatch.setitem(qseries._FAMILIES, family, (*entry[:-1], _no_work))
    with pytest.raises(ParameterError,
                       match=f"^order capped at {cap} for {family} \\(got {cap + 1}\\)$"):
        expand_family(family, cap + 1, **params)
    with pytest.raises(AssertionError, match="the expansion ran"):
        expand_family(family, cap, **params)


def test_a_family_expands_at_its_cap():
    series = expand_family("F1", FORMAL_ORDER_CAP)
    assert series.trunc == FORMAL_ORDER_CAP
    # F1(x, x) is the Fishburn series
    top = sum(series.coefficient((FORMAL_ORDER_CAP - l, l)) for l in range(FORMAL_ORDER_CAP + 1))
    assert top == fishburn_numbers(FORMAL_ORDER_CAP)[-1]


def test_partition_table_examples():
    tab = partition_parity_table(4, 12)
    assert tab.a(1, 1) == 1
    assert tab.a(2, 2) == 1
    assert tab.a(2, 3) == -1
    # zero outside the feasible weight window
    assert tab.a(3, 2) == 0
    assert tab.a(3, 7) == 0  # 7 > 3*4/2 = 6


def test_partition_table_refuses_a_weight_above_its_cap_before_any_work(monkeypatch):
    monkeypatch.setattr(qseries, "pochhammer_terms", _no_work)
    with pytest.raises(ParameterError,
                       match=f"^order capped at {N_MAX_CAP} for the partition parity table "
                             f"\\(got {N_MAX_CAP + 1}\\)$"):
        partition_parity_table(4, N_MAX_CAP + 1)
    with pytest.raises(AssertionError, match="the expansion ran"):
        partition_parity_table(4, N_MAX_CAP)


def test_partition_table_makes_no_row_past_its_weight(monkeypatch):
    # row r is w^r (w; w)_{r-1}, zero below the cut for r > max_weight: a
    # table with 10^5 parts reads the rows of one with 10, and no more
    made = []
    terms = qseries.pochhammer_terms
    monkeypatch.setattr(qseries, "pochhammer_terms",
                        lambda spec: (made.append(t) or t for t in terms(spec)))
    want = partition_parity_table(10, 10)
    assert len(made) == 10
    made.clear()
    tab = partition_parity_table(10**5, 10)
    assert tab.entries == want.entries and len(made) == 10
    assert tab.max_part == 10**5 and tab.a(10**5, 10) == 0


def test_partition_table_zero_pattern():
    tab = partition_parity_table(8, 30)
    for r in range(1, 9):
        for s in range(1, 31):
            if s < r or s > r * (r + 1) // 2:
                assert tab.a(r, s) == 0, (r, s)


def test_partition_table_matches_direct_enumeration():
    tab = partition_parity_table(6, 18)
    for r in range(1, 7):
        for s in range(1, 19):
            assert tab.a(r, s) == distinct_partition_parity(r, s), (r, s)


def test_partition_table_matches_bivariate_machinery():
    """Cross-check the p-graded expansion against a literal bivariate
    expansion of sum_n (p*w)^{n+1} (w; w)_n."""
    R, S = 4, 8
    N = R + S
    one = TruncatedSeries.constant(ZZ, 2, N, 1, ("p", "w"))
    p = TruncatedSeries.variable(ZZ, 2, N, 0, ("p", "w"))
    w = TruncatedSeries.variable(ZZ, 2, N, 1, ("p", "w"))
    total = TruncatedSeries.zero(ZZ, 2, N, ("p", "w"))
    pref = p * w
    prod = one
    wpow = w
    n = 0
    while n + 1 <= N:
        total = total + pref * prod
        prod = prod * (one - wpow)
        wpow = wpow * w
        pref = pref * (p * w)
        n += 1
    tab = partition_parity_table(R, S)
    for r in range(1, R + 1):
        for s in range(1, S + 1):
            if r + s <= N:
                assert total.coefficient((r, s)) == tab.a(r, s), (r, s)


def test_a_term_truncated_to_zero_skips_its_inverses():
    # (1 - 1) kills term 1; the inverse 1/(1 - 1) would not exist, and a
    # series term that is already zero must not ask for it
    one = TruncatedSeries.constant(ZZ, 1, 4, ZZ.one)
    spec = PochhammerSum(one, factors=((one, one),), inverses=((one, one),))
    first, *rest = islice(pochhammer_terms(spec), 3)
    assert first == one and all(t.is_zero() for t in rest)


def test_a_scalar_zero_over_zero_term_is_still_refused():
    spec = PochhammerSum(Fraction(1), factors=((Fraction(1), Fraction(1)),),
                         inverses=((Fraction(1), Fraction(1)),))
    terms = pochhammer_terms(spec)
    assert next(terms) == 1
    with pytest.raises(ZeroDivisionError):
        next(terms)


def test_fraction_partial_sum_equals_the_plain_fraction_sum():
    # comp1-left at (2^301, 1/2) terminates after 302 terms whose numerators
    # and denominators grow to tens of thousands of bits
    spec = COMPACT_SUMS["comp1-left"](Point(Fraction(2**301), Fraction(1, 2)))
    count = termination_index(spec) + 1
    assert count == 302
    terms = list(islice(pochhammer_terms(spec), count))
    assert all(type(t) is Fraction for t in terms)
    assert partial_sum(spec, count) == sum(terms[1:], terms[0])



# -- each sum at both points ---------------------------------------------------

# each family that is one Pochhammer sum: the sum, and whether the family's
# point is (p, q) = (1/(1-y), 1/(1-x)) rather than (1-y, 1-x)
FAMILY_SUMS = {
    "F1": (COMPACT_SUMS["comp1-left"], True),
    "F2": (COMPACT_SUMS["comp1-mid"], True),
    "F3": (COMPACT_SUMS["comp1-right"], True),
    "G1": (COMPACT_SUMS["comp2-first"], False),
    "G2": (COMPACT_SUMS["comp2-mid"], False),
    "G3": (COMPACT_SUMS["comp2-right"], False),
    "gamma1-lhs": (GAMMA_SUMS["gamma1-lhs"], False),
    "gamma1-rhs": (GAMMA_SUMS["gamma1-rhs"], False),
    "gamma2-lhs": (GAMMA_SUMS["gamma2-lhs"], False),
    "gamma2-rhs": (GAMMA_SUMS["gamma2-rhs"], False),
    "prop12-lhs": (GAMMA_SUMS["gamma1-lhs"], False),
    "prop12-rhs": (GAMMA_SUMS["gamma1-rhs"], False),
}
# every (p form, q form) pair, True meaning given as the inverse
FORMS = list(product((False, True), repeat=2))
GAMMA_PARAMS = [{"gamma": Fraction(2, 3), "r": Fraction(-3, 5)},
                {"gamma": Fraction(-4, 3), "r": Fraction(7, 2)},
                {"gamma": Fraction(0), "r": Fraction(1, 3)}]


def _family_cases():
    for family in FAMILY_SUMS:
        names = family_parameters(family)
        for params in GAMMA_PARAMS if names else [{}]:
            yield family, {name: params[name] for name in names}


@pytest.mark.parametrize("family,params", list(_family_cases()),
                         ids=lambda v: v if isinstance(v, str) else "-".join(map(str, v.values())))
def test_each_family_is_its_sum_at_both_points(family, params):
    """Every family that is one sum equals that sum summed at the point in
    any forms, p = 1-y or 1/p = 1-y and q = 1-x or 1/q = 1-x, and carried to
    the family's point by the involution in each coordinate where the two
    differ."""
    entry, inverted = FAMILY_SUMS[family]
    ring = family_ring(family)
    for order in (0, 1, 2, 5, 9, 12):
        want = expand_family(family, order, **params)
        if family.startswith("prop12"):
            r = TruncatedSeries.variable(ring, 3, order, 2, PROPOSITION_NAMES)
            args, names = (0, r), PROPOSITION_NAMES
        else:
            args, names = tuple(params.values()), BIVARIATE_NAMES
        for forms in FORMS:
            got = expand_sum(entry._replace(inverse=forms),
                             xy_point(order, ring, names, inverted), *args)
            assert got == want, (order, forms)


def test_kr_first_form_is_its_sum_at_both_points():
    for order in (0, 3, 12):
        want = expand_family("F3-KR-first-form", order)
        for forms in FORMS:
            assert 1 + expand_sum(KR_SUM._replace(inverse=forms),
                                  xy_point(order, ZZ)) == want, (order, forms)


def test_each_thm_main_pair_compares_two_different_sums():
    """The six families of thm-main are six different sums (each family is
    its sum: see the test above), so no pair compares a sum with itself."""
    for ident in THM_MAIN_IDS:
        left, right = ident.split("=")
        assert FAMILY_SUMS[left][0] is not FAMILY_SUMS[right][0]
    assert len({id(FAMILY_SUMS[f][0]) for f in ("F1", "F2", "F3", "G1", "G2", "G3")}) == 6


def test_the_involution_swaps_the_two_points():
    """x -> -x/(1-x) sends 1 - x to 1/(1 - x), and back."""
    order = 9
    one = TruncatedSeries.constant(QQ, 2, order, 1)
    u = one - TruncatedSeries.variable(QQ, 2, order, 0)
    shift = involution(order, QQ)
    assert u.substitute(shift) == u.invert()
    assert u.invert().substitute(shift) == u


def _nonzero(ring, rng):
    """A random unit of `ring`: +-1 over ZZ, else a nonzero small element."""
    while True:
        if ring == ZZ:
            c = rng.choice((1, -1))
        elif ring == QQ:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        else:
            c = ring.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(ring.degree)])
        if c:
            return c


def _random_point(ring, nvars, rng):
    """A point given in random forms, as p or 1/p and as q or 1/q, each
    coordinate c + s t with a random unit c, a random sign s and its own
    random variable t."""
    order = rng.randint(0, 7)
    t = rng.sample(range(nvars), 2)
    p, q = (TruncatedSeries.variable(ring, nvars, order, i).scale(rng.choice((1, -1)))
            + _nonzero(ring, rng) for i in t)
    return Point(**{rng.choice(("p", "pinv")): p, rng.choice(("q", "qinv")): q})


def _random_series(ring, nvars, order, rng):
    one = TruncatedSeries.constant(ring, nvars, order, 1)
    out = one.scale(_nonzero(ring, rng))
    for _ in range(6):
        e = tuple(rng.randint(0, 3) for _ in range(nvars))
        if sum(e) <= order:
            out = out + TruncatedSeries(ring, nvars, order, {e: _nonzero(ring, rng)})
    return out


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("ring", [ZZ, QQ, get_field(3), get_field(12)], ids=repr)
def test_flip_twice_gives_back_the_point(ring, nvars):
    """A point flipped to any forms and back is the point again; the flip's
    substitution takes the flipped point's p, q, 1/p and 1/q to the point's;
    and the two substitutions compose to the identity, in either order."""
    rng = random.Random(nvars * 100 + len(ring.tag))
    for _, forms in product(range(12), FORMS):
        point = _random_point(ring, nvars, rng)
        other, back = point.flip(forms)
        again, forth = other.flip(point.inverse)
        assert other.inverse == forms and again.inverse == point.inverse
        for name in ("p", "q", "pinv", "qinv"):
            assert getattr(again, name) == getattr(point, name), name
            assert getattr(other, name).substitute(back) == getattr(point, name), name
            assert getattr(point, name).substitute(forth) == getattr(other, name), name
        a = _random_series(ring, nvars, point.p.trunc, rng)
        assert a.substitute(back).substitute(forth) == a
        assert a.substitute(forth).substitute(back) == a


def test_flip_refuses_a_coordinate_that_is_not_a_unit_shift():
    one, u, w = xyu(4)
    # a bare variable has constant term 0, so it is refused before any inverse
    for p, forms in product((u * w, u.scale(2) - 1, one - u), ((True, False), (True, True))):
        with pytest.raises(ParameterError, match="not a constant plus or minus one variable"):
            Point(p, w).flip(forms)
