"""Truncated-series core: arithmetic, inversion, substitution, comparison."""

import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishburn.cyclotomic import CyclotomicElement, CyclotomicField, get_field
from fishburn.errors import (NonInvertibleError, SeriesCompatibilityError,
                             SubstitutionError, TruncationError)
from fishburn.qseries import expand_family
from fishburn.rings import QQ, ZZ
from fishburn.roots import RootContext, expand_at_root
from fishburn import series
from fishburn.series import TruncatedSeries, _pack, _unpack
from series_helpers import (reference_add, reference_equal_up_to, reference_invert,
                            reference_mul, reference_substitute, restrict)


def blocks(n, ring=ZZ):
    one = TruncatedSeries.constant(ring, 2, n, 1)
    x = TruncatedSeries.variable(ring, 2, n, 0)
    y = TruncatedSeries.variable(ring, 2, n, 1)
    return one, x, y


def test_add_variables():
    one, x, y = blocks(2)
    assert (x + y).terms == {(1, 0): 1, (0, 1): 1}
    assert (1 - (x + y)).terms == {(0, 0): 1, (1, 0): -1, (0, 1): -1}
    assert ((x + y) - 1).terms == {(0, 0): -1, (1, 0): 1, (0, 1): 1}
    # a constant that cancels is dropped, not stored as a zero coefficient
    assert (1 - (one + x)).terms == {(1, 0): -1}
    assert ((one + x) - 1).terms == {(1, 0): 1}
    assert (x + 1 + (-1)).terms == {(1, 0): 1}


def test_mul_telescoping_geometric():
    one, x, _ = blocks(3)
    geom = one + x + x * x + x * x * x
    assert ((one - x) * geom).terms == {(0, 0): 1}


def test_mul_square():
    one, _, y = blocks(2)
    sq = (one - y) * (one - y)
    assert sq.terms == {(0, 0): 1, (0, 1): -2, (0, 2): 1}


def test_invert_geometric():
    one, x, _ = blocks(3)
    assert (one - x).invert().terms == {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1}


def test_invert_is_two_sided_inverse():
    one, _, y = blocks(4)
    inv = (one - y).invert()
    assert ((one - y) * inv).terms == {(0, 0): 1}
    assert (inv * (one - y)).terms == {(0, 0): 1}


def test_invert_bivariate_product():
    one, x, y = blocks(2)
    inv = ((one - y) * (one - x)).invert()
    assert inv.terms == {(0, 0): 1, (1, 0): 1, (0, 1): 1,
                         (2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_invert_rejects_zero_constant():
    _, x, _ = blocks(3)
    with pytest.raises(NonInvertibleError):
        x.invert()


def test_invert_rejects_non_unit_integer_constant():
    one, x, _ = blocks(3)
    with pytest.raises(NonInvertibleError, match="2"):
        (one + one - x).invert()
    # the same constant is fine over the rationals
    oneq, xq, _ = blocks(3, QQ)
    inv = (oneq + oneq - xq).invert()
    assert inv.constant_term == Fraction(1, 2)


def test_pow():
    one, x, _ = blocks(2)
    assert ((one - x) ** 0).terms == {(0, 0): 1}
    assert ((one - x) ** -1).terms == {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    assert ((one - x) ** 2).terms == {(0, 0): 1, (1, 0): -2, (2, 0): 1}


def test_substitute_identity():
    _, x, _ = blocks(4)
    s = x + x * x
    assert s.substitute({0: x}).terms == s.terms
    assert s.substitute({}).terms == s.terms


def test_substitute_shift():
    one, x, _ = blocks(3)
    target = -x * (one - x).invert()
    assert x.substitute({0: target}).terms == {(1, 0): -1, (2, 0): -1, (3, 0): -1}


def test_substitute_square_in_y():
    one, _, y = blocks(3)
    target = -y * (one - y).invert()
    got = (y * y).substitute({1: target})
    assert got.terms == {(0, 2): 1, (0, 3): 2}


def test_substitute_rejects_const_term():
    one, x, _ = blocks(3)
    with pytest.raises(SubstitutionError):
        x.substitute({0: one + x})


def test_coefficient_lookup_and_bounds():
    one, x, y = blocks(3)
    s = one + (x * x * y).scale(2)
    assert s.coefficient((2, 1)) == 2
    assert s.coefficient((1, 1)) == 0
    with pytest.raises(TruncationError):
        s.coefficient((2, 2))
    with pytest.raises(SeriesCompatibilityError, match="negative"):
        s.coefficient((-1, 2))


def test_equal_up_to():
    one, x, _ = blocks(3)
    s = one + x
    assert s.equal_up_to(s, 3).equal
    t = one + x + x ** 3
    assert s.equal_up_to(t, 2).equal       # difference beyond the cut
    u = one + x + x                        # 1 + 2x
    rep = s.equal_up_to(u, 2)
    assert not rep.equal
    assert rep.index == (1, 0) and rep.left == 1 and rep.right == 2
    one5, x5, _ = blocks(5)                # truncations 3 and 5
    assert s.equal_up_to(one5 + x5 + x5 ** 4, 3).equal
    rep = (one5 + x5 + x5 * x5).equal_up_to(s, 3)
    assert rep.index == (2, 0) and rep.left == 1 and rep.right == 0


def test_mismatch_witness_is_lexicographically_least():
    one, x, y = blocks(3)
    a = one + x + y
    b = one + x * 2 + y * 3
    rep = a.equal_up_to(b, 3)
    assert rep.index == (0, 1)  # (0,1) sorts before (1,0)


def test_incompatible_operands():
    one, x, _ = blocks(3)
    other = TruncatedSeries.variable(ZZ, 2, 4, 0)
    with pytest.raises(SeriesCompatibilityError, match="truncation"):
        x + other
    uni = TruncatedSeries.variable(ZZ, 1, 3, 0)
    with pytest.raises(SeriesCompatibilityError, match="variable count"):
        x * uni
    rational = TruncatedSeries.variable(QQ, 2, 3, 0)
    with pytest.raises(SeriesCompatibilityError, match="ring"):
        x + rational


def test_restrict_matches_recomputation():
    one, x, y = blocks(6)
    s = ((one - x) * (one - y)).invert() * (one + x * y)
    one4, x4, y4 = blocks(4)
    t = ((one4 - x4) * (one4 - y4)).invert() * (one4 + x4 * y4)
    assert restrict(s, 4).terms == t.terms


def _random_series(rng, n, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        i = rng.randint(0, n)
        j = rng.randint(0, n - i)
        c = rng.randint(-4, 4)
        if c:
            terms[(i, j)] = terms.get((i, j), 0) + c
    terms = {e: c for e, c in terms.items() if c}
    return TruncatedSeries(ZZ, 2, n, terms)


def test_ring_laws_on_random_series():
    rng = random.Random(421)
    n = 5
    for _ in range(60):
        a, b, c = (_random_series(rng, n) for _ in range(3))
        assert ((a + b) + c).terms == (a + (b + c)).terms
        assert (a * b).terms == (b * a).terms
        assert (a * (b + c)).terms == (a * b + a * c).terms
        assert ((a * b) * c).terms == (a * (b * c)).terms


def test_random_unit_series_inverse():
    rng = random.Random(731)
    n = 5
    for _ in range(40):
        a = _random_series(rng, n)
        unit = 1 if rng.random() < 0.5 else -1
        a = a - a.constant_term + unit   # force a unit constant term
        inv = a.invert()
        assert (a * inv).terms == {(0, 0): 1}
        assert (inv * a).terms == {(0, 0): 1}


def test_substitute_respects_products():
    rng = random.Random(9000)
    n = 5
    one = TruncatedSeries.constant(ZZ, 2, n, 1)
    x = TruncatedSeries.variable(ZZ, 2, n, 0)
    y = TruncatedSeries.variable(ZZ, 2, n, 1)
    sigma = {0: x + x * y, 1: -y + y * y}
    for _ in range(30):
        a, b = _random_series(rng, n), _random_series(rng, n)
        lhs = reference_substitute(a * b, sigma)
        rhs = reference_substitute(a, sigma) * reference_substitute(b, sigma)
        assert lhs.equal_up_to(rhs, n).equal


def test_truncation_monotonicity():
    rng = random.Random(77)
    for _ in range(30):
        a6, b6 = _random_series(rng, 6), _random_series(rng, 6)
        prod6 = restrict(a6 * b6, 3)
        a3 = restrict(a6, 3)
        b3 = restrict(b6, 3)
        assert prod6.terms == (a3 * b3).terms


def test_specialize_requires_support_property():
    n = 6
    one = TruncatedSeries.constant(ZZ, 3, n, 1)
    r = TruncatedSeries.variable(ZZ, 3, n, 2)
    with pytest.raises(TruncationError, match="support"):
        (one + r).specialize(2, -1, 3)


def test_specialize_sums_variable_powers():
    n = 6
    x = TruncatedSeries.variable(ZZ, 3, n, 0)
    r = TruncatedSeries.variable(ZZ, 3, n, 2)
    s = x * r + x * x * r * r + x
    # at r = -1: x*(-1) + x^2*(+1) + x = x^2
    got = s.specialize(2, -1, 3)
    assert got.terms == {(2, 0): 1}
    assert got.nvars == 2


# -- packed-key kernel: differential tests against the tuple-keyed loops -------


def _coefficients(ring):
    if ring == ZZ:
        return st.integers(min_value=-2**70, max_value=2**70)
    if ring == QQ:
        return st.fractions(min_value=-40, max_value=40, max_denominator=12)
    coords = st.one_of(st.integers(min_value=-9, max_value=9),  # integral
                       st.fractions(min_value=-9, max_value=9, max_denominator=6))
    small = st.lists(coords, min_size=ring.degree, max_size=ring.degree)
    # coordinates of +-2^200 and their neighbours, with mixed signs
    huge = st.lists(st.sampled_from((2**200, -2**200, 2**200 - 1, 1 - 2**200, 3, -1, 0)),
                    min_size=ring.degree, max_size=ring.degree)
    elements = st.one_of(small, huge).map(ring.element)
    # the inverse of an integral non-unit has Fraction coordinates
    integral = st.lists(st.integers(min_value=-9, max_value=9), min_size=ring.degree,
                        max_size=ring.degree).map(ring.element)
    inverses = integral.filter(bool).map(CyclotomicElement.inverse).filter(
        lambda c: any(type(x) is Fraction for x in c.coeffs))
    return st.one_of(elements, inverses)


# conductors with phi(k) = 1 (k = 1, 2), 2 (3, 4), 4 (5, 12) and 6 (7)
RINGS = [ZZ, QQ] + [get_field(k) for k in (1, 2, 3, 4, 5, 7, 12)]


def _exponents(nvars, trunc):
    return [e for e in product(range(trunc + 1), repeat=nvars) if sum(e) <= trunc]


@st.composite
def series_pairs(draw, ring, nvars):
    """Two compatible series over `ring` in `nvars` variables with at most
    10 terms each, often empty or with one term."""
    trunc = draw(st.integers(min_value=0, max_value=8))
    exps = _exponents(nvars, trunc)

    def one_series():
        entries = draw(st.lists(st.tuples(st.sampled_from(exps), _coefficients(ring)),
                                max_size=draw(st.sampled_from((0, 1, 10)))))
        terms = {e: ring.coerce(c) for e, c in entries if c}
        return TruncatedSeries(ring, nvars, trunc, terms)
    return one_series(), one_series()


def _assert_canonical(series):
    ring = series.ring
    kind = {ZZ: int, QQ: Fraction}.get(ring, CyclotomicElement)
    for c in series.terms.values():
        assert c
        assert type(c) is kind


def _one_term(ring, nvars, trunc, exp, coeff):
    return TruncatedSeries(ring, nvars, trunc, {exp: ring.coerce(coeff)})


def test_mul_edge_operands():
    """Empty and one-term operands, products just above and exactly on the
    cut, truncation order 0, and over Q(zeta_k) empty operands and
    coordinates of +-2^200 with mixed signs."""
    cases = [
        (TruncatedSeries.zero(QQ, 2, 4), _one_term(QQ, 2, 4, (1, 2), Fraction(1, 3))),
        (_one_term(ZZ, 3, 8, (2, 3, 3), 5), _one_term(ZZ, 3, 8, (0, 0, 0), -7)),
        (_one_term(QQ, 2, 3, (3, 0), Fraction(3, 2)), _one_term(QQ, 2, 3, (0, 1), 2)),
        (_one_term(QQ, 2, 3, (2, 0), Fraction(3, 2)), _one_term(QQ, 2, 3, (0, 1), 2)),
        (_one_term(ZZ, 1, 0, (0,), 2), _one_term(ZZ, 1, 0, (0,), 3)),
    ]
    for k in (1, 2, 5, 7, 12):
        ring = get_field(k)
        big = ring.element([(-1) ** i * 2**200 for i in range(ring.degree)])
        a = TruncatedSeries(ring, 2, 4, {(0, 0): big, (1, 2): -big, (0, 3): ring.one})
        empty = TruncatedSeries.zero(ring, 2, 4)
        cases += [(a, empty), (empty, a), (empty, empty), (a, a)]
    for a, b in cases:
        assert (a * b).terms == reference_mul(a, b)
    assert cases[2][0] * cases[2][1] == TruncatedSeries.zero(QQ, 2, 3)
    assert (cases[3][0] * cases[3][1]).terms == {(2, 1): Fraction(3)}


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("ring", RINGS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mul_matches_reference(ring, nvars, data):
    a, b = data.draw(series_pairs(ring, nvars))
    got = a * b
    assert got.terms == reference_mul(a, b)
    _assert_canonical(got)


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("ring", RINGS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_invert_matches_reference(ring, nvars, data):
    a, _ = data.draw(series_pairs(ring, nvars))
    unit = data.draw(st.sampled_from((1, -1)) if ring == ZZ else
                     _coefficients(ring).filter(bool))
    terms = dict(a.terms)
    terms[(0,) * nvars] = ring.coerce(unit)
    a = TruncatedSeries(ring, nvars, a.trunc, terms)
    got = a.invert()
    assert got.terms == reference_invert(a)
    _assert_canonical(got)


def test_folding_to_zero_drops_the_monomial():
    """In Q(zeta_3) the x coefficient of (1 + zeta x)(zeta + (1 + zeta) x)
    sums, unreduced, to (1 + zeta) + zeta^2 = 1 + zeta + zeta^2: a nonzero
    kernel value that Phi_3 folds to 0.  The monomial must not be kept."""
    ring = get_field(3)
    zeta = ring.zeta()
    a = TruncatedSeries(ring, 1, 2, {(0,): ring.one, (1,): zeta})
    b = TruncatedSeries(ring, 1, 2, {(0,): zeta, (1,): 1 + zeta})
    ka, a_state = ring.store([ring.one, zeta])
    kb, b_state = ring.store([zeta, 1 + zeta])
    ka, kb, *_, state = ring.operands(ka, a_state, kb, b_state, 2)
    value = ka[0] * kb[1] + ka[1] * kb[0]
    assert value and ring.fold([value], state)[0] == [0]
    got = a * b
    assert (1,) not in got.terms
    assert got.terms == reference_mul(a, b) == {(0,): zeta, (2,): zeta + zeta * zeta}


def test_cyclotomic_series_product_makes_no_element_products(monkeypatch):
    """A Q(zeta_k) series product folds each kept coefficient once and
    multiplies no pair of elements, and a chain of products, sums,
    differences and negations, and int constants added on either side,
    make no element at all until `terms` is read."""
    ring = get_field(12)
    rng = random.Random(12)

    def dense():
        return TruncatedSeries(ring, 2, 8, {
            (i, j): ring.element([rng.randint(-5, 5) for _ in range(4)])
            for i in range(9) for j in range(9 - i)})
    a, b = dense(), dense()
    assert len(a.terms) > 30 and len(b.terms) > 30
    calls, made = [], []
    element_mul = CyclotomicField._mul
    monkeypatch.setattr(CyclotomicField, "_mul",
                        lambda *args: calls.append(1) or element_mul(*args))
    element_init = CyclotomicElement.__init__
    monkeypatch.setattr(CyclotomicElement, "__init__",
                        lambda *args: made.append(1) or element_init(*args))
    got = a * b
    chain = (got + a) * (b - a) * -(a * a - b)
    constants = {(1, -1): 1 - a, (2, 1): a + 2, (-3, 1): a - 3, (-5, 1): -5 + a}
    assert calls == [] and made == []
    terms = chain.terms
    assert made
    monkeypatch.undo()
    for (n, sign), got_constant in constants.items():
        assert got_constant.terms == reference_add(
            TruncatedSeries.constant(ring, 2, 8, n), a if sign == 1 else -a)
    assert got.terms == reference_mul(a, b)
    left = TruncatedSeries(ring, 2, 8, reference_add(got, a))
    right = TruncatedSeries(ring, 2, 8, reference_add(b, -a))
    square = TruncatedSeries(ring, 2, 8, reference_mul(a, a))
    last = TruncatedSeries(ring, 2, 8, reference_add(b, -square))
    assert terms == reference_mul(TruncatedSeries(ring, 2, 8, reference_mul(left, right)),
                                  last)


def test_construction_refuses_bad_exponents():
    """The constructor and `coefficient` refuse, with one check, an exponent
    beyond the cut, a negative one, one of the wrong length, and a float or
    bool entry; each message names its fault, and a zero coefficient does
    not excuse a bad exponent."""
    cases = [
        ((2, 2), TruncationError, r"\(2, 2\) exceeds truncation order 3"),
        ((5, 0), TruncationError, r"\(5, 0\) exceeds truncation order 3"),
        ((-1, 1), SeriesCompatibilityError, r"\(-1, 1\) is not nonnegative integers"),
        ((1,), SeriesCompatibilityError, r"\(1,\) does not have 2 entries"),
        ((1, 0, 0), SeriesCompatibilityError, "does not have 2 entries"),
        ((1.0, 0), SeriesCompatibilityError, r"\(1.0, 0\) is not nonnegative integers"),
        ((True, 0), SeriesCompatibilityError, r"\(True, 0\) is not nonnegative integers"),
    ]
    _, x, _ = blocks(3)
    for exp, error, match in cases:
        for coeff in (1, 0):
            with pytest.raises(error, match=match):
                TruncatedSeries(ZZ, 2, 3, {exp: coeff})
        with pytest.raises(error, match=match):
            x.coefficient(exp)
    for trunc in (-1, 2.0, True):
        with pytest.raises(ValueError, match="not a nonnegative integer"):
            TruncatedSeries(ZZ, 2, trunc)


@pytest.mark.parametrize("ring", [ZZ, QQ, get_field(3)], ids=repr)
def test_explicit_zero_coefficients_are_dropped(ring):
    """A zero given to the constructor is not stored, so `is_zero`, `==` and
    `equal_up_to` agree on it."""
    zero = TruncatedSeries.zero(ring, 2, 3)
    s = TruncatedSeries(ring, 2, 3, {(1, 0): ring.zero})
    assert s.is_zero() and s == zero and s.equal_up_to(zero, 3).equal
    assert s.terms == {} and s.coefficient((1, 0)) == ring.zero
    t = TruncatedSeries(ring, 2, 3, {(1, 0): ring.zero, (0, 1): ring.one})
    u = TruncatedSeries.variable(ring, 2, 3, 1)
    assert t == u and t.equal_up_to(u, 3).equal and t.terms == {(0, 1): ring.one}
    assert TruncatedSeries.constant(ring, 2, 3, 0) == zero


def _small(ring, rng):
    """A random nonzero coefficient of `ring` with small entries."""
    while True:
        if ring == ZZ:
            c = rng.randint(-9, 9)
        elif ring == QQ:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        else:
            c = ring.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(ring.degree)])
        if c:
            return c


def _dense(ring, nvars, trunc, rng):
    """Every monomial of total degree <= trunc, with a unit constant term."""
    terms = {e: _small(ring, rng) for e in _exponents(nvars, trunc)}
    terms[(0,) * nvars] = ring.one
    return TruncatedSeries(ring, nvars, trunc, terms)


def _span_and_pairs(a, b):
    """The key span a product of a and b sums over, and its number of term
    pairs: the list accumulator is taken when the span is not longer."""
    radix = a.trunc + 1
    ka, kb = (sorted(_pack(e, radix) for e in s.terms) for s in (a, b))
    return min(radix ** a.nvars, ka[-1] + kb[-1] + 1) - ka[0] - kb[0], len(ka) * len(kb)


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("ring", [ZZ, QQ, get_field(3), get_field(12)], ids=repr)
def test_dense_times_short_operands_matches_reference(ring, nvars):
    """A dense operand times operands of 0, 1 and 2 terms, in both orders,
    so the short operand runs in the outer loop from either side."""
    rng = random.Random(8 * nvars + len(ring.tag))
    n = 8
    dense = _dense(ring, nvars, n, rng)
    exps = [e for e in dense.terms if 0 < sum(e) <= 3]
    shorts = [TruncatedSeries.zero(ring, nvars, n),
              _one_term(ring, nvars, n, rng.choice(exps), _small(ring, rng)),
              _one_term(ring, nvars, n, (0,) * nvars, ring.one)
              - _one_term(ring, nvars, n, rng.choice(exps), _small(ring, rng))]
    for short in shorts:
        assert (dense * short).terms == reference_mul(dense, short)
        assert (short * dense).terms == reference_mul(short, dense)
        _assert_canonical(dense * short)
    assert shorts[2].invert().terms == reference_invert(shorts[2])
    assert dense.invert().terms == reference_invert(dense)


def test_products_on_both_accumulators_match_reference():
    """A bivariate dense product sums into the list over its key span; a
    trivariate sparse one, whose span is longer than its term pairs, into
    the dict."""
    rng = random.Random(2009)
    a, b = _dense(ZZ, 2, 8, rng), _dense(ZZ, 2, 8, rng)
    span, pairs = _span_and_pairs(a, b)
    assert span <= pairs
    assert (a * b).terms == reference_mul(a, b)
    c = TruncatedSeries(ZZ, 3, 8, {(0, 0, 0): 1, (1, 0, 2): -3, (0, 0, 4): 2**80})
    d = TruncatedSeries(ZZ, 3, 8, {(0, 1, 0): 5, (2, 0, 1): 1, (0, 3, 3): -1})
    span, pairs = _span_and_pairs(c, d)
    assert span > pairs
    assert (c * d).terms == reference_mul(c, d)


def test_expansions_build_no_tuple_view(monkeypatch):
    """Family and root expansions, and comparisons that agree, that differ,
    or that span two truncations, and `==`, run on the packed terms; the
    tuple view is built on the first read of `terms` and then kept."""
    calls = []
    view = TruncatedSeries._tuple_view
    monkeypatch.setattr(TruncatedSeries, "_tuple_view",
                        lambda self: calls.append(1) or view(self))
    g1 = expand_family("G1", 12)
    root = expand_at_root("comp1-left", RootContext(12, 6, 1, 6))
    assert g1.equal_up_to(expand_family("G1", 12), 12).equal
    g1_10 = expand_family("G1", 10)
    assert g1.equal_up_to(g1_10, 10).equal and g1_10.equal_up_to(g1, 9).equal
    shifted = g1 + TruncatedSeries(ZZ, 2, 12, {(3, 1): 1, (0, 4): -1})
    rep = g1.equal_up_to(shifted, 12)
    assert not rep.equal and rep.index == (0, 4)
    assert rep.right == rep.left - 1
    rep = g1_10.equal_up_to(shifted, 10)
    assert not rep.equal and rep.index == (0, 4)
    assert g1 == expand_family("G1", 12) and g1 != shifted and g1 != g1_10
    assert calls == []
    terms = g1.terms
    assert len(calls) == 1
    assert g1.terms is terms and len(calls) == 1
    assert root.terms and len(calls) == 2


@pytest.mark.parametrize("ta,tb", [(3, 3), (3, 5), (5, 3)])
@pytest.mark.parametrize("ring", [ZZ, QQ, get_field(3)], ids=repr)
def test_equal_up_to_matches_reference(ring, ta, tb):
    """Random pairs that share most terms, at every order up to the smaller
    truncation: the verdict and the witness are those of the comparison on
    exponent tuples."""
    rng = random.Random(100 * ta + 10 * tb + len(ring.tag))
    verdicts = set()
    for nvars in (1, 2, 3):
        for _ in range(15):
            top = _exponents(nvars, max(ta, tb))
            base = {e: _small(ring, rng) for e in top if rng.random() < 0.5}
            b_terms = {e: c for e, c in base.items() if sum(e) <= tb}
            # change up to three coefficients of b, to zero or to another value
            for e in rng.sample(_exponents(nvars, tb), rng.randint(0, 3)):
                b_terms[e] = rng.choice((ring.zero, _small(ring, rng)))
            a = TruncatedSeries(ring, nvars, ta, {e: c for e, c in base.items()
                                                  if sum(e) <= ta})
            b = TruncatedSeries(ring, nvars, tb, b_terms)
            for order in range(min(ta, tb) + 1):
                for left, right in ((a, b), (b, a)):
                    got = left.equal_up_to(right, order)
                    assert got == reference_equal_up_to(left, right, order)
                    verdicts.add(got.equal)
    assert verdicts == {True, False}


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_unpack_inverts_pack(nvars):
    for radix in (13, 20):
        for e in _exponents(nvars, 12):
            assert _unpack(_pack(e, radix), radix, nvars) == e


def test_high_truncation_trivariate_reads_back_by_arithmetic():
    """A product of one-term trivariate series at truncation 1000, its tuple
    view, repr and a comparison witness build nothing sized by the
    (N+1)^3 keys below the cut."""
    start = time.perf_counter()
    a = TruncatedSeries(ZZ, 3, 1000, {(300, 200, 100): 2})
    b = TruncatedSeries(ZZ, 3, 1000, {(100, 0, 200): -3})
    prod = a * b
    assert prod.terms == {(400, 200, 300): -6}
    assert repr(prod) == "<-6*x^400*y^200*r^300 | N=1000, ZZ>"
    rep = prod.equal_up_to(prod + b, 900)
    assert (rep.equal, rep.index, rep.left, rep.right) == (False, (100, 0, 200), 0, -3)
    assert time.perf_counter() - start < 0.05


# -- separable substitution and the fraction-free inverse ----------------------


@st.composite
def separable_maps(draw, ring, nvars, trunc):
    """A `substitute` assignment: for some variables i, a series in x_i
    alone with zero constant term, often of one term or empty."""
    assignment = {}
    for i in range(nvars):
        if draw(st.booleans()):
            entries = draw(st.lists(st.tuples(st.integers(min_value=1, max_value=max(trunc, 1)),
                                              _coefficients(ring)),
                                    max_size=draw(st.sampled_from((0, 1, 4)))))
            terms = {tuple(m if j == i else 0 for j in range(nvars)): ring.coerce(c)
                     for m, c in entries if c and m <= trunc}
            assignment[i] = TruncatedSeries(ring, nvars, trunc, terms)
    return assignment


@pytest.mark.parametrize("nvars", [1, 2, 3])
@pytest.mark.parametrize("ring", [ZZ, QQ, get_field(3), get_field(12)], ids=repr)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_substitute_matches_reference(ring, nvars, data):
    a, _ = data.draw(series_pairs(ring, nvars))
    assignment = data.draw(separable_maps(ring, nvars, a.trunc))
    got = a.substitute(assignment)
    assert got.terms == reference_substitute(a, assignment).terms
    _assert_canonical(got)


def test_substitute_involution_is_its_own_inverse():
    """x -> -x/(1-x), applied twice, gives back every series, over ZZ in
    three variables (the third kept) and over QQ."""
    rng = random.Random(33)
    for ring in (ZZ, QQ):
        n = 7
        one = TruncatedSeries.constant(ring, 3, n, 1)
        shift = {i: -TruncatedSeries.variable(ring, 3, n, i) *
                 (one - TruncatedSeries.variable(ring, 3, n, i)).invert() for i in (0, 1)}
        for _ in range(10):
            a = TruncatedSeries(ring, 3, n, {
                e: ring.coerce(rng.randint(-9, 9)) for e in _exponents(3, n)
                if rng.random() < 0.5})
            assert a.substitute(shift).substitute(shift) == a
            assert a.substitute(shift) == reference_substitute(a, shift)


def test_substitute_refuses_a_replacement_in_other_variables():
    one, x, y = blocks(4)
    s = x * x + y
    with pytest.raises(SubstitutionError, match="not a series in x alone"):
        s.substitute({0: x + x * y})
    with pytest.raises(SubstitutionError, match="not a series in y alone"):
        s.substitute({1: x})
    with pytest.raises(ValueError, match="out of range"):
        s.substitute({2: x})


def _huge_series(ring, nvars, trunc, c0, rng):
    """A series with constant term `c0` and coefficients of +-2^200 and their
    neighbours (over QQ divided by small ints) at random exponents."""
    values = (2**200, -2**200, 2**200 - 1, 1 - 2**200, 3, -1)
    terms = {e: ring.coerce(rng.choice(values) if ring == ZZ else
                            Fraction(rng.choice(values), rng.randint(1, 9)))
             for e in _exponents(nvars, trunc) if any(e) and rng.random() < 0.4}
    terms[(0,) * nvars] = ring.coerce(c0)
    return TruncatedSeries(ring, nvars, trunc, terms)


INVERT_CASES = [(ZZ, 1), (ZZ, -1), (QQ, Fraction(1)), (QQ, Fraction(-3, 7)),
                (QQ, Fraction(2**200, 3)), (QQ, Fraction(5, 2**200 - 1)), (QQ, Fraction(6))]


@pytest.mark.parametrize("ring,c0", INVERT_CASES, ids=str)
def test_fraction_free_invert_matches_the_element_recurrence(ring, c0):
    """Over ZZ and QQ the int recurrence gives the element recurrence's
    inverse, with huge coefficients and non-unit rational constant terms."""
    rng = random.Random(200)
    for nvars, trunc in ((1, 9), (2, 6), (3, 4)):
        a = _huge_series(ring, nvars, trunc, c0, rng)
        got = a.invert()
        assert got.terms == reference_invert(a)
        _assert_canonical(got)


def test_invert_without_the_constant_term_powers_fails(monkeypatch):
    """A mutant of the fraction-free inverse that drops the powers of A_0
    (both the scaling of the recurrence and the final division) is caught
    by the differential test over QQ with a non-unit constant term and over
    ZZ with constant term -1."""
    monkeypatch.setattr(series, "_powers", lambda base, n: [1] * (n + 1))
    rng = random.Random(7)
    for ring, c0 in ((QQ, Fraction(-3, 7)), (ZZ, -1)):
        a = _huge_series(ring, 2, 6, c0, rng)
        assert a.invert().terms != reference_invert(a)
    a = _huge_series(ZZ, 2, 6, 1, rng)
    assert a.invert().terms == reference_invert(a)  # A_0 = 1 needs no power


@pytest.mark.parametrize("ring", [ZZ, get_field(12)], ids=repr)
def test_a_mutant_of_the_one_loop_is_caught_through_every_caller(ring, monkeypatch):
    """A product on either accumulator, `invert` and `substitute` all sum
    through `series._sum_products`: with the last partner of each row
    dropped, each differs from its reference on exponent tuples."""
    rng = random.Random(38)
    a, b = _dense(ring, 2, 6, rng), _dense(ring, 2, 6, rng)
    c = TruncatedSeries(ring, 3, 8, {(0, 0, 0): ring.one, (1, 0, 2): _small(ring, rng),
                                     (0, 0, 4): _small(ring, rng)})
    d = TruncatedSeries(ring, 3, 8, {(0, 1, 0): _small(ring, rng), (2, 0, 1): ring.one,
                                     (0, 3, 3): _small(ring, rng)})
    assert _span_and_pairs(a, b)[0] <= _span_and_pairs(a, b)[1]
    assert _span_and_pairs(c, d)[0] > _span_and_pairs(c, d)[1]
    x = TruncatedSeries.variable(ring, 2, 6, 0)
    shift = {0: x + x * x.scale(_small(ring, rng))}
    cases = {"list product": (lambda: (a * b).terms, reference_mul(a, b)),
             "dict product": (lambda: (c * d).terms, reference_mul(c, d)),
             "invert": (lambda: a.invert().terms, reference_invert(a)),
             "substitute": (lambda: a.substitute(shift).terms,
                            reference_substitute(a, shift).terms)}
    for name, (run, want) in cases.items():
        assert run() == want, name
    calls = []
    loop = series._sum_products

    def mutant(keys, values, partners, *span):
        calls.append(1)
        return loop(keys, values, [row[:-1] for row in partners], *span)

    monkeypatch.setattr(series, "_sum_products", mutant)
    for name, (run, want) in cases.items():
        calls.clear()
        assert run() != want and calls, name
