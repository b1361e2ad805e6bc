"""Root-of-unity expansions, the conjecture explorer, terminating checks."""

import re
from decimal import Decimal
from fractions import Fraction
from itertools import product

import mpmath as mp
import pytest

from fishburn import identities
from fishburn.cyclotomic import CyclotomicElement, get_field
from fishburn.errors import CertificateError, ParameterError
from fishburn.identities import evaluate_terminating, verify_terminating
from fishburn.qseries import (COMPACT_SUMS, FORMAL_ORDER_CAP, Point, expand_family, expand_sum,
                              truncated_sum)
from fishburn.rings import QQ
from fishburn.names import ROOT_CHECK_FAMILIES, ROOT_EXPRS
from fishburn.roots import (CONDUCTOR_CAP, PFORMAL_NAMES, RootContext, _require_certificate,
                            conjecture_explore, expand_at_root, expand_q_only,
                            root_terminating_check)
from fishburn.series import TruncatedSeries
from numeric_helpers import mp_image
from series_helpers import map_coefficients, reference_substitute


def test_context_validation():
    with pytest.raises(ParameterError):
        RootContext(0, 0, 0, 4)
    with pytest.raises(ParameterError):
        RootContext(13, 0, 0, 4)
    with pytest.raises(ParameterError):
        RootContext(2, 1, 1, -1)



def test_context_refuses_an_order_above_the_formal_cap():
    # every root expansion is a series in two variables
    with pytest.raises(ParameterError,
                       match=f"^order capped at {FORMAL_ORDER_CAP} for root expansions "
                             r"\(got 33\)$"):
        RootContext(4, 1, 1, 33)
    assert RootContext(4, 1, 1, FORMAL_ORDER_CAP).order == FORMAL_ORDER_CAP


def test_constant_terms_at_minus_one_minus_one():
    ctx = RootContext(2, 1, 1, 6)
    left = expand_at_root("comp1-left", ctx)
    right = expand_at_root("comp1-right", ctx)
    three = ctx.field.from_rational(3)
    assert left.constant_term == three
    assert right.constant_term == three


def test_explorer_at_k1_is_the_theorem():
    ctx = RootContext(1, 0, 0, 8)
    report = conjecture_explore(ctx)
    assert report.conj1.outcome == "agreement"
    assert report.conj2.outcome == "agreement"
    one = ctx.field.one
    assert report.constant_terms["left"] == one


def test_explorer_at_minus_one_pair():
    ctx = RootContext(2, 1, 1, 6)
    report = conjecture_explore(ctx)
    assert report.conj1.outcome == "agreement"
    assert str(report.constant_terms["left"]) == str(ctx.field.from_rational(3))
    d = report.to_json_dict()
    assert d["conj1"]["outcome"] == "agreement"


def test_explorer_at_k3():
    ctx = RootContext(3, 1, 1, 4)
    report = conjecture_explore(ctx)
    assert report.conj1.outcome == "agreement"
    assert report.conj2.outcome == "agreement"


def test_certificate_refusal():
    # p0 = i, q0 = -1: p0 * q0^j never equals 1
    ctx = RootContext(4, 1, 2, 4)
    with pytest.raises(CertificateError, match="certificate"):
        expand_at_root("comp1-left", ctx)
    with pytest.raises(CertificateError):
        conjecture_explore(ctx)


def _four_branch_certificate(expr, ctx):
    """The explorer's certificate as it was written per expression before it
    was read off the factors: some j in one scan of 4k steps with
    p0*q0^j = 1 (comp1-left, comp2-first), with that or q0^j = -1
    (comp2-mid), or with p0*q0^j = 1 for an even j (comp2-right);
    comp1-right always holds."""
    one = ctx.field.one

    def hits(c, even_only=False):
        t = c
        for j in range(4 * ctx.k):
            if t == one and not (even_only and j % 2):
                return True
            t = t * ctx.q0
        return False

    if expr in ("comp1-left", "comp2-first"):
        return hits(ctx.p0)
    if expr == "comp1-right":
        return True
    if expr == "comp2-mid":
        return hits(ctx.p0) or hits(-one)
    return hits(ctx.p0, even_only=True)


def test_certificate_matches_the_four_branch_rule():
    """Reading the certificate off the factors of each sum decides every
    explorer point as the per-expression rule did."""
    for k in range(1, CONDUCTOR_CAP + 1):
        for a in range(k):
            for b in range(k):
                ctx = RootContext(k, a, b, 0)
                for expr in ROOT_EXPRS:
                    try:
                        _require_certificate(expr, ctx)
                        holds = True
                    except CertificateError:
                        holds = False
                    assert holds == _four_branch_certificate(expr, ctx), (expr, k, a, b)


def test_comp1_right_certificate_always_holds():
    # same refused point: the right side alone converges (q0 is a root of unity)
    ctx = RootContext(4, 1, 2, 4)
    series = expand_at_root("comp1-right", ctx)
    assert series.trunc == 4


def test_comp2_right_needs_even_exponent_certificate():
    # p0 = -1, q0 = i: p0*q0^(2j) in {-1, 1, ...}: 2j=2 gives q0^2 = -1, p0*q0^2 = 1
    ctx = RootContext(4, 2, 1, 3)
    series = expand_at_root("comp2-right", ctx)
    assert series.trunc == 3
    # p0 = i, q0 = -1: p0*(q0^2)^j = i always; refused
    bad = RootContext(4, 1, 2, 3)
    with pytest.raises(CertificateError):
        expand_at_root("comp2-right", bad)


def test_expansion_at_one_one_reproduces_f1_and_g1():
    """Change of variables p = 1/(1-y), q = 1/(1-x) turns the comp1 sums into
    F1 and F3; p = 1-y, q = 1-x turns the comp2 sums into G1, G2 and G3."""
    N = 8
    ctx = RootContext(1, 0, 0, N)
    one = TruncatedSeries.constant(QQ, 2, N, 1)
    x = TruncatedSeries.variable(QQ, 2, N, 0)
    y = TruncatedSeries.variable(QQ, 2, N, 1)
    inverted = {0: y * (one - y).invert(), 1: x * (one - x).invert()}
    direct = {0: -y, 1: -x}
    for expr, family, shift in (("comp1-left", "F1", inverted),
                                ("comp1-right", "F3", inverted),
                                ("comp2-first", "G1", direct),
                                ("comp2-mid", "G2", direct),
                                ("comp2-right", "G3", direct)):
        series = map_coefficients(expand_at_root(expr, ctx), QQ,
                                  lambda c: c.as_rational())
        got = reference_substitute(series, shift)
        want = map_coefficients(expand_family(family, N), QQ)
        assert got.equal_up_to(want, N).equal, expr


# (k, order, the points (a, b)): every point of Q(zeta_3) and Q(zeta_4), and
# of Q(zeta_12) those with a unit b and a in {0, 1, 5, 6}
BOTH_POINTS_SWEEP = [(3, 9, [(a, b) for a in range(3) for b in range(3)]),
                     (4, 8, [(a, b) for a in range(4) for b in range(4)]),
                     (12, 4, [(a, b) for a in (0, 1, 5, 6) for b in (1, 5, 7, 11)])]


@pytest.mark.parametrize("k,order,points", BOTH_POINTS_SWEEP, ids=["k3", "k4", "k12"])
def test_each_root_expansion_is_the_same_in_both_coordinates(k, order, points):
    """Each certified expression expands to the same series in (u, v),
    summed at the point in any forms, as p - p0 or 1/p - 1/p0 and as q - q0
    or 1/q - 1/q0, and substituted back in each flipped coordinate."""
    checked = 0
    for a, b in points:
        ctx = RootContext(k, a, b, order)
        for expr in ROOT_EXPRS:
            try:
                _require_certificate(expr, ctx)
            except CertificateError:
                continue
            direct, *flipped = (
                expand_sum(COMPACT_SUMS[expr]._replace(inverse=forms), ctx.point())
                for forms in product((False, True), repeat=2))
            assert all(series == direct for series in flipped), (a, b, expr)
            checked += 1
    assert checked >= len(points)


@pytest.mark.parametrize("k,a,b", [(4, 2, 1), (2, 1, 1), (3, 1, 1)])
@pytest.mark.parametrize("expr", ["comp1-left", "comp2-first", "comp2-mid",
                                  "comp2-right"])
def test_constant_term_equals_terminating_value(expr, k, a, b):
    """Wherever a terminating evaluation exists, the expansion's constant
    term must equal it exactly."""
    F = get_field(k)
    ctx = RootContext(k, a, b, 3)
    try:
        series = expand_at_root(expr, ctx)
    except CertificateError:
        pytest.skip("expansion certificate fails at this point")
    try:
        value = evaluate_terminating(expr, F.zeta(a), F.zeta(b))
    except CertificateError:
        pytest.skip("no terminating certificate at this point")
    assert series.constant_term == value


@pytest.mark.parametrize("k", [3, 4, 6, 12])
def test_q_only_sides_match_their_direct_sums(k):
    """Each q-only side, summed by `expand_sum` (which flips q for the right
    side), equals its sum summed directly at (p, q0 + v), with no flip."""
    for a, b in product(range(k), repeat=2):
        ctx = RootContext(k, a, b, 6)
        p, v = (TruncatedSeries.variable(ctx.field, 2, 6, i, PFORMAL_NAMES) for i in (0, 1))
        for side in ("mid", "right"):
            want = truncated_sum(COMPACT_SUMS["comp1-" + side](Point(p, v + ctx.q0)))
            assert expand_q_only(side, ctx) == want, (a, b, side)


def test_q_only_sides_need_only_q0():
    ctx = RootContext(4, 1, 2, 4)   # conj1-refused point; q-only still fine
    mid = expand_q_only("mid", ctx)
    right = expand_q_only("right", ctx)
    assert mid.equal_up_to(right, 4).equal


def test_explorer_at_minus_one_i():
    # p0 = -1, q0 = i: p0*q0^2 = 1, so the left side converges as well
    ctx = RootContext(4, 2, 1, 4)
    report = conjecture_explore(ctx)
    assert report.conj1.outcome == "agreement"
    assert report.conj2.outcome == "agreement"


def test_comp2_mid_converges_via_minus_q_factors():
    """At p0 = zeta_6, q0 = -1 no p0*q0^j ever hits 1, but the (-q; q)
    factors vanish every other step, so the mid expression still expands."""
    ctx = RootContext(6, 1, 3, 3)
    with pytest.raises(CertificateError):
        expand_at_root("comp2-first", ctx)
    series = expand_at_root("comp2-mid", ctx)
    assert series.trunc == 3


def test_unknown_expression_errors():
    from fishburn.errors import UnknownFamilyError
    ctx = RootContext(2, 1, 1, 3)
    with pytest.raises(UnknownFamilyError):
        expand_at_root("comp1-mid", ctx)  # not a root-expansion expression
    with pytest.raises(UnknownFamilyError):
        expand_q_only("left", ctx)
    F = get_field(2)
    with pytest.raises(UnknownFamilyError):
        root_terminating_check("comp1", F.one, F.one)


def test_root_terminating_comp2_at_zeta4():
    F = get_field(4)
    rep = root_terminating_check("comp2-three-way", F.zeta(2), F.zeta(1))
    assert rep.outcome == "verified"
    assert mp.mpf(rep.detail["embedding_diff"]) < mp.mpf("1e-40")
    value = evaluate_terminating("comp2-first", F.zeta(2), F.zeta(1))
    assert value == F.element([1, -2])  # 1 - 2i


def test_root_terminating_comp1_at_zeta3():
    F = get_field(3)
    rep = root_terminating_check("comp1-left-vs-mid", F.zeta(1), F.zeta(1))
    assert rep.outcome == "verified"


def test_root_terminating_at_one_one():
    F = get_field(1)
    rep = root_terminating_check("comp1-left-vs-mid", F.one, F.one)
    assert rep.outcome == "verified"
    assert evaluate_terminating("comp1-left", F.one, F.one) == F.one


def test_root_terminating_refusal():
    F = get_field(4)
    with pytest.raises(CertificateError):
        root_terminating_check("comp2-three-way", F.zeta(1), F.zeta(2))


def test_root_terminating_check_refuses_a_field_beyond_the_cap():
    # the 60-digit embedding check and its 1e-40 bound are set for the
    # conductors up to the cap, so larger fields are refused as in RootContext
    F = get_field(CONDUCTOR_CAP + 1)
    with pytest.raises(ParameterError, match=f"^conductor capped at {CONDUCTOR_CAP}$"):
        root_terminating_check("comp2-three-way", F.zeta(2), F.zeta(1))
    with pytest.raises(ParameterError, match="capped"):
        root_terminating_check("comp2-three-way", get_field(4).zeta(2), F.zeta(1))


# (family, k, a, b) at p = zeta_k^a, q = zeta_k^b for k in 3, 4, 5, 12:
# the number whose sums carry a termination certificate
EMBEDDING_SWEEP_CERTIFIED = {3: 14, 4: 17, 5: 42, 12: 119}


@pytest.mark.parametrize("k", sorted(EMBEDDING_SWEEP_CERTIFIED))
def test_embedding_cross_check_verifies_every_certified_point(k):
    """Every certified point of the field is verified, with the decimal
    re-sum within 1e-40 of the exact values' images."""
    F = get_field(k)
    certified = 0
    for family in ("comp1-left-vs-mid", "comp2-three-way"):
        for a in range(k):
            for b in range(k):
                try:
                    rep = root_terminating_check(family, F.zeta(a), F.zeta(b))
                except CertificateError:
                    continue
                certified += 1
                assert rep.outcome == "verified", (family, a, b)
                assert Decimal(rep.detail["embedding_diff"]) < Decimal("1e-40")
    assert certified == EMBEDDING_SWEEP_CERTIFIED[k]


def _first_value_times_zeta(monkeypatch):
    """Multiply the first exact value by zeta after the exact values were
    compared, just before the embedding cross-check reads them."""
    real = identities._embedding_check

    def first_times_zeta(rep, p, q, values):
        (e, value, count), *rest = values
        return real(rep, p, q, [(e, value * value.field.zeta(), count), *rest])

    monkeypatch.setattr(identities, "_embedding_check", first_times_zeta)


def test_embedding_cross_check_catches_a_value_times_zeta(monkeypatch):
    """The first value, multiplied by zeta after the exact values were
    compared, is refused by the embedding cross-check alone."""
    _first_value_times_zeta(monkeypatch)
    F = get_field(4)
    rep = root_terminating_check("comp2-three-way", F.zeta(2), F.zeta(1))
    assert rep.outcome == "mismatch"
    assert rep.witness["index"] == "embedding"
    assert Decimal(rep.witness["right"]) > 1


@pytest.mark.parametrize("family, k, a, b", [("comp1", 3, 1, 1), ("comp2", 4, 2, 1),
                                             ("comp1", 12, 5, 7)])
def test_verify_terminating_cross_checks_a_cyclotomic_point(monkeypatch, family, k, a, b):
    """verify_terminating itself re-sums the values at a point of Q(zeta_k),
    and the zeta mutant is caught through it."""
    F = get_field(k)
    rep = verify_terminating(family, F.zeta(a), F.zeta(b))
    assert rep.outcome == "verified"
    assert Decimal(rep.detail["embedding_diff"]) < Decimal("1e-40")
    _first_value_times_zeta(monkeypatch)
    rep = verify_terminating(family, F.zeta(a), F.zeta(b))
    assert rep.outcome == "mismatch"
    assert rep.witness["index"] == "embedding"


def test_verify_terminating_takes_a_rational_coordinate_into_the_field():
    """Beside a cyclotomic coordinate a rational one is read in its field, so
    every value is cyclotomic and cross-checked.  At (1, -6) comp1 has one
    term, the first, which stayed rational when only q was cyclotomic."""
    F = get_field(4)
    for p, q in ((F.one, -6), (1, F.from_rational(-6)), (-1, F.zeta(1))):
        rep = verify_terminating("comp1", p, q)
        assert rep.outcome == "verified"
        assert Decimal(rep.detail["embedding_diff"]) < Decimal("1e-40")
        assert all(v.endswith(": k=4)") for v in rep.detail["values"].values())
    assert "embedding_diff" not in verify_terminating("comp1", 1, -6).detail


def _untimed_json(rep):
    out = rep.to_json_dict()
    del out["timing_ms"]
    return out


@pytest.mark.parametrize("k", [3, 4])
def test_root_terminating_check_is_verify_terminating_under_its_own_id(k):
    F = get_field(k)
    for check, family in ROOT_CHECK_FAMILIES.items():
        for a in range(k):
            for b in range(k):
                p, q = F.zeta(a), F.zeta(b)
                try:
                    want = verify_terminating(family, p, q)
                except CertificateError as err:
                    with pytest.raises(CertificateError, match=f"^{re.escape(str(err))}$"):
                        root_terminating_check(check, p, q)
                    continue
                got = root_terminating_check(check, p, q)
                assert (got.id, want.id) == (check, f"{family}-terminating")
                got, want = _untimed_json(got), _untimed_json(want)
                del got["id"], want["id"]
                assert got == want


def _eval_uv_polynomial(series, u_val, v_val, dps):
    with mp.workdps(dps):
        total = mp.mpc(0)
        for (i, j), c in series.terms.items():
            total += mp_image(c, dps) * u_val**i * v_val**j
        return total


def _sum_to_optimal_truncation(term_iter, max_terms=400):
    """Near a root of unity the numeric series is asymptotic: terms shrink
    to a floor and regrow.  Sum to the minimal term (optimal truncation)."""
    best_total = total = mp.mpc(0)
    best_mag = None
    for n, term in enumerate(term_iter):
        total += term
        mag = abs(term)
        if best_mag is None or mag < best_mag:
            best_mag = mag
            best_total = total
        elif mag > 1000 * best_mag or n >= max_terms:
            break
    return best_total, best_mag


def _numeric_comp1_left(p, q):
    def terms():
        prod = mp.mpc(1)
        qpow = mp.mpc(1)
        pinv, qinv = 1 / p, 1 / q
        while True:
            yield prod
            prod *= 1 - pinv * qpow
            qpow *= qinv
    return _sum_to_optimal_truncation(terms())


def _numeric_comp1_right(p, q):
    def terms():
        qinv = 1 / q
        pref = p * qinv
        prod = mp.mpc(1)
        qpow = qinv
        while True:
            yield pref * prod
            prod *= 1 - qpow
            qpow *= qinv
            pref *= p * qinv
    return _sum_to_optimal_truncation(terms())


@pytest.mark.parametrize("numeric_fn,expr", [
    (_numeric_comp1_left, "comp1-left"),
    (_numeric_comp1_right, "comp1-right"),
])
def test_expansion_matches_numeric_evaluation_near_the_point(numeric_fn, expr):
    """Summing the series numerically just off (-1, -1) must agree with the
    exact (u, v)-polynomial, with a residual scaling as the first missing
    degree (the expansions' coefficients grow fast, so the probe offsets are
    kept tiny)."""
    order = 6
    ctx = RootContext(2, 1, 1, order)
    series = expand_at_root(expr, ctx)
    dps = 60
    with mp.workdps(dps):
        diffs = []
        for scale in (mp.mpf("1e-4"), mp.mpf("1e-5")):
            u_val, v_val = scale, 2 * scale
            direct, floor = numeric_fn(mp.mpc(-1 + u_val), mp.mpc(-1 + v_val))
            assert floor < mp.mpf("1e-40")  # truncation floor is negligible
            poly = _eval_uv_polynomial(series, u_val, v_val, dps)
            diffs.append(abs(direct - poly))
        assert diffs[0] < mp.mpf("1e-16")
        assert diffs[1] < mp.mpf("1e-23")
        # the residual must shrink like scale^(order+1) = 1e-7 per decade
        if diffs[1] > 0:
            ratio = diffs[0] / diffs[1]
            assert mp.mpf("1e5") < ratio < mp.mpf("1e9")


def test_q_only_expansion_matches_numeric_evaluation():
    """The p-formal expansion, evaluated at a generic small p and q near q0,
    agrees with direct numeric summation."""
    order = 8
    ctx = RootContext(2, 0, 1, order)   # q0 = -1 (a is unused for q-only)
    mid = expand_q_only("mid", ctx)
    dps = 60
    with mp.workdps(dps):
        p_val = mp.mpf("0.3")
        v_val = mp.mpf("1e-3")
        q = -1 + v_val
        total = mp.mpc(0)
        pa = pb = mp.mpc(1)
        qpow = mp.mpc(1)
        pref = mp.mpc(p_val)
        for _ in range(400):
            total += pref * pa * pb
            pa *= 1 - p_val * qpow
            qpow *= q
            pb *= 1 - qpow
            pref *= q
        poly = _eval_uv_polynomial(mid, p_val, v_val, dps)
        # p-degrees above the truncation are missing from the polynomial;
        # with |p| = 0.3 and order 8 the cut shows up around 0.3^9 ~ 2e-5
        assert abs(total - poly) < mp.mpf("1e-4")
        assert abs(total - poly) > 0  # the bound is about scale, not equality


def test_explorer_agreement_at_k6_point():
    ctx = RootContext(6, 2, 2, 4)   # p0 = q0 = zeta_3; p0*q0^2 = 1
    report = conjecture_explore(ctx)
    assert report.conj1.outcome == "agreement"
    assert report.conj2.outcome == "agreement"


def test_an_explorer_pass_reads_few_bounds_and_adds_int_constants_without_elements(
        monkeypatch):
    """At (12, 6, 1), order 6, fewer than half of the series products read
    a coefficient bound (`_read_bound`, or `_settle` over a denominator), and
    there are fewer bound reads than products: a product keeps the bound
    its slots were sized by, and `operands` reads its operands' bounds only
    when the product would need wider slots than both.  No int constant,
    such as the 1 of each factor 1 - a r^n, makes an element."""
    field = get_field(12)
    reads, made, products, constants = [], [], [], []
    for name in ("_read_bound", "_settle"):
        read = getattr(type(field), name)
        monkeypatch.setattr(type(field), name, lambda *args, read=read: reads.append(1)
                            or read(*args))
    element_init = CyclotomicElement.__init__
    monkeypatch.setattr(CyclotomicElement, "__init__",
                        lambda *args: made.append(1) or element_init(*args))
    mul, plus = TruncatedSeries.__mul__, TruncatedSeries._plus_constant

    def counted_mul(a, b):
        before = len(reads)
        out = mul(a, b)
        products.append(len(reads) > before)
        return out

    def counted_plus(series, keyed, state, scalar):
        before = len(made)
        out = plus(series, keyed, state, scalar)
        if type(scalar) is int:
            constants.append(len(made) - before)
        return out
    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
    monkeypatch.setattr(TruncatedSeries, "_plus_constant", counted_plus)
    report = conjecture_explore(RootContext(12, 6, 1, 6))
    assert report.ok
    assert len(products) > 500 and sum(products) < len(products) / 2
    assert len(reads) < len(products)
    assert len(constants) > 100 and not any(constants)


def test_rational_point_through_cyclotomic_field():
    """(p, q) = (4, 1/2) embedded in Q(zeta_1) gives the same 5/8."""
    F = get_field(1)
    p = F.from_rational(4)
    q = F.from_rational(Fraction(1, 2))
    rep = root_terminating_check("comp2-three-way", p, q)
    assert rep.outcome == "verified"
    assert evaluate_terminating("comp2-first", p, q) == \
        F.from_rational(Fraction(5, 8))
