"""The stored form of series coefficients against the references on exponent
tuples (series_helpers).

Over QQ a series keeps int numerators over one denominator in lowest terms,
and over Q(zeta_k) packed coordinates over one denominator, in slots whose
width is a multiple of 64 bits.  Products, sums, differences, scaling,
inverses, substitutions, `==` and `equal_up_to` are compared with the
references over QQ, Q(zeta_3) and Q(zeta_12), with coefficients whose
numerators or coordinates straddle the slot edges (2^60 to 2^66 and 2^124
to 2^130) or reach 300 bits, of both signs, and with operands stored at
different widths.  Int constants are added to series at every width, over
QQ with a denominator other than 1 and over Q(zeta_k), and a chain of
products in the pattern of a sum's terms, t (zeta^j + x) (1 - a r^n),
carries the bounds a product is sized by from one product to the next.  A
kernel whose slots are one word too narrow fails the same comparisons.
"""

import random
from fractions import Fraction

import pytest

from fishburn import cyclotomic
from fishburn.cyclotomic import get_field
from fishburn.rings import QQ
from fishburn.series import TruncatedSeries
from series_helpers import (reference_add, reference_equal_up_to, reference_invert,
                            reference_mul, reference_substitute)

RINGS = [QQ, get_field(3), get_field(12)]
# exponents of the largest coefficient parts: around the first and second
# slot edges, and 300 bits
EDGE_BITS = [*range(60, 67), *range(124, 131), 300]
TRUNC = 4


def _number(rng, bits):
    """A signed int of about `bits` bits, at or near a power of two."""
    return rng.choice((-1, 1)) * ((1 << bits) + rng.randint(-2, 2))


def _coefficient(ring, rng, bits):
    """A nonzero coefficient whose largest part has about `bits` bits, with
    a small denominator half the time."""
    den = rng.choice((1, 1, 3, 4))
    if ring == QQ:
        return Fraction(_number(rng, bits), den)
    coords = [rng.choice((_number(rng, bits), rng.randint(-3, 3), 0))
              for _ in range(ring.degree)]
    coords[rng.randrange(ring.degree)] = _number(rng, bits)
    return ring.element([Fraction(c, den) for c in coords])


def _series(ring, rng, bits, unit=False):
    """A random series of about half the monomials below the cut, with
    coefficients of about `bits` bits; with `unit`, a constant term of 1."""
    exps = [(i, j) for i in range(TRUNC + 1) for j in range(TRUNC + 1 - i)]
    terms = {e: _coefficient(ring, rng, bits) for e in exps if rng.random() < 0.5}
    if unit:
        terms[(0, 0)] = ring.one
    return TruncatedSeries(ring, 2, TRUNC, terms)


def _width(series):
    return series._state[0]


def _pairs(ring, seed):
    """Operand pairs with coefficient sizes on each side of every edge, so
    that over Q(zeta_k) the operands are stored at different widths."""
    rng = random.Random(seed)
    for bits in EDGE_BITS:
        yield _series(ring, rng, bits), _series(ring, rng, rng.choice(EDGE_BITS))
        yield _series(ring, rng, bits), _series(ring, rng, 3)


def _check_arithmetic(ring, seed):
    """Each operation of each pair against its reference; the first
    mismatch is returned, None when all agree."""
    for a, b in _pairs(ring, seed):
        scalar = next(iter(b.terms.values()), ring.one)
        checks = [
            ("product", (a * b).terms, reference_mul(a, b)),
            ("sum", (a + b).terms, reference_add(a, b)),
            ("difference", (a - b).terms, reference_add(a, -b)),
            ("negation", (-a).terms, {e: -c for e, c in a.terms.items()}),
            ("scale", a.scale(scalar).terms, {e: c * scalar for e, c in a.terms.items()}),
            ("plus constant", (a + scalar).terms,
             reference_add(a, TruncatedSeries.constant(ring, 2, TRUNC, scalar))),
        ]
        for name, got, want in checks:
            if got != want:
                return name
    return None


def _constant(ring, n):
    return TruncatedSeries.constant(ring, 2, TRUNC, n)


def _check_constants(ring, seed):
    """Int constants at the slot edges added to series at each width, over
    a denominator other than 1, on either side, one of them cancelling the
    constant term, and each sum then multiplied, against the references;
    the first mismatch is returned, None when all agree."""
    rng = random.Random(seed)
    for bits in [3, *EDGE_BITS]:
        m = _number(rng, bits)
        a = _series(ring, rng, bits) + _constant(ring, Fraction(1, 3)) * _series(ring, rng, 3)
        a += m - a.constant_term  # an int constant term m, over a denominator
        b = _series(ring, rng, rng.choice(EDGE_BITS))
        for n in (_number(rng, rng.choice(EDGE_BITS)), -m):
            sums = [("plus int", a + n, reference_add(a, _constant(ring, n))),
                    ("int plus", n + a, reference_add(_constant(ring, n), a)),
                    ("minus int", a - n, reference_add(a, _constant(ring, -n))),
                    ("int minus", n - a, reference_add(_constant(ring, n), -a))]
            for name, got, want in sums:
                if got.terms != want:
                    return name
                if (got * b).terms != reference_mul(TruncatedSeries(ring, 2, TRUNC, want), b):
                    return name + " times"
        if (0, 0) in (a - m).terms:
            return "cancelled constant"
    return None


def _check_chain(ring, seed):
    """t <- t (zeta^j + x), then t <- t (1 - a r^n) with a = zeta^i + x and
    r = zeta + y, as a sum's terms are made: 40 products, each compared
    with the reference product of its operands; the first mismatch is
    returned, None when all agree."""
    rng = random.Random(seed)
    x, y = (TruncatedSeries.variable(ring, 2, TRUNC, i) for i in (0, 1))
    r = y + ring.zeta()
    t, rn = _series(ring, rng, 60, unit=True), _constant(ring, 1)
    for step in range(20):
        a = x + ring.zeta(rng.randrange(ring.k))
        rn = rn * r
        for factor in (x + ring.zeta(step), 1 - a * rn):
            got = t * factor
            if got.terms != reference_mul(t, factor):
                return f"product {step}"
            t = got
    return None


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_arithmetic_at_the_slot_edges_matches_the_references(ring):
    assert _check_arithmetic(ring, 35) is None


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_int_constants_at_the_slot_edges_match_the_references(ring):
    assert _check_constants(ring, 38) is None


@pytest.mark.parametrize("ring", RINGS[1:], ids=repr)
def test_a_chain_of_products_carries_its_bounds_exactly(ring):
    assert _check_chain(ring, 39) is None


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_invert_and_substitute_at_the_slot_edges_match_the_references(ring):
    rng = random.Random(36)
    for bits in EDGE_BITS[::3]:
        a = _series(ring, rng, bits, unit=True)
        assert a.invert().terms == reference_invert(a)
        x = TruncatedSeries.variable(ring, 2, TRUNC, 0)
        shift = x * _series(ring, rng, bits, unit=True).substitute(
            {1: TruncatedSeries.zero(ring, 2, TRUNC)})  # a series in x alone
        assert a.substitute({0: shift}).terms == reference_substitute(a, {0: shift}).terms


@pytest.mark.parametrize("ring", RINGS[1:], ids=repr)
def test_equal_series_at_different_widths_compare_equal(ring):
    """A series that passed through a wide slot compares equal to itself
    stored narrow, and a difference is found with both coefficients."""
    rng = random.Random(37)
    a = _series(ring, rng, 20)
    big = _series(ring, rng, 300)
    widened = (a + big) - big
    assert _width(widened) > _width(a)
    assert widened == a and widened.terms == a.terms
    assert widened.equal_up_to(a, TRUNC) == reference_equal_up_to(widened, a, TRUNC)
    changed = widened + TruncatedSeries(ring, 2, TRUNC, {(1, 2): ring.one})
    assert changed != a
    for order in range(TRUNC + 1):
        for left, right in ((changed, a), (a, changed)):
            assert left.equal_up_to(right, order) == reference_equal_up_to(left, right, order)


def test_a_wide_value_that_folds_to_zero_is_dropped():
    """The x coefficient of B (1 + zeta x) * B (zeta + (1 + zeta) x) in
    Q(zeta_3), B = 2^127, is B^2 (1 + zeta + zeta^2): a nonzero kernel value
    in slots of 320 bits that Phi_3 folds to 0."""
    ring = get_field(3)
    zeta, big = ring.zeta(), 1 << 127
    a = TruncatedSeries(ring, 1, 2, {(0,): ring.one * big, (1,): zeta * big})
    b = TruncatedSeries(ring, 1, 2, {(0,): zeta * big, (1,): (1 + zeta) * big})
    got = a * b
    assert _width(got) > 128
    assert (1,) not in got.terms and got.terms == reference_mul(a, b)


@pytest.mark.parametrize("ring", RINGS[1:], ids=repr)
def test_a_product_reads_its_operands_bounds_only_when_its_slots_widen(ring, monkeypatch):
    """A product whose slots fit in its operands' widths reads no bound, so
    s^8, made by squaring, keeps the bound its last slots were sized for,
    far above its coordinates.  The product of two such powers would need
    wider slots: `operands` reads each operand's bound once, off its
    values, and the operands keep the bounds read, so the same product
    again reads none."""
    reads = []
    read = type(ring)._read_bound
    monkeypatch.setattr(type(ring), "_read_bound",
                        lambda field, values, state: reads.append(state)
                        or read(field, values, state))

    def eighth_power(seed):
        rng = random.Random(seed)
        s = TruncatedSeries(ring, 2, TRUNC, {
            (i, j): ring.element([rng.choice((-1, 1)) for _ in range(ring.degree)])
            for i in range(TRUNC + 1) for j in range(TRUNC + 1 - i)})
        for _ in range(3):
            s = s * s
        return s
    a, b = eighth_power(40), eighth_power(41)
    assert not reads and _width(a) == _width(b) == 64
    kept = a._state, b._state
    assert min(kept[0][2], kept[1][2]) > 1 << 32  # a product of both needs 128-bit slots
    got = a * b
    assert reads == list(kept)
    for series, state in zip((a, b), kept):
        coords = [abs(c) for value in series.terms.values() for c in value.coeffs]
        assert series._state == (64, 1, series._state[2])
        assert max(coords) <= series._state[2] <= 3 * max(coords) < state[2]
    assert got.terms == reference_mul(a, b) and _width(got) == 64
    again = a * b
    assert reads == list(kept) and again == got


def _narrow_slots_fail(monkeypatch, check, seed):
    """Whether `check` over Q(zeta_12) fails with slots one word too
    narrow, and passes once the width is restored."""
    width = cyclotomic._width
    monkeypatch.setattr(cyclotomic, "_width", lambda bound: max(64, width(bound) - 64))
    try:
        failure = check(get_field(12), seed)
    except OverflowError:
        failure = "overflow"
    monkeypatch.undo()
    return failure is not None and check(get_field(12), seed) is None


def test_a_slot_one_word_too_narrow_fails(monkeypatch):
    """With every slot width 64 bits less than the one chosen (but at least
    64), the comparisons over Q(zeta_12) fail, by a wrong coefficient or a
    value too wide for its slots: the edge cases are sharp."""
    assert _narrow_slots_fail(monkeypatch, _check_arithmetic, 35)


@pytest.mark.parametrize("check, seed", [(_check_constants, 38), (_check_chain, 39)],
                         ids=["constants", "chain"])
def test_int_constants_and_product_chains_fail_in_slots_one_word_too_narrow(monkeypatch,
                                                                             check, seed):
    assert _narrow_slots_fail(monkeypatch, check, seed)
