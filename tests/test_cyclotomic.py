"""Cyclotomic field arithmetic and the complex embedding."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from count_helpers import euler_phi
from fishburn.cyclotomic import CONDUCTOR_CAP, cyclotomic_polynomial, decimal_context, get_field
from fishburn.errors import NonInvertibleError
from numeric_helpers import mp_image


KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("k,coeffs", sorted(KNOWN_POLYS.items()))
def test_cyclotomic_polynomials(k, coeffs):
    assert cyclotomic_polynomial(k) == coeffs


@pytest.mark.parametrize("k", range(1, 13))
def test_degree_is_euler_phi(k):
    assert len(cyclotomic_polynomial(k)) - 1 == euler_phi(k)


@pytest.mark.parametrize("k", [0, -3])
def test_field_below_conductor_one_is_refused(k):
    with pytest.raises(ValueError, match="^conductor must be >= 1$"):
        get_field(k)


def test_k1_is_rationals():
    F = get_field(1)
    assert F.zeta() == F.one
    e = F.from_rational(Fraction(3, 7))
    assert (e * e.inverse()) == F.one
    assert e.as_rational() == Fraction(3, 7)


def test_k2_zeta_is_minus_one():
    F = get_field(2)
    z = F.zeta()
    assert z == F.from_rational(-1)
    assert (F.one + z) == F.zero


def test_k3_norm():
    F = get_field(3)
    z = F.zeta()
    # zeta^2 + zeta + 1 = 0 and (1 - zeta)(1 - zeta^2) = 3
    assert z * z + z + 1 == F.zero
    prod = (F.one - z) * (F.one - z ** 2)
    assert prod == F.from_rational(3)
    inv = (F.one - z).inverse()
    assert inv * (F.one - z) == F.one


def test_zeta_power_wraps():
    F = get_field(5)
    assert F.zeta(7) == F.zeta(2)
    assert F.zeta(5) == F.one


def _trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _divmod_over_q(num, den):
    """Quotient and remainder of polynomials over Q (coefficient lists,
    ascending)."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in reversed(range(len(quot))):
        q = quot[shift] = Fraction(num[shift + len(den) - 1]) / den[-1]
        for i, d in enumerate(den):
            num[shift + i] -= q * d
    return quot, _trim(num[:len(den) - 1])


def euclid_inverse(field, coeffs):
    """The inverse coordinates of a nonzero element by extended Euclid on
    (its residue polynomial, Phi_k) over Q[x]: the reference route for the
    conjugate product of `CyclotomicElement.inverse`."""
    r0, r1 = list(field.modulus), _trim(list(coeffs))
    s0, s1 = [], [1]  # Bezout coefficients of the second argument
    while True:
        q, rem = _divmod_over_q(r0, r1)
        if not rem:
            break
        s_next = list(s0) + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(q):
            for j, sj in enumerate(s1):
                s_next[i + j] -= qi * sj
        r0, r1, s0, s1 = r1, rem, s1, _trim(s_next)
    assert len(r1) == 1  # Phi_k is irreducible, so the gcd is a unit
    return [c / Fraction(r1[0]) for c in s1]


@pytest.mark.parametrize("k", [*range(1, 13), 15, 21, 30])
def test_random_nonzero_elements_invert(k):
    F = get_field(k)
    rng = random.Random(100 + k)
    big = (2**200, -2**200)
    for n in range(50):
        coeffs = [rng.choice(big) if n % 2 and rng.random() < 0.5 else
                  Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(F.degree)]
        e = F.element(coeffs)
        if not e:
            continue
        inverse = e.inverse()
        assert inverse == F.element(euclid_inverse(F, e.coeffs))
        assert e * inverse == F.one


@pytest.mark.parametrize("k", range(1, CONDUCTOR_CAP + 1))
def test_unit_monomial_inverse_matches_the_norm_inverse(k):
    """1/(+-zeta^j), read off the table of units, is the general inverse
    (the conjugate product over the norm) for every j and both signs."""
    F = get_field(k)
    for j in range(k):
        for x in (F.zeta(j), -F.zeta(j)):
            inverse = x.inverse()
            assert inverse.coeffs == x._norm_inverse().coeffs
            assert x * inverse == F.one


def test_zero_has_no_inverse():
    F = get_field(4)
    with pytest.raises(NonInvertibleError):
        F.zero.inverse()


def test_conductor_mismatch_rejected():
    a = get_field(3).zeta()
    b = get_field(4).zeta()
    with pytest.raises(ValueError, match="conductor"):
        a + b


@pytest.mark.parametrize("k", [2, 3, 4, 6, 8, 12])
def test_embedding_consistency(k):
    """Exact products agree with their 60-digit complex images."""
    F = get_field(k)
    rng = random.Random(9 + k)
    with mp.workdps(60):
        for _ in range(10):
            a = F.element([rng.randint(-3, 3) for _ in range(F.degree)])
            b = F.element([rng.randint(-3, 3) for _ in range(F.degree)])
            exact = mp_image(a * b, 60)
            numeric = mp_image(a, 60) * mp_image(b, 60)
            assert abs(exact - numeric) < mp.mpf("1e-40")


def test_embedding_of_primitive_root():
    F = get_field(8)
    with mp.workdps(60):
        z = mp_image(F.zeta(), 60)
        assert abs(z ** 8 - 1) < mp.mpf("1e-50")
        assert abs(z ** 4 + 1) < mp.mpf("1e-50")


@pytest.mark.parametrize("k", range(1, CONDUCTOR_CAP + 1))
def test_decimal_embedding_matches_the_mpmath_image(k):
    """The decimal image of random elements, integral and fractional, equals
    the mpmath image to 1e-55, at the 65 digits the roots cross-check uses."""
    F = get_field(k)
    rng = random.Random(31 + k)
    elements = [F.zeta(j) for j in range(k)]
    elements += [F.element([Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
                            for _ in range(F.degree)]) for _ in range(20)]
    with mp.workdps(80):
        for x in elements:
            with decimal_context(60):
                image = x.embed()
            assert abs(mp.mpc(str(image.re), str(image.im)) - mp_image(x, 80)) < mp.mpf("1e-55")


# -- int coordinates: differential and property tests -------------------------


def reference_mul(k, a, b):
    """Schoolbook product over Fraction reduced through the table of
    x^j mod Phi_k -- the kernel the int coordinates replaced."""
    modulus = cyclotomic_polynomial(k)
    d = len(modulus) - 1
    table = []
    for j in range(2 * d - 1):
        if j < d:
            row = [Fraction(0)] * d
            row[j] = Fraction(1)
        else:
            prev = table[j - 1]
            row = [Fraction(0)] + list(prev[: d - 1])
            for i in range(d):
                row[i] -= prev[d - 1] * modulus[i]
        table.append(row)
    prod = [Fraction(0)] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += Fraction(ai) * Fraction(bj)
    out = [Fraction(0)] * d
    for j, c in enumerate(prod):
        for i in range(d):
            out[i] += c * table[j][i]
    return tuple(out)


def is_canonical(e):
    return all(type(c) is int if Fraction(c).denominator == 1 else type(c) is Fraction
               for c in e.coeffs)


conductors = st.integers(min_value=1, max_value=12)
integral_coords = st.integers(min_value=-2**70, max_value=2**70)
rational_coords = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12))


@st.composite
def elements(draw, k, coords=rational_coords):
    F = get_field(k)
    return F.element(draw(st.lists(coords, min_size=F.degree, max_size=F.degree)))


@st.composite
def field_and_elements(draw, count, coords=rational_coords):
    k = draw(conductors)
    return k, [draw(elements(k, coords)) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(field_and_elements(2), field_and_elements(2, integral_coords)))
def test_mul_matches_fraction_reference(drawn):
    k, (a, b) = drawn
    prod = a * b
    assert prod.coeffs == reference_mul(k, a.coeffs, b.coeffs)
    assert is_canonical(prod) and is_canonical(a + b) and is_canonical(a - b)


@settings(max_examples=200, deadline=None)
@given(field_and_elements(2, integral_coords))
def test_integral_arithmetic_stays_int(drawn):
    _, (a, b) = drawn
    for e in (a, b, a * b, a + b, a - b, -a, a * 3, a ** 3):
        assert all(type(c) is int for c in e.coeffs)


@settings(max_examples=150, deadline=None)
@given(field_and_elements(3))
def test_ring_laws(drawn):
    _, (a, b, c) = drawn
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if a:
        inv = a.inverse()
        assert is_canonical(inv)
        assert a * inv == 1


def test_integral_fractions_become_ints():
    F = get_field(12)
    half = F.element([Fraction(1, 2), Fraction(3, 2)])
    total = half + half
    assert total.coeffs == (1, 3, 0, 0)
    assert all(type(c) is int for c in total.coeffs)
    assert all(type(c) is int for c in F.element([Fraction(4, 2), 2.0]).coeffs)
    assert all(type(c) is int for c in (F.zeta() ** 5).coeffs)


def test_unit_inverse_is_integral():
    F = get_field(5)
    unit = F.one + F.zeta()  # 1 + zeta is a unit for prime conductor
    assert all(type(c) is int for c in unit.inverse().coeffs)
    non_unit = F.one - F.zeta()  # norm 5
    assert any(type(c) is Fraction for c in non_unit.inverse().coeffs)


def test_repr_past_the_int_string_digit_limit():
    assert repr(get_field(3).element([10**5000, 1])) == f"(1{'0' * 5000} + z : k=3)"


def test_payload_strings_unchanged():
    ring = get_field(12)
    e = ring.element([Fraction(4, 2), Fraction(-1, 3), 0, 7])
    assert ring.coeff_to_str(e) == "2,-1/3,0,7"
    assert ring.coeff_from_str("2,-1/3,0,7") == e


# -- hash/equality contract ----------------------------------------------------


def test_rational_elements_hash_like_their_value():
    F = get_field(4)
    assert F.one in {1}
    assert F.zero in {0}
    assert 1 in {F.one}
    assert hash(F.from_rational(Fraction(3, 7))) == hash(Fraction(3, 7))
    assert hash(get_field(1).from_rational(-5)) == hash(-5)
    assert len({F.one, get_field(3).one, 1, Fraction(1)}) == 1


def test_equality_across_conductors_meets_in_q():
    assert get_field(3).from_rational(2) == get_field(4).from_rational(2)
    assert get_field(3).zeta() != get_field(4).zeta()
    assert get_field(3).one != get_field(4).zeta()


@settings(max_examples=100, deadline=None)
@given(field_and_elements(2))
def test_equal_elements_hash_equal(drawn):
    k, (a, b) = drawn
    copy = get_field(k).element(list(a.coeffs))
    assert a == copy and hash(a) == hash(copy)
    if a.is_rational():
        assert hash(a) == hash(a.as_rational())
