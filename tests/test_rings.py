"""Coefficient ring contracts."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from fishburn.errors import NonInvertibleError
from fishburn.cyclotomic import get_field
from fishburn.rings import QQ, ZZ, ring_from_tag


def test_integer_ring_units():
    assert ZZ.invert(1) == 1 and ZZ.invert(-1) == -1
    with pytest.raises(NonInvertibleError):
        ZZ.invert(2)
    assert ZZ.coerce(Fraction(4)) == 4
    with pytest.raises(TypeError):
        ZZ.coerce(Fraction(1, 2))


def test_rational_ring():
    assert QQ.invert(Fraction(3, 7)) == Fraction(7, 3)
    with pytest.raises(NonInvertibleError):
        QQ.invert(Fraction(0))
    assert QQ.coeff_to_str(Fraction(-5, 3)) == "-5/3"
    assert QQ.coeff_from_str("-5/3") == Fraction(-5, 3)
    assert QQ.coeff_to_str(Fraction(4)) == "4"


def test_cyclotomic_ring_roundtrip():
    ring = get_field(4)
    z = ring.zeta()
    s = ring.coeff_to_str(z)
    assert ring.coeff_from_str(s) == z
    assert ring.invert(z) == z ** 3  # 1/i = -i = i^3


def test_ring_equality_and_tags():
    assert ZZ == ring_from_tag("ZZ")
    assert QQ == ring_from_tag("QQ")
    assert get_field(6) == ring_from_tag("QQ(zeta_6)")
    assert hash(get_field(6)) == hash(ring_from_tag("QQ(zeta_6)"))
    assert get_field(6) != get_field(5)
    assert ZZ != QQ
    assert QQ != get_field(1)
    for ring in (ZZ, QQ, get_field(6)):
        assert ring != ring.tag and ring.tag != ring
    with pytest.raises(ValueError):
        ring_from_tag("GF(7)")


@pytest.mark.parametrize("k", [*range(1, 13), 15, 21, 30])
def test_packed_fold_matches_reduce_at_the_slot_bound(k):
    """Kernel values whose unreduced coordinates reach the bound that
    `operands` sizes its slots for, phi max|a| max|b| min(#a, #b), fold in
    packed form to the coordinates `_reduce` gives.  The bound sits just
    below a power of two, where the slots have the least room; conductors
    15, 21 and 30 fold with gains 6, 7 and 6."""
    ring = get_field(k)
    d = ring.degree
    rng = random.Random(k)
    terms = rng.randint(1, 5)
    top = isqrt((2 ** rng.randint(30, 60) - 1) // (d * terms))
    values, stored = ring.store([ring.element([top] + [-top] * (d - 1))] * terms)
    *_, state = ring.operands(values, stored, values, stored, terms)
    width, bound = state[0], d * top * top * terms
    cases = [[rng.choice((-bound, bound, rng.randint(-bound, bound)))
              for _ in range(2 * d - 1)] for _ in range(50)]
    # the worst case of each folded coordinate: every term pushes it one way
    powers = [ring._reduce([0] * j + [1]) for j in range(2 * d - 1)]
    for i in range(d):
        worst = [bound if row[i] >= 0 else -bound for row in powers]
        cases += [worst, [-c for c in worst]]
    for coords in cases:
        packed = sum(c << (width * j) for j, c in enumerate(coords))
        folded, folded_state = ring.fold([packed], state)
        assert ring.load(folded, folded_state)[0].coeffs == ring._reduce(coords)
