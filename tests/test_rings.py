"""Coefficient ring contracts."""

from fractions import Fraction

import pytest

from fishburn.errors import NonInvertibleError
from fishburn.rings import QQ, ZZ, cyclotomic_ring, ring_from_tag


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
    ring = cyclotomic_ring(4)
    z = ring.field.zeta()
    s = ring.coeff_to_str(z)
    assert ring.coeff_from_str(s) == z
    assert ring.invert(z) == z ** 3  # 1/i = -i = i^3


def test_ring_equality_and_tags():
    assert ZZ == ring_from_tag("ZZ")
    assert QQ == ring_from_tag("QQ")
    assert cyclotomic_ring(6) == ring_from_tag("QQ(zeta_6)")
    assert cyclotomic_ring(6) != cyclotomic_ring(5)
    with pytest.raises(ValueError):
        ring_from_tag("GF(7)")
