"""Coefficient rings for truncated series.

Ring elements are plain Python objects supporting the arithmetic operators
(int, Fraction, CyclotomicElement), so series arithmetic works on them
directly, and each is falsy exactly when it is zero, so a zero test is
`if c:`.  A ring supplies only what the numbers cannot do themselves:
coercion (`coerce`, `zero`, `one`), inversion (`invert`), the kernel pair
(`to_kernel`, `from_kernel`) and the exact string form (`coeff_to_str`,
`coeff_from_str`), all under one `tag`.  Every ring is exact, so `==` is
equality; two rings are equal when their tags are.

Integers are the default ring (all coefficients of the interval-order series
are integers), and rationals appear where a non-unit inversion is required.
Q(zeta_k) is its own ring: `cyclotomic.CyclotomicField` carries the same
protocol under the tag "QQ(zeta_k)", and its module docstring explains how
its coordinates enter the product kernel.

A ring decides how its coefficients enter the series product kernel, which
multiplies and adds ints only.  `to_kernel(a, b)` takes the coefficient
lists of both operands and returns their kernel values and a state;
`from_kernel(values, state)` turns kernel values (sums of products of one
value of each operand) back into coefficients.  A zero kernel value is a
zero coefficient, but a nonzero one may turn into zero, so the series drops
coefficients after `from_kernel`.  Integers pass through.  Rationals enter
as int numerators over the lcm of each operand's denominators; the state is
the product of the two lcms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .cyclotomic import CONDUCTOR_CAP, fraction_str, get_field, parse_fraction
from .errors import NonInvertibleError


def _over_lcm(coeffs):
    """Rational `coeffs` as int numerators over the lcm of their
    denominators, and that lcm."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class _Ring:
    """What ZZ and QQ share: equality, hash and repr by tag, the rational
    string form, and kernel values that are the coefficients themselves."""

    def to_kernel(self, a, b):
        return a, b, None

    def from_kernel(self, values, state):
        return values

    def coeff_to_str(self, a):
        return fraction_str(a)

    def coeff_from_str(self, s):
        return self.coerce(parse_fraction(s))

    def __eq__(self, other):
        return isinstance(other, _Ring) and other.tag == self.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


class IntegerRing(_Ring):
    tag = "ZZ"

    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        raise TypeError(f"cannot coerce {x!r} into ZZ")

    def invert(self, a):
        if a in (1, -1):
            return a
        raise NonInvertibleError(f"{a} is not a unit in ZZ")


class RationalRing(_Ring):
    tag = "QQ"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def invert(self, a):
        if not a:
            raise NonInvertibleError("0 is not invertible in QQ")
        return Fraction(1) / a

    def to_kernel(self, a, b):
        """Each operand as int numerators over the lcm of its denominators;
        the state is the product of the two lcms."""
        a, a_den = _over_lcm(a)
        b, b_den = _over_lcm(b)
        return a, b, a_den * b_den

    def from_kernel(self, values, den):
        return [Fraction(v, den) for v in values]


ZZ = IntegerRing()
QQ = RationalRing()


def ring_from_tag(tag: str):
    """Inverse of the .tag property, for deserialization; a conductor above
    CONDUCTOR_CAP is refused before its field is built."""
    if tag == "ZZ":
        return ZZ
    if tag == "QQ":
        return QQ
    # the conductor is a decimal as .tag writes it: no sign, space,
    # underscore or leading zero
    if match := re.fullmatch(r"QQ\(zeta_(0|[1-9][0-9]*)\)", tag):
        k = int(match[1])
        if not 1 <= k <= CONDUCTOR_CAP:
            raise ValueError(f"conductor {k} of {tag!r} is outside 1..{CONDUCTOR_CAP}")
        return get_field(k)
    raise ValueError(f"unknown ring tag {tag!r}")
