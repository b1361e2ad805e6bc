"""Coefficient rings for truncated series.

Ring elements are plain Python objects supporting the arithmetic operators
(int, Fraction, CyclotomicElement), and each is falsy exactly when it is
zero, so a zero test is `if c:`.  A ring supplies what the numbers cannot
do themselves: coercion (`coerce`, `zero`, `one`), inversion (`invert`),
the exact string form (`coeff_to_str`, `coeff_from_str`) and the stored
form of a series, all under one `tag`.  Every ring is exact, so `==` is
equality; two rings are equal when their tags are.

Integers are the default ring (all coefficients of the interval-order series
are integers), and rationals appear where a non-unit inversion is required.
Q(zeta_k) is its own ring: `cyclotomic.CyclotomicField` carries the same
protocol under the tag "QQ(zeta_k)", and its module docstring explains how
its coordinates are packed.

A series keeps its coefficients in its ring's stored form: ints, which the
series product and sum loops multiply and add, and one state for the whole
series.  `store(coeffs)` gives the values and state of a list of
coefficients and `load(values, state)` gives the coefficients back; the
series calls them only where coefficients come in or are read (the
constructor, `terms`, `constant_term`, `coefficient`, the witness of
`equal_up_to`, and the element recurrence of `invert` over Q(zeta_k)).
Between them no coefficient is made.  A product asks `operands(a,
a_state, b, b_state, pairs)` for both operands in one kernel form, whose
values it multiplies and sums, and `fold(values, state)` for those sums in
stored form.  `operands` also gives back the operands' states, which the
series keeps: over Q(zeta_k), whose states carry a bound, they may carry
a tighter bound read off the values, and over ZZ and QQ they are the
states given.  A sum,
and a comparison, ask `join(a, a_state, b, b_state)` for both operands'
dicts in one form, and a sum then asks `lowest(keyed, state)` for its
result in lowest terms.  An int constant n is added as the value that
`constant(keyed, state, n)` gives, in the form it gives: n den, which
leaves the terms in lowest terms, so no element is made for it.  A zero
kernel value is a zero coefficient, but a nonzero one may fold to zero,
so the series drops values after `fold`.

Rationals are stored as int numerators over one denominator per series,
kept in lowest terms (gcd(den, numerators) = 1), so den is the lcm of the
denominators and equal series store equal values; a product's denominator
is the product of its operands', and a sum's their lcm.  Integers are
stored the same way, over the denominator 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import CONDUCTOR_CAP, fraction_str, get_field, parse_fraction
from .errors import NonInvertibleError


class _Ring:
    """What ZZ and QQ share: equality, hash and repr by tag, the rational
    string form, and the stored form, int numerators over one denominator
    in lowest terms, which over ZZ is 1."""

    def store(self, coeffs):
        den = lcm(*[c.denominator for c in coeffs])
        return [c.numerator * (den // c.denominator) for c in coeffs], den

    def operands(self, a, a_den, b, b_den, pairs):
        return a, b, a_den, b_den, a_den * b_den

    def fold(self, values, den):
        if den != 1:
            g = gcd(den, *values)
            if g != 1:
                return [v // g for v in values], den // g
        return values, den

    def join(self, a, a_den, b, b_den):
        if a_den == b_den:
            return a, b, a_den
        den = lcm(a_den, b_den)
        fa, fb = den // a_den, den // b_den
        return {k: v * fa for k, v in a.items()}, {k: v * fb for k, v in b.items()}, den

    def constant(self, keyed, den, n):
        return keyed, n * den, den

    def lowest(self, keyed, den):
        if den != 1:
            values, low = self.fold(list(keyed.values()), den)
            if low != den:
                return dict(zip(keyed, values)), low
        return keyed, den

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

    def store(self, coeffs):
        return list(coeffs), 1

    def load(self, values, den):
        return values


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

    def load(self, values, den):
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
