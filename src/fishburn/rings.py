"""Coefficient rings for truncated series.

Ring elements are plain Python objects supporting the arithmetic operators
(int, Fraction, CyclotomicElement), so series arithmetic works on them
directly.  A ring object supplies everything the operators cannot: coercion,
equality, inversion, and string serialization.  Every ring is exact.

Integers are the default ring (all coefficients of the interval-order series
are integers); rationals appear where a non-unit inversion is required, and
the cyclotomic ring backs root-of-unity expansions.  Cyclotomic elements keep
plain int coordinates while they lie in Z[zeta_k], so those expansions run in
integer arithmetic; a Fraction coordinate appears only after a non-unit
inversion.

A ring also decides how its coefficients enter the series product kernel:
`to_kernel` turns a list of coefficients into kernel values and their
common scale, and `from_kernel` turns kernel values (sums of products of
two operands' values) back into coefficients, given the product of the two
scales.  Kernel values are falsy exactly when they are zero.  Integers and
cyclotomic elements pass through at scale 1; rationals enter as int
numerators over the lcm of their denominators, so the kernel multiplies
ints only.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclotomic import CyclotomicElement, get_field
from .errors import NonInvertibleError


class IntegerRing:
    tag = "ZZ"

    zero = 0
    one = 1

    def from_int(self, n):
        return int(n)

    def coerce(self, x):
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        raise TypeError(f"cannot coerce {x!r} into ZZ")

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def invert(self, a):
        if a in (1, -1):
            return a
        raise NonInvertibleError(f"{a} is not a unit in ZZ")

    def to_kernel(self, coeffs):
        return coeffs, 1

    def from_kernel(self, values, scale):
        return values

    def coeff_to_str(self, a):
        return str(a)

    def coeff_from_str(self, s):
        return int(s)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return "ZZ"


class RationalRing:
    tag = "QQ"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def is_zero(self, a):
        return a == 0

    def eq(self, a, b):
        return a == b

    def invert(self, a):
        if a == 0:
            raise NonInvertibleError("0 is not invertible in QQ")
        return Fraction(1) / a

    def to_kernel(self, coeffs):
        """Int numerators over the lcm of the denominators, and that lcm."""
        den = lcm(*[c.denominator for c in coeffs])
        return [c.numerator * (den // c.denominator) for c in coeffs], den

    def from_kernel(self, values, scale):
        return [Fraction(v, scale) for v in values]

    def coeff_to_str(self, a):
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def coeff_from_str(self, s):
        return Fraction(s)

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return "QQ"


class CyclotomicRing:
    """Q(zeta_k) as a series coefficient ring.

    Coefficients are CyclotomicElement values with canonical coordinates
    (int when integral, Fraction otherwise); `coeff_to_str` writes them as
    comma-joined "num" or "num/den" strings, one per power-basis coordinate.
    """

    def __init__(self, k: int):
        self.k = k
        self.field = get_field(k)
        self.tag = f"QQ(zeta_{k})"
        self.zero = self.field.zero
        self.one = self.field.one

    def from_int(self, n):
        return self.field.from_rational(n)

    def coerce(self, x):
        if isinstance(x, CyclotomicElement):
            if x.field.k != self.k:
                raise TypeError(f"conductor mismatch: {x.field.k} vs {self.k}")
            return x
        if isinstance(x, (int, Fraction)):
            return self.field.from_rational(x)
        raise TypeError(f"cannot coerce {x!r} into {self.tag}")

    def is_zero(self, a):
        return not a

    def eq(self, a, b):
        return a == b

    def invert(self, a):
        if not a:
            raise NonInvertibleError(f"0 is not invertible in {self.tag}")
        return a.inverse()

    def to_kernel(self, coeffs):
        return coeffs, 1

    def from_kernel(self, values, scale):
        return values

    def zeta(self, power=1):
        return self.field.zeta(power)

    def coeff_to_str(self, a):
        rat = RationalRing()
        return ",".join(rat.coeff_to_str(c) for c in a.coeffs)

    def coeff_from_str(self, s):
        return self.field.element([Fraction(part) for part in s.split(",")])

    def __eq__(self, other):
        return isinstance(other, CyclotomicRing) and other.k == self.k

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


ZZ = IntegerRing()
QQ = RationalRing()


def cyclotomic_ring(k: int) -> CyclotomicRing:
    return CyclotomicRing(k)


def ring_from_tag(tag: str):
    """Inverse of the .tag property, for deserialization."""
    if tag == "ZZ":
        return ZZ
    if tag == "QQ":
        return QQ
    if tag.startswith("QQ(zeta_") and tag.endswith(")"):
        return CyclotomicRing(int(tag[len("QQ(zeta_"):-1]))
    raise ValueError(f"unknown ring tag {tag!r}")
