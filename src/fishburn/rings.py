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
are integers); rationals appear where a non-unit inversion is required, and
the cyclotomic ring backs root-of-unity expansions.  Cyclotomic elements keep
plain int coordinates while they lie in Z[zeta_k], so those expansions run in
integer arithmetic; a Fraction coordinate appears only after a non-unit
inversion.

A ring also decides how its coefficients enter the series product kernel,
which multiplies and adds ints only.  `to_kernel(a, b)` takes the
coefficient lists of both operands and returns their kernel values and a
state; `from_kernel(values, state)` turns kernel values (sums of products of
one value of each operand) back into coefficients.  A zero kernel value is
a zero coefficient, but a nonzero one may turn into zero, so the series
drops coefficients after `from_kernel`.

- Integers pass through.
- Rationals enter as int numerators over the lcm of each operand's
  denominators; the state is the product of the two lcms.
- A cyclotomic operand is brought onto the lcm of its coordinate
  denominators, and its int coordinate vector (c_0..c_{phi-1}) is packed
  into the one int sum_i c_i 2^(B i) (a Kronecker substitution).  The
  product of two packed values is then the packed, unreduced product
  polynomial of 2 phi - 1 coordinates evaluated at 2^B, and sums of such
  products stay packed.  A coordinate of a kernel value is a sum of at most
  phi products per term pair and of at most min(#a, #b) term pairs, so
  |coordinate| <= phi max|a| max|b| min(#a, #b); folding by Phi_k
  multiplies that bound by at most the field's `fold_gain`.  The slot width
  B keeps the folded coordinates below 2^(B-3).  `from_kernel` then folds
  each value in packed form, as its centred residue modulo Phi_k(2^B),
  which is the folded polynomial at 2^B exactly because its coordinates are
  that small; it unpacks the phi signed coordinates and divides by the
  product of the two lcms.  So the folding runs once per kept coefficient
  rather than once per term pair, and a value such as 1 + zeta_3 + zeta_3^2
  is nonzero until it is folded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm

from .cyclotomic import CyclotomicElement, fraction_str, get_field, parse_fraction
from .errors import NonInvertibleError


def _over_lcm(coeffs):
    """Rational `coeffs` as int numerators over the lcm of their
    denominators, and that lcm."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _pack(vecs, width):
    """Each coordinate vector (c_0, c_1, ...) as the int sum_i c_i 2^(width i)."""
    packed = []
    for vec in vecs:
        p = 0
        for c in reversed(vec):
            p = (p << width) + c
        packed.append(p)
    return packed


class _Ring:
    """What every ring shares: equality, hash and repr by tag, the rational
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


class CyclotomicRing(_Ring):
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

    def coerce(self, x):
        if isinstance(x, CyclotomicElement):
            if x.field.k != self.k:
                raise TypeError(f"conductor mismatch: {x.field.k} vs {self.k}")
            return x
        if isinstance(x, (int, Fraction)):
            return self.field.from_rational(x)
        raise TypeError(f"cannot coerce {x!r} into {self.tag}")

    def invert(self, a):
        if not a:
            raise NonInvertibleError(f"0 is not invertible in {self.tag}")
        return a.inverse()

    def to_kernel(self, a, b):
        """Each operand's coordinate vectors, over the lcm of its coordinate
        denominators, packed into ints with slots of one width B; the state
        is (B, Phi_k(2^B), the product of the two lcms)."""
        field = self.field
        a, a_den, a_max = self._scaled(a)
        b, b_den, b_max = self._scaled(b)
        folded = field.fold_gain * field.degree * a_max * b_max * min(len(a), len(b))
        width = folded.bit_length() + 3
        modulus = sum(m << (width * i) for i, m in enumerate(field.modulus))
        return _pack(a, width), _pack(b, width), (width, modulus, a_den * b_den)

    def from_kernel(self, values, state):
        """Fold each value by Phi_k in packed form, as its centred residue
        modulo Phi_k(2^B), unpack its phi signed coordinates and divide by
        the scale."""
        width, modulus, den = state
        field = self.field
        shifts = range(0, field.degree * width, width)
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        centre = modulus >> 1
        # adding half to every slot makes each one nonnegative, so no slot
        # borrows from the next and each reads off with a shift and a mask
        bias = sum(half << s for s in shifts)
        out = []
        for v in values:
            v %= modulus
            if v > centre:
                v -= modulus
            v += bias
            coords = tuple([((v >> s) & mask) - half for s in shifts])
            out.append(CyclotomicElement(field, coords) if den == 1 else
                       field.element([Fraction(c, den) for c in coords]))
        return out

    def _scaled(self, coeffs):
        """The coordinate vectors of `coeffs` as ints over the lcm of their
        denominators, that lcm, and the largest absolute coordinate."""
        vecs = [c.coeffs for c in coeffs]
        den = lcm(*[x.denominator for v in vecs for x in v if type(x) is not int])
        if den != 1:
            vecs = [[x.numerator * (den // x.denominator) for x in v] for v in vecs]
        return vecs, den, max(map(abs, chain.from_iterable(vecs)), default=0)

    def coeff_to_str(self, a):
        return ",".join(map(fraction_str, a.coeffs))

    def coeff_from_str(self, s):
        return self.field.element([parse_fraction(part) for part in s.split(",")])


ZZ = IntegerRing()
QQ = RationalRing()


def ring_from_tag(tag: str):
    """Inverse of the .tag property, for deserialization."""
    if tag == "ZZ":
        return ZZ
    if tag == "QQ":
        return QQ
    if tag.startswith("QQ(zeta_") and tag.endswith(")"):
        return CyclotomicRing(int(tag[len("QQ(zeta_"):-1]))
    raise ValueError(f"unknown ring tag {tag!r}")
