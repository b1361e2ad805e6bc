"""Exact arithmetic in cyclotomic fields Q(zeta_k).

Elements are residue polynomials in zeta of degree < phi(k), stored as a tuple
of coordinates in the power basis 1, zeta, ..., zeta^(phi(k)-1).  Every
coordinate is canonical: a plain Python int when it is integral, a Fraction
only otherwise.  Phi_k is monic with integer coefficients, so reducing modulo
Phi_k never leaves the integers, and the power basis spans the ring of
integers Z[zeta_k].  Elements of Z[zeta_k], where the coefficients of the
root-of-unity expansions lie, are therefore multiplied, added and reduced in
int arithmetic alone; a Fraction enters only where a non-unit is inverted
(extended gcd over Q[x]).

A product is the schoolbook product of the two residue polynomials, with its
high coefficients folded back by x^phi(k) = x^phi(k) - Phi_k(x), highest
first; powers of zeta are reduced the same way.  Conductors stay small here
(`roots.CONDUCTOR_CAP` is 12, where phi(12) = 4).

A series product over Q(zeta_k) multiplies no elements: it runs on the
packed coordinate vectors that rings.py describes.

Phi_k itself is computed exactly by iterated division of x^k - 1 by the
cyclotomic polynomials of the proper divisors of k.
"""

from __future__ import annotations

import functools
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from operator import add, neg, sub

from .errors import NonInvertibleError


def fraction_str(x) -> str:
    """`num/den`, or `num` for an integer, of a rational x with any number of
    digits: str() of an int stops at sys.get_int_max_str_digits() (4300 by
    default), a Decimal prints every digit."""
    x = Fraction(x)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def parse_fraction(text: str) -> Fraction:
    """The rational that `fraction_str` writes as `text`, with any number of
    digits: each part is read as a Decimal, which has no digit limit, and
    converted exactly."""
    if not isinstance(text, str):
        raise TypeError(f"expected a string, got {text!r}")
    num, slash, den = text.partition("/")
    try:
        value = Fraction(Decimal(num))
        return value / Fraction(Decimal(den)) if slash else value
    except (InvalidOperation, OverflowError) as exc:
        raise ValueError(f"not an exact rational: {text!r}") from exc


def _poly_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divmod(num, den):
    """Exact division of integer/rational coefficient lists (ascending)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        if c == 0:
            continue
        q = c if lead == 1 else Fraction(c, lead)
        out[shift] = q
        for i, d in enumerate(den):
            num[shift + i] -= q * d
    return out, _poly_trim(num)


def _rational(c):
    """c as an exact rational: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _canonical(vec) -> tuple:
    """vec as a coordinate tuple, with integral Fractions turned into ints."""
    for c in vec:
        if type(c) is not int:
            return tuple(c.numerator if c.denominator == 1 else c for c in vec)
    return tuple(vec)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(k: int) -> tuple:
    """Coefficients of Phi_k, ascending, as exact integers."""
    if k < 1:
        raise ValueError("conductor must be >= 1")
    poly = [-1] + [0] * (k - 1) + [1]  # x^k - 1
    for d in range(1, k):
        if k % d == 0:
            q, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if rem:
                raise AssertionError(f"Phi_{d} does not divide x^{k}-1")
            poly = q
    return tuple(int(c) for c in poly)


class CyclotomicField:
    """The field Q(zeta_k); produces and operates on CyclotomicElement."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("conductor must be >= 1")
        self.k = k
        self.modulus = cyclotomic_polynomial(k)
        d = self.degree = len(self.modulus) - 1  # phi(k)
        # x^d = -sum_i m_i x^i: the nonzero m_i, with i - d as the offset at
        # which a coefficient of x^j lands on x^(j - d + i).
        self._fold = tuple((i - d, m) for i, m in enumerate(self.modulus[:d]) if m)
        self._pad = (0,) * (d - 1)
        # folding a product of 2d - 1 coordinates of absolute value at most c
        # gives coordinates of absolute value at most fold_gain * c: the
        # largest column sum of |x^j mod Phi_k| over j < 2d - 1
        powers = [self._reduce([0] * j + [1]) for j in range(2 * d - 1)]
        self.fold_gain = max(sum(abs(row[i]) for row in powers) for i in range(d))
        self.zero = CyclotomicElement(self, (0,) * d)
        self.one = CyclotomicElement(self, (1,) + self._pad)

    # -- constructors -----------------------------------------------------

    def element(self, coeffs) -> "CyclotomicElement":
        vec = [_rational(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("residue degree too large")
        vec += [0] * (self.degree - len(vec))
        return CyclotomicElement(self, tuple(vec))

    def from_rational(self, c) -> "CyclotomicElement":
        return CyclotomicElement(self, (_rational(c),) + self._pad)

    def zeta(self, power: int = 1) -> "CyclotomicElement":
        return CyclotomicElement(self, self._reduce([0] * (power % self.k) + [1]))

    # -- arithmetic kernels ------------------------------------------------

    def _mul(self, a, b):
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    prod[j] += ai * bj
        return self._reduce(prod)

    def _reduce(self, poly):
        """Coordinates of the polynomial `poly` (ascending, a list it
        consumes) modulo Phi_k, folding its coefficients down from the top."""
        d = self.degree
        for j in range(len(poly) - 1, d - 1, -1):
            c = poly[j]
            if c:
                for off, m in self._fold:
                    poly[j + off] -= c * m
        if len(poly) < d:
            poly += [0] * (d - len(poly))
        return _canonical(poly[:d])

    def _invert(self, a):
        # extended Euclid on (residue poly of a, Phi_k) over Q[x]
        r0 = list(self.modulus)
        r1 = _poly_trim(list(a))
        if not r1:
            raise NonInvertibleError("zero has no inverse in Q(zeta_%d)" % self.k)
        s0, s1 = [], [1]  # Bezout coefficients for the second arg
        while True:
            q, rem = _poly_divmod(r0, r1)
            if not rem:
                break
            # s_next = s0 - q*s1
            s_next = list(s0) + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qi in enumerate(q):
                if not qi:
                    continue
                for j, sj in enumerate(s1):
                    s_next[i + j] -= qi * sj
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_trim(s_next)
        if len(r1) != 1:
            # gcd not a unit: cannot happen when Phi_k is irreducible
            raise AssertionError("non-trivial gcd with cyclotomic modulus")
        scale = Fraction(1) / r1[0]
        inv = [c * scale for c in s1]
        inv += [0] * (self.degree - len(inv))
        return _canonical(inv[: self.degree])

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.k == self.k

    def __hash__(self):
        return hash(("CyclotomicField", self.k))

    def __repr__(self):
        return f"CyclotomicField({self.k})"


@functools.lru_cache(maxsize=None)
def get_field(k: int) -> CyclotomicField:
    return CyclotomicField(k)


class CyclotomicElement:
    """Residue polynomial in zeta_k with canonical int/Fraction coordinates."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, CyclotomicElement):
            if other.field.k != self.field.k:
                raise ValueError("conductor mismatch: %d vs %d" % (self.field.k, other.field.k))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        if type(other) is not CyclotomicElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return CyclotomicElement(
            self.field, _canonical(tuple(map(add, self.coeffs, other.coeffs))))

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicElement(self.field, tuple(map(neg, self.coeffs)))

    def __sub__(self, other):
        if type(other) is not CyclotomicElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return CyclotomicElement(
            self.field, _canonical(tuple(map(sub, self.coeffs, other.coeffs))))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not CyclotomicElement or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return CyclotomicElement(self.field, self.field._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        return CyclotomicElement(self.field, self.field._invert(self.coeffs))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, CyclotomicElement) and other.field.k != self.field.k:
            # the fields meet in Q: rational elements compare by value
            return (self.is_rational() and other.is_rational()
                    and self.coeffs[0] == other.coeffs[0])
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a rational element hashes like its value, as == with it requires
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field.k, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.coeffs[0])

    def embed(self, dps: int = 60):
        """Numerical image under zeta_k -> exp(2*pi*i/k)."""
        import mpmath as mp  # the exact arithmetic never needs it

        with mp.workdps(dps):
            zeta = mp.e ** (2j * mp.pi / self.field.k)
            acc = mp.mpc(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    acc += mp.mpf(c.numerator) / mp.mpf(c.denominator) * zeta**j
            return acc

    def __repr__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            c = fraction_str(c)
            if j == 0:
                parts.append(c)
            elif j == 1:
                parts.append(f"{c}*z" if c != "1" else "z")
            else:
                parts.append(f"{c}*z^{j}" if c != "1" else f"z^{j}")
        body = " + ".join(parts) if parts else "0"
        return f"({body} : k={self.field.k})"
