"""Exact arithmetic in cyclotomic fields Q(zeta_k), each its own series
coefficient ring.

Elements are residue polynomials in zeta of degree < phi(k), stored as a tuple
of coordinates in the power basis 1, zeta, ..., zeta^(phi(k)-1).  Every
coordinate is canonical: a plain Python int when it is integral, a Fraction
only otherwise.  Phi_k is monic with integer coefficients, so reducing modulo
Phi_k never leaves the integers, and the power basis spans the ring of
integers Z[zeta_k].  Elements of Z[zeta_k], where the coefficients of the
root-of-unity expansions lie, are therefore multiplied, added and reduced in
int arithmetic alone; a Fraction enters only where a non-unit is inverted.

A product is the schoolbook product of the two residue polynomials, with its
high coefficients folded back by x^phi(k) = x^phi(k) - Phi_k(x), highest
first; powers of zeta are reduced the same way.  The inverse of a unit
+-zeta^j is +-zeta^(-j); that of any other a is the product of its other
Galois conjugates a(zeta^j), 1 < j < k with gcd(j, k) = 1, divided by the
norm N(a), which is a times that product and rational.  Conductors stay
small here: `CONDUCTOR_CAP` below is 12, where phi(12) = 4, and the root
explorer and the payload reader refuse a larger one.

`CyclotomicField` is also the coefficient ring of a series over Q(zeta_k),
with the protocol of the rings in rings.py: the tag "QQ(zeta_k)", `coerce`,
`invert`, the exact string form (comma-joined coordinates) and the stored
form of a series.  A series over Q(zeta_k) keeps its coefficients packed,
and elements are made only where it is read (`load`): a series product,
sum or negation makes none.  Its state is (W, den, bound): each
coefficient is the int coordinate vector (c_0..c_{phi-1}) of den times the
element, packed as the one int sum_i c_i 2^(W i) (a Kronecker
substitution), with den the lcm of the coordinate denominators, kept in
lowest terms, and bound an upper bound on every |c_i|.  The slot width W
is a multiple of 64 and every stored coordinate is below 2^(W-3), so each
slot holds a signed coordinate and a sum of two stored values stays exact
slot by slot.  `store` packs elements at the least such width.

The product of two packed values is the packed, unreduced product
polynomial of 2 phi - 1 coordinates evaluated at 2^W, and sums of such
products stay packed.  A coordinate of a kernel value is a sum of at most
phi products per term pair and of at most min(#a, #b) term pairs, so
|coordinate| <= phi max|a| max|b| min(#a, #b); folding by Phi_k multiplies
that bound by at most the field's `fold_gain`, the largest column sum of
|x^j mod Phi_k| over j < 2 phi - 1.  `operands` takes the least width that
keeps that folded bound below 2^(W-3), and repacks an operand only when it
is stored at another width.  `fold` then folds each kept value in packed
form, as its centred residue modulo Phi_k(2^W), which is the folded
polynomial at 2^W exactly because its coordinates are that small.  So the
folding runs once per kept coefficient rather than once per term pair, and
a value such as 1 + zeta_3 + zeta_3^2 is nonzero until it is folded.  The
product is stored at its width and keeps the bound that width was chosen
for, which is an upper bound; over a denominator other than 1 it is
brought to lowest terms (`_settle`), which reads the exact bound off its
coordinates.  A kept bound grows by fold_gain phi pairs at each product,
so it is read off the values only when a product needs it: when the
width of a product would exceed both operands' widths, `operands` reads
each operand's bound (`_read_bound`) off the top 64-bit word of each slot,
or off the unpacked coordinates when each of those words is -1, 0 or 1,
takes the width again from those bounds, and hands back the operands'
states with them, which the series keeps.  That bound stays within three
times the largest coordinate, so the widths follow the coordinates, not
the products before them, and a product whose width is no wider than an
operand's reads no bound at all.  An int constant n is added in stored
form (`constant`): n den in slot 0, with the bound raised by |n den| and
the terms repacked only when their width no longer holds it.  A sum
(`join`) brings both operands to one denominator and to the wider width,
or a wider one when the sum of their bounds needs it; two series compare
after the same `join`.  Elements are made by `load`, and by `store` from
the ints and Fractions it is given.

Phi_k itself is computed exactly by iterated division of x^k - 1 by the
cyclotomic polynomials of the proper divisors of k.

The package's one numeric type lives here too: `_DecimalComplex`, a complex
number with `decimal.Decimal` parts, which the numeric checks sum in and
`CyclotomicElement.embed` maps an element to, with zeta_k = e^(2 pi i/k)
summed from the literal `PI`.  `decimal_context` is the one decimal context
that the numeric checks, the roots cross-check and the asymptotic trends
compute in, and `decimal_str` prints every such number.
"""

from __future__ import annotations

import functools
import re
import sys
from array import array
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, neg, sub

from .errors import NonInvertibleError, ParameterError

# The largest conductor a root context or a series payload may name: a field
# keeps 2 phi(k) - 1 reduced powers of zeta to size `fold_gain`, so building
# one for an arbitrary k from untrusted input could take minutes.
CONDUCTOR_CAP = 12


def fraction_str(x) -> str:
    """`num/den`, or `num` for an integer, of a rational x with any number of
    digits: str() of an int stops at sys.get_int_max_str_digits() (4300 by
    default), a Decimal prints every digit."""
    x = Fraction(x)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def decimal_str(x: Decimal, digits: int) -> str:
    """The Decimal x to `digits` significant digits, rounded half up, laid out
    as mpmath's nstr lays out a real: fixed notation when the exponent e of
    the leading digit has min(-(digits // 3), -5) < e < digits, else
    scientific, with trailing zeros stripped but for one after the point."""
    if not x:
        return "0.0"
    rounding = Context(prec=digits, rounding=ROUND_HALF_UP, Emin=MIN_EMIN, Emax=MAX_EMAX)
    sign, mantissa, exponent = rounding.plus(x).as_tuple()
    mantissa = "".join(map(str, mantissa))
    e = exponent + len(mantissa) - 1
    suffix, point = f"e{e:+d}", 1
    if min(-(digits // 3), -5) < e < digits:
        suffix, point = "", max(e, 0) + 1
        mantissa = "0" * -e + mantissa if e < 0 else mantissa.ljust(point, "0")
    text = f"{mantissa[:point]}.{mantissa[point:]}".rstrip("0")
    return "-" * sign + text + "0" * text.endswith(".") + suffix


# digits that every decimal computation carries beyond the digits it is
# asked for, so that rounding in its sums stays below the last of them
DECIMAL_GUARD_DIGITS = 5


def decimal_context(digits: int):
    """The one decimal context of a decimal computation good to `digits`
    digits: DECIMAL_GUARD_DIGITS more working digits, and an unbounded
    exponent range, so that the q^{n^2} tails of a numeric sum never
    underflow."""
    return localcontext(Context(prec=digits + DECIMAL_GUARD_DIGITS, Emin=MIN_EMIN, Emax=MAX_EMAX))


# pi to 85 significant digits: the embedding of Q(zeta_k) and the asymptotic
# constants read it, so either is good to about 80 digits
PI = Decimal("3.14159265358979323846264338327950288419716939937510"
             "5820974944592307816406286208998628")


class _DecimalComplex:
    """re + i im with Decimal parts, computed in the current decimal context:
    the arithmetic of the numeric sides, the term loop, _weighted and the
    embedding of Q(zeta_k)."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=Decimal(0)):
        self.re = re
        self.im = im

    @classmethod
    def read(cls, z):
        """The Python complex (or real) `z`, exactly: a float's binary value
        has a finite decimal expansion, which is kept unrounded."""
        z = complex(z)
        re, im = Decimal(z.real), Decimal(z.imag)
        if not (re.is_finite() and im.is_finite()):
            raise ParameterError(f"numeric sums need finite values, got {z}")
        return cls(re, im)

    def norm(self):
        """|z|^2."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        return _DecimalComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _DecimalComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, one):
        return _DecimalComplex(one - self.re, -self.im)

    def __neg__(self):
        return _DecimalComplex(-self.re, -self.im)

    def __mul__(self, other):
        if type(other) is int:  # the -1 mono of comp2-first
            return _DecimalComplex(self.re * other, self.im * other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return _DecimalComplex(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        n = c * c + d * d
        return _DecimalComplex((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, one):
        return _DecimalComplex(Decimal(one)) / self

    def __pow__(self, n):
        """z ** 0, the unit, which `qseries.Point.one` asks for."""
        if n:
            raise ValueError("a decimal complex number is raised to the power 0 only")
        return _DecimalComplex(Decimal(1))


@functools.lru_cache(maxsize=None)
def _zeta_image(k, dps):
    """e^(2 pi i/k) to `dps` digits, the precision of the current decimal
    context, which `embed` reads off a `decimal_context`: by the Taylor
    series of the exponential, whose term (2 pi i/k)^n/n! lies on 1, i, -1
    or -i as n is 0, 1, 2 or 3 mod 4.  The terms are summed until one falls
    below 10^(-dps - 1)."""
    x = 2 * PI / k
    parts = [Decimal(0)] * 4
    term, n = Decimal(1), 0
    while term.adjusted() > -dps - 2:
        parts[n % 4] += term
        n += 1
        term = term * x / n
    return _DecimalComplex(parts[0] - parts[2], parts[1] - parts[3])


# a signed run of ASCII digits with at most one decimal point, optionally
# over a second one: what `fraction_str` writes, and decimals such as 0.5
_DECIMAL = r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)"
_FRACTION = re.compile(rf"{_DECIMAL}(/{_DECIMAL})?")


def parse_fraction(text: str) -> Fraction:
    """The rational that `fraction_str` writes as `text`, with any number of
    digits: each part is read as a Decimal, which has no digit limit, and
    converted exactly.  Only `_FRACTION` is read, so an exponent, a space,
    an underscore or a non-ASCII digit is a ValueError."""
    if not isinstance(text, str):
        raise TypeError(f"expected a string, got {text!r}")
    if not _FRACTION.fullmatch(text):
        raise ValueError(f"not an exact rational: {text!r}")
    num, slash, den = text.partition("/")
    value = Fraction(Decimal(num))
    return value / Fraction(Decimal(den)) if slash else value


def _poly_divmod(num, den):
    """Quotient and remainder of the integer polynomial `num` by the monic
    `den` (coefficient lists, ascending)."""
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for shift in reversed(range(len(quot))):
        q = quot[shift] = num[shift + len(den) - 1]
        if q:
            for i, d in enumerate(den):
                num[shift + i] -= q * d
    return quot, num[:len(den) - 1]


def _rational(c):
    """c as an exact rational: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _pack(vecs, width):
    """Each coordinate vector (c_0, c_1, ...) as the int sum_i c_i 2^(width i)."""
    packed = []
    for vec in vecs:
        p = 0
        for c in reversed(vec):
            p = (p << width) + c
        packed.append(p)
    return packed


def _width(bound):
    """The least multiple of 64 above the bit length of `bound` by 3 or more:
    the slot width that keeps coordinates of absolute value at most `bound`
    below 2^(width-3)."""
    return (bound.bit_length() + 66) // 64 * 64


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
            if any(rem):
                raise AssertionError(f"Phi_{d} does not divide x^{k}-1")
            poly = q
    return tuple(poly)


class CyclotomicField:
    """The field Q(zeta_k): it makes and operates on CyclotomicElement, and
    it is the coefficient ring of series over Q(zeta_k)."""

    def __init__(self, k: int):
        self.k = k
        self.tag = f"QQ(zeta_{k})"
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
        self._moduli = {}  # Phi_k(2^W) by slot width W, made on first use
        self._units = None  # the coordinates of each +-zeta^j, made on first use

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

    # -- the coefficient ring ---------------------------------------------

    def coerce(self, x):
        if isinstance(x, CyclotomicElement):
            if x.field.k != self.k:
                raise TypeError(f"conductor mismatch: {x.field.k} vs {self.k}")
            return x
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        raise TypeError(f"cannot coerce {x!r} into {self.tag}")

    def invert(self, a):
        return a.inverse()

    # -- the stored form of a series (see the module docstring) -------------

    def store(self, coeffs):
        """The elements `coeffs` in stored form: their coordinates over the
        lcm of their denominators, packed at the least width that holds them,
        and the state (W, den, bound)."""
        vecs = [self.coerce(c).coeffs for c in coeffs]
        den = lcm(*[x.denominator for v in vecs for x in v if type(x) is not int])
        if den != 1:
            vecs = [[x.numerator * (den // x.denominator) for x in v] for v in vecs]
        bound = max(map(abs, chain.from_iterable(vecs)), default=0)
        width = _width(bound)
        return _pack(vecs, width), (width, den, bound)

    def load(self, values, state):
        """The elements of the stored `values`."""
        width, den, _ = state
        return [CyclotomicElement(self, tuple(vec)) if den == 1 else
                self.element([Fraction(c, den) for c in vec])
                for vec in self._unpack(values, width)]

    def operands(self, a, a_state, b, b_state, pairs):
        """The stored values `a` and `b` at one width that holds a product in
        which each kept value sums at most `pairs` term products, the states
        of `a` and `b`, and the state of the kernel values, whose bound is
        that of the product.  Only when that width would exceed both
        operands' widths are their bounds read off their values
        (`_read_bound`) and the width taken again from them; the states
        returned then carry those bounds, which the series keeps."""
        gain = self.fold_gain * self.degree * pairs
        bound = gain * a_state[2] * b_state[2]
        width = _width(bound)
        if width > max(a_state[0], b_state[0]):
            a_state, b_state = self._read_bound(a, a_state), self._read_bound(b, b_state)
            bound = gain * a_state[2] * b_state[2]
            width = _width(bound)
        (wa, da, _), (wb, db, _) = a_state, b_state
        if wa != width:
            a = _pack(self._unpack(a, wa), width)
        if wb != width:
            b = _pack(self._unpack(b, wb), width)
        return a, b, a_state, b_state, (width, da * db, bound)

    def fold(self, values, state):
        """Kernel values of the state `state` in stored form: each folded by
        Phi_k as its centred residue modulo Phi_k(2^W), in lowest terms."""
        width, den, _ = state
        modulus = self._moduli.get(width)
        if modulus is None:
            modulus = self._moduli[width] = sum(
                m << (width * i) for i, m in enumerate(self.modulus))
        centre = modulus >> 1
        out = []
        for v in values:
            v %= modulus
            out.append(v - modulus if v > centre else v)
        return (out, state) if den == 1 else self._settle(out, width, den)

    def join(self, a, a_state, b, b_state):
        """The stored terms `a` and `b`, dicts, over one denominator and at a
        width that holds their sum, and the state of that form."""
        (wa, da, ba), (wb, db, bb) = a_state, b_state
        den = lcm(da, db)
        fa, fb = den // da, den // db
        bound = ba * fa + bb * fb
        width = max(wa, wb, _width(bound))
        return (self._lift(a, wa, fa, width), self._lift(b, wb, fb, width),
                (width, den, bound))

    def constant(self, keyed, state, n):
        """The stored terms `keyed`, a dict, at a width that holds them plus
        the int n, the stored value of n there, n den in slot 0, and the
        state of that form, whose bound grows by |n den|."""
        width, den, bound = state
        n *= den
        bound += abs(n)
        new = max(width, _width(bound))
        return self._lift(keyed, width, 1, new), n, (new, den, bound)

    def lowest(self, keyed, state):
        """The stored terms `keyed`, a dict, and their state in lowest terms."""
        width, den, _ = state
        if den == 1:
            return keyed, state
        values, state = self._settle(list(keyed.values()), width, den)
        return dict(zip(keyed, values)), state

    def _read_bound(self, values, state):
        """The state `state` of the packed `values`, with the bound read off
        them.

        The bound is read off the top 64-bit word of each slot of their two's
        complement bytes.  A negative slot below borrows one from the slot
        above, so that word is floor((c - b) / 2^(W-64)) with b = 0 or 1, and
        |c| <= (|word| + 1) 2^(W-64).  When some top word is 2 or more in
        absolute value, its coordinate is at least 2^(W-64) in absolute
        value, so that bound is at most three times the largest |c|.
        Otherwise the coordinates are unpacked for it.  The bound read never
        exceeds the one stated."""
        width, den, bound = state
        top = self._top_word(values, width)
        if width == 64 or top > 1:
            read = (top + 1) << (width - 64)
        else:
            read = max(map(abs, chain.from_iterable(self._unpack(values, width))), default=0)
        return width, den, min(bound, read)

    def _lift(self, keyed, width, factor, new):
        """The stored terms `keyed` at the width `new`, times `factor`."""
        if width != new:
            keyed = dict(zip(keyed, _pack(self._unpack(keyed.values(), width), new)))
        if factor != 1:
            keyed = {k: v * factor for k, v in keyed.items()}
        return keyed

    def _settle(self, values, width, den):
        """The packed `values` over `den` in lowest terms, and their state,
        whose bound is the largest |coordinate|."""
        vecs = self._unpack(values, width)
        g = gcd(den, *chain.from_iterable(vecs))
        if g != 1:
            den //= g
            vecs = [[c // g for c in vec] for vec in vecs]
            values = _pack(vecs, width)
        return values, (width, den, max(map(abs, chain.from_iterable(vecs)), default=0))

    def _unpack(self, values, width):
        """The signed coordinate vectors of the packed `values`: adding half
        a slot to every slot makes each one nonnegative, so no slot borrows
        from the next and each reads off with a shift and a mask."""
        half = 1 << (width - 1)
        mask = (1 << width) - 1
        shifts = range(0, self.degree * width, width)
        bias = sum(half << s for s in shifts)
        vecs = []
        for v in values:
            v += bias
            vecs.append([((v >> s) & mask) - half for s in shifts])
        return vecs

    def _top_word(self, values, width):
        """The largest absolute value of the top 64-bit word of any slot of
        the packed `values`, in two's complement."""
        step = width // 64
        words = array("q", b"".join([v.to_bytes(self.degree * width // 8, "little", signed=True)
                                     for v in values]))
        if sys.byteorder == "big":
            words.byteswap()
        tops = words[step - 1::step]
        return max(max(tops), -min(tops)) if tops else 0

    def coeff_to_str(self, a):
        """The coordinates of `a`, each as "num" or "num/den", comma-joined."""
        return ",".join(map(fraction_str, a.coeffs))

    def coeff_from_str(self, s):
        return self.element([parse_fraction(part) for part in s.split(",")])

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.k == self.k

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


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
        """1/a: +-zeta^(-j) when a is +-zeta^j, found in a table of those
        units that the field makes on first use, and `_norm_inverse`
        otherwise."""
        field = self.field
        if field._units is None:
            field._units = {}
            for j in range(field.k):
                z = field.zeta(j)
                field._units[(-z).coeffs] = (j, -1)
                field._units[z.coeffs] = (j, 1)
        unit = field._units.get(self.coeffs)
        if unit is None:
            return self._norm_inverse()
        j, sign = unit
        inverse = field.zeta(-j)
        return inverse if sign == 1 else -inverse

    def _norm_inverse(self):
        """The product of the other Galois conjugates a(zeta^j), 1 < j < k
        with gcd(j, k) = 1, over the norm: a times that product, a rational."""
        field, coeffs = self.field, self.coeffs
        if not self:
            raise NonInvertibleError(f"0 is not invertible in {field.tag}")
        k = field.k
        prod = field.one.coeffs
        for j in range(2, k):
            if gcd(j, k) == 1:
                conjugate = [0] * k  # sum_i c_i zeta^(i j), unreduced
                for i, c in enumerate(coeffs):
                    conjugate[i * j % k] += c
                prod = field._mul(prod, field._reduce(conjugate))
        norm = field._mul(coeffs, prod)[0]
        return CyclotomicElement(field, _canonical([Fraction(c, norm) for c in prod]))

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

    def embed(self):
        """The image under zeta_k -> e^(2 pi i/k), a _DecimalComplex computed
        in the current decimal context (`decimal_context` in every caller),
        to its precision of at most 80 digits."""
        zeta = _zeta_image(self.field.k, getcontext().prec)
        image = _DecimalComplex(Decimal(0))
        for c in reversed(self.coeffs):
            image = image * zeta + _DecimalComplex(Decimal(c.numerator) / c.denominator)
        return image

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
