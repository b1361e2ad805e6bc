"""Sparse truncated multivariate formal power series over an exact ring.

A series lives in R[[x_1..x_v]] / (total degree > N): operations are exact
below the cut and every monomial above it is discarded.  Truncation is by
TOTAL degree; per-variable views can be derived but are not stored.

A series is stored as a dict from packed int keys to the nonzero values of
its coefficients in its ring's stored form (a sparse Kronecker
substitution, cf. Harvey, J. Symbolic Comput. 44, 2009; Monagan and Pearce,
CASC 2007, keep packed monomials as the storage format in the same way),
and every ring operation reads and writes that dict.  An
exponent (e_1..e_v) of total degree d is written in radix N+1 with the
digits (d, e_1, ..., e_{v-1}); the last exponent is implied by d.  Every
digit is a linear function of the exponents, so the key of a product
monomial is the sum of the keys of its factors, and no digit can carry: a
kept product has total degree <= N, so its degree digit and each exponent
digit is <= N.  A product that is not kept has degree digit > N, so the cut
is one comparison of keys, and sorting an operand's keys sorts it by
degree; each row of the schoolbook product then reads a prefix of the other
operand.  The key 0 is the constant monomial.  This layout is written only
in `_pack` and its inverse `_unpack`, which read a key back by divmod; no
exponent or key is tabulated, so no operation builds a structure sized by
the (N+1)^v keys below the cut.

The values are ints, with one state per series that the ring keeps
(rings.py): one denominator over QQ (1 over ZZ), and a slot width, a
denominator and a coordinate bound over Q(zeta_k), whose values are packed
coordinate vectors (cyclotomic.py).  A product, a sum, a negation and an
int constant run on these ints alone; the ring only brings two operands
to one form, folds a product and gives a constant's stored value, so no
coefficient is made between products.  Ints,
Fractions and CyclotomicElements are made only where the series is read:
`terms`, `constant_term`, `coefficient`, the witness of `equal_up_to` and
`repr`, and in the element recurrence of `invert` over Q(zeta_k).

The constructor takes a dict from exponent tuples and packs it at once.
Each exponent is checked there, by the one check `coefficient` also uses:
it must be nvars ints (not bools or floats), each >= 0, of total degree <=
N.  Zero coefficients are dropped there too, so no stored value is zero.
Two series compare by their dicts once the ring has brought them to one
form.

Values are immutable after construction and all operations are pure, so
series can be shared freely across threads.  A series caches what it derives
from its terms: its keys and coefficients sorted by key, made the first time
it is a product operand (or by the product that made it), the state with
the bound that the ring reads off its values when a product needs it
(`operands`), and `terms`, the public view, a dict from exponent tuples to
coefficients built on its first read.  Each cache is a pure function of
the stored terms, so two threads that race to fill one compute the same
value.

One loop, `_sum_products`, sums the term products of `*`, `invert` and
`substitute`.  Each caller hands it rows, each a key and a value with the
(key, value) pairs the row meets, and it adds the product of the two values
at the sum of the two keys.  A product's rows are the terms of the operand
with fewer terms, each with the prefix of the other that stays below the
cut, so a factor of one or two terms makes one or two passes over a prefix
of the other.  The product alone picks the list accumulator: it sums into a
list indexed by key when the key span of the product, [a_0 + b_0,
min(limit, a_last + b_last + 1)), is no longer than the number of term
pairs, as it is for the dense bivariate series, and into a dict otherwise,
as for the trivariate series, whose span is mostly empty.  The inverse and
the substitution sum into a dict.

The loop multiplies and adds ints only in a product and a substitution,
over every ring, and the order of the rows changes no sum.  `substitute`
takes only a separable change of variables, each variable sent to a series
in itself alone, so it composes one variable at a time from univariate
powers and makes no product of multivariate series.  `invert` runs its
degree recurrence through the same loop, on the stored ints over ZZ and
QQ, fraction-free, and on field elements over Q(zeta_k).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction

from .errors import (
    NonInvertibleError,
    SeriesCompatibilityError,
    SubstitutionError,
    TruncationError,
)
from .cyclotomic import fraction_str
from .rings import QQ, ZZ

MatchReport = namedtuple("MatchReport", "equal index left right")
MatchReport.__doc__ = """Outcome of equal_up_to: either equal, or the
lexicographically least differing multi-index with both coefficients."""


class TruncatedSeries:
    __slots__ = ("ring", "nvars", "trunc", "names", "_keyed", "_state", "_sorted", "_terms")

    def __init__(self, ring, nvars, trunc, terms=None, names=None):
        if not 1 <= nvars <= 3:
            raise ValueError("supported variable counts are 1..3")
        if type(trunc) is not int or trunc < 0:
            raise ValueError(f"truncation order {trunc!r} is not a nonnegative integer")
        self.ring = ring
        self.nvars = nvars
        self.trunc = trunc
        self.names = tuple(names) if names else _default_names(nvars)
        if len(self.names) != nvars:
            raise ValueError("one name per variable required")
        keys, coeffs = [], []
        for exp, c in (terms or {}).items():
            key = self._key(exp)
            if c:
                keys.append(key)
                coeffs.append(c)
        values, self._state = ring.store(coeffs)
        self._keyed = dict(zip(keys, values))
        self._sorted = self._terms = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, ring, nvars, trunc, value, names=None):
        return cls(ring, nvars, trunc, {(0,) * nvars: ring.coerce(value)}, names)

    @classmethod
    def variable(cls, ring, nvars, trunc, index, names=None):
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        terms = {exp: ring.one} if trunc >= 1 else {}
        return cls(ring, nvars, trunc, terms, names)

    @classmethod
    def zero(cls, ring, nvars, trunc, names=None):
        return cls(ring, nvars, trunc, {}, names)

    # -- plumbing ----------------------------------------------------------

    def _compat(self, other):
        self._compat_loose(other)
        if self.trunc != other.trunc:
            raise SeriesCompatibilityError(
                f"truncation mismatch: {self.trunc} vs {other.trunc}")

    def _wrap(self, keyed, state, ordered=None):
        """A series like self with the packed terms `keyed`, stored values of
        the state `state`, and `ordered`, their keys ascending and the values
        in the same order, when the caller has them."""
        out = object.__new__(TruncatedSeries)
        out.ring = self.ring
        out.nvars = self.nvars
        out.trunc = self.trunc
        out.names = self.names
        out._keyed = keyed
        out._state = state
        out._sorted = ordered
        out._terms = None
        return out

    def _key(self, exp):
        """The packed key of the exponent tuple `exp`, refused unless it is
        nvars ints (not bools or floats), each >= 0, of total degree <=
        trunc."""
        if len(exp) != self.nvars:
            raise SeriesCompatibilityError(
                f"exponent {exp!r} does not have {self.nvars} entries")
        if not all(type(e) is int and e >= 0 for e in exp):
            raise SeriesCompatibilityError(f"exponent {exp!r} is not nonnegative integers")
        if sum(exp) > self.trunc:
            raise TruncationError(
                f"exponent {exp!r} exceeds truncation order {self.trunc}")
        return _pack(exp, self.trunc + 1)

    def _ordered(self):
        """The packed keys ascending (so by total degree), and the stored
        values in the same order."""
        ordered = self._sorted
        if ordered is None:
            keyed = self._keyed
            keys = sorted(keyed)
            ordered = self._sorted = (keys, [keyed[k] for k in keys])
        return ordered

    @property
    def terms(self):
        """The nonzero coefficients as a dict from exponent tuples: a view of
        the packed terms, built on first read and then kept."""
        if self._terms is None:
            self._terms = self._tuple_view()
        return self._terms

    def _tuple_view(self):
        radix, nvars = self.trunc + 1, self.nvars
        keyed = self._keyed
        return dict(zip([_unpack(k, radix, nvars) for k in keyed],
                        self.ring.load(list(keyed.values()), self._state)))

    def _load(self, value):
        """The coefficient of the stored `value`."""
        return self.ring.load([value], self._state)[0]

    def _as_scalar(self, x):
        """x itself when it is an int, which `_plus_constant` adds in stored
        form, else x in the ring, or None when it is not a ring scalar."""
        if type(x) is int:
            return x
        try:
            return self.ring.coerce(x)
        except TypeError:
            return None

    @property
    def constant_term(self):
        return self._load(self._keyed.get(0, 0))

    def coefficient(self, exponents):
        return self._load(self._keyed.get(self._key(tuple(exponents)), 0))

    def support(self):
        return sorted(self.terms)

    def is_zero(self):
        return not self._keyed

    # -- ring operations ----------------------------------------------------

    def _plus_constant(self, keyed, state, scalar):
        """`keyed`, a dict of stored terms of the state `state` that this
        call may change, plus the constant `scalar`, an int or a ring
        element; a constant that cancels to zero is dropped.  An int n is
        added as its stored value (`ring.constant`), so no element is made,
        and the terms stay in lowest terms: n den added to one numerator
        changes no gcd with den."""
        if type(scalar) is not int:
            return self._wrap(keyed, state) + TruncatedSeries.constant(
                self.ring, self.nvars, self.trunc, scalar, self.names)
        keyed, constant, state = self.ring.constant(keyed, state, scalar)
        acc = keyed.get(0, 0) + constant
        if acc:
            keyed[0] = acc
        else:
            keyed.pop(0, None)
        return self._wrap(keyed, state)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            scalar = self._as_scalar(other)
            if scalar is None:
                return NotImplemented
            return self._plus_constant(dict(self._keyed), self._state, scalar)
        self._compat(other)
        big, small, state = self.ring.join(self._keyed, self._state,
                                           other._keyed, other._state)
        if len(big) < len(small):
            big, small = small, big
        keyed = dict(big)
        for k, c in small.items():
            acc = keyed.get(k, 0) + c
            if acc:
                keyed[k] = acc
            else:
                del keyed[k]
        return self._wrap(*self.ring.lowest(keyed, state))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -c for k, c in self._keyed.items()}, self._state)

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        scalar = self._as_scalar(other)
        if scalar is None:
            return NotImplemented
        return self._plus_constant(dict(self._keyed), self._state, -scalar)

    def __rsub__(self, other):
        scalar = self._as_scalar(other)
        if scalar is None:
            return NotImplemented
        return self._plus_constant({k: -c for k, c in self._keyed.items()}, self._state,
                                   scalar)

    def scale(self, scalar):
        scalar = self.ring.coerce(scalar)
        values, state = self.ring.store([scalar] if scalar else [])
        return self * self._wrap(dict(zip((0,), values)), state)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            scalar = self._as_scalar(other)
            if scalar is None:
                return NotImplemented
            return self.scale(scalar)
        self._compat(other)
        # the operand with fewer terms, x, runs in the outer loop
        x, y = (self, other) if len(self._keyed) <= len(other._keyed) else (other, self)
        a_keys, a_vals = x._ordered()
        b_keys, b_vals = y._ordered()
        if not a_keys:
            return TruncatedSeries.zero(self.ring, self.nvars, self.trunc, self.names)
        limit = (self.trunc + 1) ** self.nvars  # the least key of degree N + 1
        pairs = len(a_keys)  # the most term products that one kept value sums
        # the ring may read the operands' bounds for the kernel form, and
        # each operand keeps the state it hands back
        a_vals, b_vals, x._state, y._state, state = self.ring.operands(
            a_vals, x._state, b_vals, y._state, pairs)
        b = list(zip(b_keys, b_vals))
        # Each row reads the terms of b that keep the product below the cut,
        # a prefix.  ka + kb is then exact: a kept product has total degree
        # <= N, so no digit of the sum exceeds N and none carries.
        low = a_keys[0] + b_keys[0]
        span = min(limit, a_keys[-1] + b_keys[-1] + 1) - low
        dense = span <= len(a_keys) * len(b_keys)
        keys, values = _sum_products(a_keys, a_vals,
                                     [b[:bisect_left(b_keys, limit - ka)] for ka in a_keys],
                                     low, span if dense else None)
        # A zero kernel value is a zero coefficient, but a nonzero one may
        # still fold to zero (a Q(zeta_k) value folded by Phi_k).
        values, state = self.ring.fold(values, state)
        if not all(values):
            keys = [k for k, c in zip(keys, values) if c]
            values = [c for c in values if c]
        return self._wrap(dict(zip(keys, values)), state, (keys, values) if dense else None)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse up to the truncation order.

        Requires an invertible constant term; computed by the order-by-order
        recurrence b_d = -a_0^{-1} * sum_{e>=1} a_e b_{d-e} on packed keys,
        whose sums at each degree are one call of the loop of every product,
        `_sum_products`.  Over Q(zeta_k) the recurrence runs on field
        elements.  Over ZZ and QQ it runs on the stored ints,
        fraction-free: with the operand stored as
        A / L, A its int numerators over its denominator L, the levels
        B_d = A_0^(d+1) b_d / L satisfy B_0 = 1 and
        B_d = -sum_{e>=1} A_0^(e-1) A_e B_{d-e}, so b_d = L B_d / A_0^(d+1),
        all over the one denominator A_0^(N+1).
        """
        c0 = self.constant_term
        if not c0:
            raise NonInvertibleError("constant term 0 is not invertible")
        c0inv = self.ring.invert(c0)  # refuses a non-unit of ZZ
        keys, values = self._ordered()
        if self.ring in (ZZ, QQ):
            # A_0^j, with A_0 first, as the constant term's key 0 sorts first
            powers = _powers(values[0], self.trunc + 1)
            step = self._degree_step()
            # A_0^(e-1) A_e for each nonconstant term, of degree e
            scaled = [c * powers[k // step - 1] if k else c for k, c in zip(keys, values)]
            keys, values = self._inverse_levels(keys, scaled, 1, -1)
            # b_d = L B_d A_0^(N-d) / A_0^(N+1), signed so that the
            # denominator is positive; over ZZ, where L = 1 and A_0 = +-1,
            # that is A_0^(d+1) B_d over 1
            top = self.trunc
            factor = self._state if powers[-1] > 0 else -self._state
            return self._wrap(*self.ring.lowest(
                {k: factor * c * powers[top - k // step] for k, c in zip(keys, values)},
                abs(powers[-1])))
        keys, values = self._inverse_levels(keys, self.ring.load(values, self._state),
                                            c0inv, -c0inv)
        values, state = self.ring.store(values)
        return self._wrap(dict(zip(keys, values)), state)

    def _degree_step(self):
        """The key of one unit of total degree."""
        return (self.trunc + 1) ** (self.nvars - 1)

    def _inverse_levels(self, keys, values, first, factor):
        """The levels L_0..L_N of the degree recurrence L_0 = `first` and
        L_d = `factor` * sum_{e>=1} V_e L_{d-e}, where V_e are the terms of
        degree e among `keys` and `values`, the operand's sorted keys and
        values with the constant term first: the keys and the nonzero values
        of every level, level by level.  Level d is one call of
        `_sum_products`, whose rows are the terms of L_0..L_{d-1}, each term
        of L_{d-e} with the terms of `factor` V_e; `factor` is a unit, so it
        makes no sum zero."""
        step = self._degree_step()
        # the nonconstant terms, times factor, grouped by total degree
        by_deg = [[] for _ in range(self.trunc + 1)]
        for k, c in zip(keys[1:], values[1:]):
            by_deg[k // step].append((k, factor * c))
        # the terms of the levels so far, and the degree of each
        keys, values, degrees = [0], [first], [0]
        for d in range(1, self.trunc + 1):
            level_keys, level_values = _sum_products(keys, values,
                                                     [by_deg[d - r] for r in degrees])
            keys += level_keys
            values += level_values
            degrees += [d] * len(level_keys)
        return keys, values

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.invert() ** (-k)
        out = TruncatedSeries.constant(self.ring, self.nvars, self.trunc, self.ring.one, self.names)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def substitute(self, assignment):
        """Compose with a separable change of variables.

        `assignment` maps a variable index i to a series s_i of this
        series' shape that is a series in x_i alone with zero constant term;
        the result is this series at x_i = s_i(x_i), and an unmentioned
        variable is kept.  Any other replacement is refused.

        The variables are composed one at a time.  For variable i the
        univariate powers s_i^j are made once, for j up to the largest
        exponent of x_i, and each term c x^e goes onto its row, the
        monomial of the other variables, as c s_i^(e_i): in packed keys a
        shift of the term's key by (m - e_i) units of x_i for each term
        x_i^m of s_i^(e_i) that stays below the cut.  The ring brings the
        terms and all the powers to one kernel form (`join`, `operands`),
        and the sums run on ints and are folded once, as a product's are,
        so no product of two multivariate series is made.
        """
        radix, nvars = self.trunc + 1, self.nvars
        out = self
        for i, s in sorted(assignment.items()):
            if not 0 <= i < nvars:
                raise ValueError("variable index out of range")
            self._compat(s)
            if s.constant_term:
                raise SubstitutionError(
                    f"substitution for variable {self.names[i]} has nonzero "
                    f"constant term {s.constant_term!r}")
            for k in s._keyed:
                e = _unpack(k, radix, nvars)
                if sum(e) != e[i]:
                    raise SubstitutionError(
                        f"substitution for variable {self.names[i]} is not a series "
                        f"in {self.names[i]} alone: it has the term at {e}")
            out = out._compose(i, s)
        return out

    def _compose(self, i, s):
        """This series at x_i = s, for a series `s` in x_i alone of zero
        constant term."""
        if not self._keyed:
            return self
        radix, nvars, trunc = self.trunc + 1, self.nvars, self.trunc
        step = self._degree_step()
        keys, values = self._ordered()
        # one more in x_i is one more degree, and one more in its digit
        # unless x_i is the last variable, whose exponent is implied
        if i < nvars - 1:
            place = radix ** (nvars - 2 - i)
            unit = step + place
            exps = [k // place % radix for k in keys]
        else:
            unit = step
            exps = [_unpack(k, radix, nvars)[i] for k in keys]
        # s as a series in one variable, and its powers s^0..s^top
        top = max(exps)
        s = TruncatedSeries(self.ring, 1, trunc)._wrap(
            {k // unit: c for k, c in s._keyed.items()}, s._state)
        powers = [s ** 0, s][:top + 1]
        while len(powers) <= top:
            powers.append(powers[-1] * s)
        powers = [p._ordered() + (p._state,) for p in powers]
        # the terms of every power in one stored form, in that order
        flat, state = [c for _, cs, _ in powers for c in cs], powers[0][2]
        if any(power_state != state for _, _, power_state in powers):
            joined = {}
            for j, (ms, cs, power_state) in enumerate(powers):
                joined, more, state = self.ring.join(
                    joined, state, {(j, m): c for m, c in zip(ms, cs)}, power_state)
                joined.update(more)
            flat = list(joined.values())
        values, flat, self._state, _, kernel = self.ring.operands(
            values, self._state, flat, state, len(keys))
        # for each j, the exponents m of the terms x_i^m of s^j, ascending,
        # and for each the shift (m - j) * unit of a key and its value
        flat = iter(flat)
        table = [(ms, [((m - j) * unit, next(flat)) for m in ms])
                 for j, (ms, _, _) in enumerate(powers)]
        # each row keeps the terms x_i^m of s^j with m <= trunc - deg + j
        keys, values = _sum_products(keys, values, [
            table[j][1][:bisect_right(table[j][0], trunc - k // step + j)]
            for k, j in zip(keys, exps)])
        values, state = self.ring.fold(values, kernel)
        return self._wrap({k: c for k, c in zip(keys, values) if c}, state)

    def specialize(self, var: int, scalar, new_trunc: int):
        """Substitute a ring scalar for one variable, returning a series in
        the remaining variables truncated at `new_trunc`.

        Unlike `substitute`, a scalar (nonzero constant) replacement mixes
        contributions across total degrees, so this is exact only when the
        series' support satisfies deg_var <= deg_others for every term --
        then terms lost to the original truncation cannot touch output
        degrees <= trunc // 2.  The stored support is checked; `new_trunc`
        must not exceed trunc // 2.
        """
        if self.nvars < 2:
            raise SeriesCompatibilityError("specialize needs at least 2 variables")
        if not 0 <= var < self.nvars:
            raise ValueError("variable index out of range")
        if new_trunc > self.trunc // 2:
            raise TruncationError(
                f"specialization is exact only up to {self.trunc // 2}, "
                f"requested {new_trunc}")
        scalar = self.ring.coerce(scalar)
        terms = {}
        zero = self.ring.zero
        for e, c in self.terms.items():
            k = e[var]
            rest = sum(e) - k
            if k > rest:
                raise TruncationError(
                    "series support violates deg_var <= deg_others; "
                    f"offending index {e}")
            if rest > new_trunc:
                continue
            exp = e[:var] + e[var + 1:]
            terms[exp] = terms.get(exp, zero) + c * scalar ** k
        names = self.names[:var] + self.names[var + 1:]
        return TruncatedSeries(self.ring, self.nvars - 1, new_trunc, terms, names)

    # -- comparison ----------------------------------------------------------

    def equal_up_to(self, other, order) -> MatchReport:
        """Coefficientwise comparison below `order` (inclusive).

        Returns a MatchReport; on mismatch it carries the lexicographically
        least differing multi-index and both coefficients.
        """
        self._compat_loose(other)
        if order > self.trunc or order > other.trunc:
            raise TruncationError(
                f"comparison order {order} exceeds truncation "
                f"({self.trunc}, {other.trunc})")
        a, b, state = self.ring.join(self._keyed, self._state, other._keyed, other._state)
        a, b = self._cut(a, order), other._cut(b, order)
        if a == b:
            return MatchReport(True, None, None, None)
        radix, nvars = order + 1, self.nvars
        index = min(_unpack(k, radix, nvars) for k in a.keys() | b.keys()
                    if a.get(k, 0) != b.get(k, 0))
        k = _pack(index, radix)
        left, right = self.ring.load([a.get(k, 0), b.get(k, 0)], state)
        return MatchReport(False, index, left, right)

    def _cut(self, keyed, order):
        """The terms `keyed`, of this series' keys, of total degree <= order,
        keyed in radix order + 1."""
        if order == self.trunc:
            return keyed
        radix, nvars = self.trunc + 1, self.nvars
        # the keys of degree <= order are those whose degree digit is <= order
        bound = (order + 1) * radix ** (nvars - 1)
        return {_pack(_unpack(k, radix, nvars), order + 1): c
                for k, c in keyed.items() if k < bound}

    def _compat_loose(self, other):
        # comparison allows different truncations (order is checked separately)
        if self.ring != other.ring:
            raise SeriesCompatibilityError(
                f"ring mismatch: {self.ring!r} vs {other.ring!r}")
        if self.nvars != other.nvars:
            raise SeriesCompatibilityError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if (self.ring, self.nvars, self.trunc) != (other.ring, other.nvars, other.trunc):
            return False
        a, b, _ = self.ring.join(self._keyed, self._state, other._keyed, other._state)
        return a == b

    __hash__ = None  # mutable-by-content; not hashable

    # -- display -------------------------------------------------------------

    def __repr__(self):
        shown = []
        for e in self.support()[:8]:
            c = self.terms[e]
            coeff = fraction_str(c) if isinstance(c, (int, Fraction)) else str(c)
            mono = "*".join(
                f"{n}^{k}" if k > 1 else n
                for n, k in zip(self.names, e) if k)
            if mono:
                shown.append(f"{coeff}*{mono}" if coeff != "1" else mono)
            else:
                shown.append(coeff)
        body = " + ".join(shown) if shown else "0"
        if len(self.terms) > 8:
            body += " + ..."
        return f"<{body} | N={self.trunc}, {self.ring.tag}>"


def _sum_products(keys, values, partners, low=0, span=None):
    """The keys and nonzero sums of values[i] * c at key keys[i] + k, over
    each row i and each (k, c) of partners[i]: the one loop of every
    product, inverse and substitution.  Given `span`, the sums run in a list
    over the keys [low, low + span), and the keys come back ascending;
    otherwise in a dict."""
    if span is not None:
        acc = [0] * span
        for ka, ca, row in zip(keys, values, partners):
            ka -= low
            for kb, cb in row:
                acc[ka + kb] += ca * cb
        return [low + i for i, c in enumerate(acc) if c], [c for c in acc if c]
    acc = {}
    for ka, ca, row in zip(keys, values, partners):
        for kb, cb in row:
            k = ka + kb
            if k in acc:
                acc[k] += ca * cb
            else:
                acc[k] = ca * cb
    return [k for k, c in acc.items() if c], [c for c in acc.values() if c]


def _powers(base, n):
    """base^0, ..., base^n."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * base)
    return out


def _default_names(nvars):
    return ("x", "y", "r")[:nvars]


def _pack(exp, radix):
    """The key of the exponent tuple `exp` in radix `radix`: its total degree,
    then each exponent but the last, as digits."""
    key = sum(exp)
    for x in exp[:-1]:
        key = key * radix + x
    return key


def _unpack(key, radix, nvars):
    """The exponent tuple of `key`, the inverse of `_pack`: the low nvars - 1
    digits are the exponents but the last, which is the degree digit minus
    their sum."""
    head = []
    for _ in range(nvars - 1):
        key, x = divmod(key, radix)
        head.append(x)
    head.reverse()
    return (*head, key - sum(head))
