"""q-Pochhammer symbols and the named series families.

The six bivariate series F1..F3, G1..G3 (interval orders refined by maximal
elements, and their self-dual/row analogues), the Kitaev-Remmel chain forms,
the gamma-generalized families, both sides of the formal-r proposition
(prop12-lhs and prop12-rhs, in x, y and r), and the pentagonal
sum/product/theta forms are all built here on top of TruncatedSeries.  The
family table `_FAMILIES` gives each its coefficient ring, the parameters it
takes and its variable names, and `expand_family` reads all three from it;
`family_names` gives the names alone, which a cache entry must carry.

Every family expansion and every expansion at a root of unity refuses an
order above its cap in the one function it starts in, before it does any
work: `expand_family` for the families, against `FORMAL_ORDER_CAP` for the
series in two or three variables and `N_MAX_CAP` for the one-variable
pentagonal forms, and `roots.RootContext`, against `FORMAL_ORDER_CAP`, for
the expansions at roots of unity.  `_require_order` is the one check;
`univariate_fishburn_series` asks it against `SEQUENCE_N_CAP` for the
Fishburn and row-Fishburn sequences, and `partition_parity_table` against
`N_MAX_CAP` for its largest weight.

Every Pochhammer sum is written once, as a PochhammerSum: its first term and
its term ratio.  One generator yields the terms in any arithmetic the
package uses (series over ZZ, QQ and Q(zeta_k), Fractions, cyclotomic
elements and decimal complex numbers), and each mode applies its
own stopping rule.  The formal families, the root-of-unity expansions and
the terminating evaluations all run the same specs.

Each sum is summed as a series in the forms where its factors are sparse,
one form per coordinate, which its entry names (`SumEntry.inverse`, a pair
of p form and q form).  A factor 1 - a r^n costs a product with as many
terms as a r^n has.  The sums whose factors are in 1/p and 1/q (comp1-left,
comp2-first and the gamma lhs sides) are summed at a point given as 1/p
and 1/q: at 1/p = 1-y and 1/q = 1-x these are polynomials, while at
p = 1-y, q = 1-x the factor 1 - (1/p) q^-n is dense in both variables,
about N^2/2 terms.  comp1-right, sum (p/q)^{n+1} (1/q; 1/q)_n, is in p and
1/q, and is summed at a point given as p and 1/q.  Every other sum is
summed at a point given as p and q.

`expand_sum` is the one place that makes this choice, and the one caller
of `truncated_sum`: for the families, the pentagonal sum, the Fishburn
diagonals and the expansions at roots of unity alike.  Its point gives each
coordinate in one form, p or 1/p and q or 1/q.  A coordinate in the
entry's form is used as it is, whatever series it is: the q-only sides at
a root of unity keep p a bare variable, which has no inverse.  A coordinate
in the other form must be z = c + s t: a nonzero constant c, a sign
s = +-1 and a variable t of its own.  The sum is summed at the point
flipped to the entry's forms (`Point.flip`), whose flipped coordinate is
1/c + s t, and t is then replaced by s (1/z - 1/c), which turns 1/c + s t
into 1/z.  That is one separable substitution, and it keeps every term up
to the order exact, since each variable goes to a series of valuation 1 in
itself.  Both forms have their constants at (c, 1/c), so a certificate
asked at the constants holds in either.  At p = 1-y, q = 1-x the
substitution is the involution x -> -x/(1-x), y -> -y/(1-y)
(`involution`): G1, F2, gamma1-lhs, gamma2-lhs and prop12-lhs are
substituted in x and y, F3 in y alone, and the other families are summed
at their own point.  Around a root of unity, at p = p0 + u and
q = q0 + v (`roots`), it is u -> 1/(p0 + u) - 1/p0 and
v -> 1/(q0 + v) - 1/q0.

An exact series sum stops at the first term that truncates to zero.  This
cutoff is exact: every term ratio is a power series of valuation >= 0, so
each later term is a multiple of the vanished one and has no monomial at or
below the truncation order either (the test suite re-checks this).

A scalar sum is finite when a factor (1 - a r^n) of its term ratio
vanishes: then term n + 1 is zero, and so is every later term.  The one
termination rule, `termination_index`, reads that certificate off the spec:
it solves a r^n = 1 exactly for each factor and takes the least such n, so
terms 0..n (`partial_sum`) are the whole sum; when no factor ever vanishes
it refuses.  The terminating evaluations and the root-of-unity
certificates both ask it.  A terminating evaluation asks every certificate
first and then refuses a sum of more than TERMINATING_TERM_CAP terms, before
it sums any.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, takewhile
from math import inf, log
from typing import NamedTuple

from .cyclotomic import CyclotomicElement
from .errors import CertificateError, ParameterError, UnknownFamilyError
from .names import FAMILY_IDS
from .rings import QQ, ZZ
from .series import TruncatedSeries

BIVARIATE_NAMES = ("x", "y")
PROPOSITION_NAMES = ("x", "y", "r")
PENTAGONAL_NAMES = ("w",)

# the largest total degree of an expansion in two or three variables
FORMAL_ORDER_CAP = 32
# the largest order of the one-variable pentagonal forms, and of the
# asymptotic trend tables
N_MAX_CAP = 120
# the largest index of the Fishburn and row-Fishburn sequences, summed here
# and counted by `posets.count_ascent_sequences`: at 200 fishburn_numbers
# took 0.14-0.21 s, row_fishburn_numbers 0.23-0.32 s and the ascent count
# 0.37-0.48 s, and at 300 each took four to six times as long
SEQUENCE_N_CAP = 200


def _require_order(order, cap, what):
    """Refuse an `order` below 0 or above `cap` for the expansion `what`."""
    if order < 0:
        raise ParameterError("order must be nonnegative")
    if order > cap:
        raise ParameterError(f"order capped at {cap} for {what} (got {order})")


def q_pochhammer(a: TruncatedSeries, q: TruncatedSeries, n) -> TruncatedSeries:
    """(a;q)_n = prod_{k=0}^{n-1} (1 - a*q^k), with (a;q)_0 = 1: term n of
    the sum with first term 1 and term ratio (1 - a q^n).

    `n` may be a nonnegative integer or `math.inf`; the infinite product
    requires q to have zero constant term.  Then a q^k vanishes below the cut
    for k > N, the truncation order, so the product of the first N + 1
    factors is exact.
    """
    a._compat(q)
    if n == inf:
        if q.constant_term:
            raise ParameterError(
                "infinite q-Pochhammer product requires q with zero constant term")
        n = a.trunc + 1
    elif not isinstance(n, int) or n < 0:
        raise ParameterError(f"Pochhammer length must be a nonnegative integer, got {n!r}")
    one = TruncatedSeries.constant(a.ring, a.nvars, a.trunc, a.ring.one, a.names)
    return next(islice(pochhammer_terms(PochhammerSum(one, factors=((a, q),))), n, None))


# ---------------------------------------------------------------------------
# Pochhammer sums as term ratios


class PochhammerSum(NamedTuple):
    """The sum of t_0, t_1, ... given by t_0 = `first` and the term ratio

        t_{n+1} / t_n = prod(monos) * prod_k c_k h_k^n
                        * prod_i (1 - a_i r_i^n) / prod_j (1 - b_j s_j^n)

    with `powers` the pairs (c_k, h_k), `factors` the pairs (a_i, r_i) and
    `inverses` the pairs (b_j, s_j): the term-ratio view of Gasper-Rahman,
    Basic Hypergeometric Series (2nd ed., 2004), ch. 1.  Powers give the
    quadratic exponents of a front: q^{n^2} is (q, q^2), q^{n(n+1)/2} is
    (q, q) and q^{binom(n,2) - n} is (1/q, q).  The entries are truncated
    series, Fractions, cyclotomic elements or decimal complex numbers, all
    of one arithmetic, except that a mono may be a scalar, such as the -1
    of comp2-first.
    """

    first: object
    monos: tuple = ()
    factors: tuple = ()
    inverses: tuple = ()
    powers: tuple = ()


def _inv(x):
    return x.invert() if isinstance(x, TruncatedSeries) else 1 / x


def _ratio_factors(spec: PochhammerSum):
    """Yield, for n = 0, 1, ..., the factors of the term ratio rho_n: its
    multipliers (the monos, each c h^n and each 1 - a r^n, in that order)
    and its divisors (each 1 - b s^n).  This is the one place where a r^n,
    b s^n and c h^n advance."""
    steps = [[a, r] for a, r in spec.factors]        # [a r^n, r]
    inv_steps = [[b, s] for b, s in spec.inverses]   # [b s^n, s]
    pow_steps = [[c, h] for c, h in spec.powers]     # [c h^n, h]
    monos = list(spec.monos)
    while True:
        yield (monos + [c for c, _ in pow_steps] + [1 - a for a, _ in steps],
               [1 - b for b, _ in inv_steps])
        for step in steps + inv_steps + pow_steps:
            step[0] = step[0] * step[1]


def pochhammer_terms(spec: PochhammerSum):
    """Yield t_0, t_1, ... of `spec` without end: the caller's stopping rule
    decides how many terms are summed."""
    yield from _terms(spec.first, _ratio_factors(spec))


def _terms(term, ratio_factors):
    """Yield `term`, then each next term: the one before it times the
    multipliers, then divided by the divisors, of the next item of
    `ratio_factors`, a `_ratio_factors` stream."""
    yield term
    for multipliers, divisors in ratio_factors:
        for m in multipliers:
            term = term * m
        if not isinstance(term, TruncatedSeries):
            for d in divisors:
                term = term / d
        elif not term.is_zero():  # a term truncated to zero needs no inverses
            for d in divisors:
                term = term * d.invert()
        yield term


def truncated_sum(spec: PochhammerSum) -> TruncatedSeries:
    """The exact series sum of `spec`, stopping at the first term that
    truncates to zero.  Every ratio is a power series of valuation >= 0, so
    each later term is a multiple of that one and vanishes below the cut too."""
    first = spec.first
    zero = TruncatedSeries.zero(first.ring, first.nvars, first.trunc, first.names)
    return sum(takewhile(lambda t: not t.is_zero(), pochhammer_terms(spec)), zero)


def partial_sum(spec: PochhammerSum, count: int):
    """t_0 + ... + t_{count-1} in any arithmetic, count >= 1: the value of a
    terminating sum whose term `count` vanishes.

    A sum of Fractions is summed inside-out, t_0 (1 + rho_0 (1 + rho_1 (...)))
    over the term ratios rho_n = t_{n+1}/t_n, so that each step multiplies
    the partial value by one small ratio instead of adding a term whose
    numerator and denominator grow with n."""
    if type(spec.first) is Fraction:
        s = Fraction(1)
        for ratio in reversed(list(islice(_ratios(spec), count - 1))):
            s = 1 + ratio * s
        return spec.first * s
    terms = pochhammer_terms(spec)
    return sum(islice(terms, count - 1), next(terms))


def _ratios(spec: PochhammerSum):
    """Yield the term ratios rho_0, rho_1, ... of a scalar `spec`.  The term
    generator does not multiply by these: it applies each factor in turn,
    the order in which the numeric sums were pinned."""
    for multipliers, divisors in _ratio_factors(spec):
        ratio = 1
        for m in multipliers:
            ratio *= m
        for d in divisors:
            ratio /= d
        yield ratio


TERMINATING_SCAN_CAP = 512


def _rational_value(x):
    """x as a Fraction when it is rational, else None."""
    if isinstance(x, CyclotomicElement):
        return x.as_rational() if x.is_rational() else None
    return Fraction(x)


def _exact_log(base, n):
    """The j with base^j == n, or None (base >= 2, n >= 1).  The float
    logarithm is off by far less than 1/2 for any n that fits in memory, so
    rounding it gives the one candidate, and one exact power confirms it."""
    j = round(log(n) / log(base))
    return j if base ** j == n else None


def _rational_index(a, r):
    """The j >= 0 with a*r^j = 1 for rationals a and r, or None.  For
    |r| != 1 the prime powers fix j, since a = r^-j means
    |numerator(a)| = denominator(r)^j and denominator(a) = |numerator(r)|^j."""
    if not a or abs(r) in (0, 1):
        # a*r^j takes only the values a and a*r
        j = 0 if a == 1 else 1 if a * r == 1 else None
    elif r.denominator > 1:
        j = _exact_log(r.denominator, abs(a.numerator))
    else:
        j = _exact_log(abs(r.numerator), a.denominator)
    return j if j is not None and a * r**j == 1 else None


def _vanishing_index(a, r):
    """Smallest j >= 0 with a*r^j = 1, that is, at which the factor
    (1 - a r^j) vanishes, or None when no such j exists.

    Rational a and r are solved exactly.  So is a root of unity r in
    Q(zeta_k), whose order divides lcm(2, k): a*r^j then repeats with period
    dividing 2k.  Any other r is scanned up to TERMINATING_SCAN_CAP; if that
    finds nothing, the refusal says the search was not exhaustive instead of
    claiming that no j exists.
    """
    rr = _rational_value(r)
    if rr is not None:
        ar = _rational_value(a)
        # r^j is rational, so a*r^j = 1 needs a rational a
        return None if ar is None else _rational_index(ar, rr)
    root_of_unity = r ** (2 * r.field.k) == 1
    t = a
    for j in range(2 * r.field.k if root_of_unity else TERMINATING_SCAN_CAP + 1):
        if t == 1:
            return j
        t = t * r
    if root_of_unity:
        return None
    raise CertificateError(
        f"no j <= {TERMINATING_SCAN_CAP} with a*r^j = 1 at a={a!r}, r={r!r}, and r "
        "is neither rational nor a root of unity, so the search is not exhaustive; "
        "refusing to evaluate a possibly non-terminating sum")


# the most terms an exact terminating sum is summed to: its terms grow with
# the certificate, so at p = 2^k, q = 1/2 the k + 1 terms of comp1 took
# 0.45 s at k = 512 and 6 s at k = 1024
TERMINATING_TERM_CAP = 512


def termination_index(spec: PochhammerSum) -> int:
    """The least n at which a factor (1 - a r^n) of scalar `spec` vanishes,
    so that terms 0..n are the whole sum; refused when no factor vanishes.

    A factor whose scan cannot decide is passed over when another factor
    vanishes: every term after a zero term is zero, so the sum is the same
    whichever vanishing factor ends it."""
    found, undecided = [], None
    for a, r in spec.factors:
        try:
            j = _vanishing_index(a, r)
        except CertificateError as err:
            undecided = err
            continue
        if j is not None:
            found.append(j)
    if found:
        return min(found)
    raise undecided or CertificateError(
        "no termination certificate: no factor (1 - a*r^j) of the sum vanishes "
        "at any j >= 0, so no such j exists; refusing to evaluate a "
        "non-terminating sum")


class Point:
    """A point (p, q) of one arithmetic.  Either p or 1/p may be given, and
    likewise q; the other is computed on first use, so a sum inverts only the
    quantities it uses.  `inverse` is the pair of its forms, (p form, q form),
    each True when that coordinate is given as its inverse."""

    def __init__(self, p=None, q=None, pinv=None, qinv=None):
        self._known = {"p": p, "q": q, "pinv": pinv, "qinv": qinv}
        self.inverse = (p is None, q is None)

    def _get(self, name, inverse):
        if self._known[name] is None:
            self._known[name] = _inv(self._known[inverse])
        return self._known[name]

    p = property(lambda self: self._get("p", "pinv"))
    q = property(lambda self: self._get("q", "qinv"))
    pinv = property(lambda self: self._get("pinv", "p"))
    qinv = property(lambda self: self._get("qinv", "q"))

    @property
    def one(self):
        # x ** 0 is the unit of x's arithmetic, whichever arithmetic it is
        q = self._known["q"]
        return (self._known["qinv"] if q is None else q) ** 0

    def flip(self, forms):
        """This point of series given in `forms`, and the substitution that
        carries a series there back here: each coordinate c + s t whose form
        differs becomes 1/c + s t, and its t goes to s (1/z - 1/c).  The
        other coordinates are kept as they are, and with none flipped the
        substitution is empty."""
        coords, back = {}, {}
        for name, form, given in zip(("p", "q"), forms, self.inverse):
            z = self._known[name + "inv" if given else name]
            if form != given:
                z, shift = _flip(z)
                back.update(shift)
            coords[name + "inv" if form else name] = z
        return Point(**coords), back


def _flip(z):
    """The coordinate z = c + s t, with c != 0, s = +-1 and t a variable of
    its own, in the other form, 1/c + s t, and the substitution
    {t: s (1/z - 1/c)} under which that is 1/z."""
    c = z.constant_term
    st = z - c  # s t
    for i in range(z.nvars):
        t = TruncatedSeries.variable(z.ring, z.nvars, z.trunc, i, z.names)
        if c and st in (t, -t):
            zinv = z.invert()
            cinv = zinv.constant_term
            shift = zinv - cinv  # 1/z - 1/c
            return st + cinv, {i: shift if st == t else -shift}
    raise ParameterError(f"coordinate {z!r} is not a constant plus or minus one variable")


def xy_point(order: int, ring, names=BIVARIATE_NAMES, inverted=False) -> Point:
    """(p, q) = (1-y, 1-x), or (1/(1-y), 1/(1-x)) when `inverted`, as series
    in `names` (x and y first) truncated at `order`."""
    nvars = len(names)
    one = TruncatedSeries.constant(ring, nvars, order, ring.one, names)
    u = one - TruncatedSeries.variable(ring, nvars, order, 0, names)
    w = one - TruncatedSeries.variable(ring, nvars, order, 1, names)
    return Point(pinv=w, qinv=u) if inverted else Point(p=w, q=u)


class SumEntry(NamedTuple):
    """A Pochhammer sum as a function of its point (and parameters), which
    returns its PochhammerSum, and the forms of the point where its series
    is summed (`expand_sum`): a (p form, q form) pair like `Point.inverse`,
    each True when the sum's factors are in the inverse of that coordinate.
    Calling the entry calls the function."""

    spec: object
    inverse: tuple = (False, False)

    def __call__(self, pt, *params):
        return self.spec(pt, *params)


# The compact sums of the paper, each as its first term and term ratio.
# F1, F2, F3 are the comp1 sums at (p, q) = (1/(1-y), 1/(1-x)); G1, G2, G3
# are the comp2 sums at (1-y, 1-x).
COMPACT_SUMS = {
    # sum_n (1/p; 1/q)_n
    "comp1-left": SumEntry(lambda pt: PochhammerSum(pt.one, (), ((pt.pinv, pt.qinv),)),
                           inverse=(True, True)),
    # sum_n p q^n (p; q)_n (q; q)_n
    "comp1-mid": SumEntry(lambda pt: PochhammerSum(pt.p, (pt.q,),
                                                   ((pt.p, pt.q), (pt.q, pt.q)))),
    # sum_n (p/q)^{n+1} (1/q; 1/q)_n
    "comp1-right": SumEntry(lambda pt: PochhammerSum(step := pt.p * pt.qinv, (step,),
                                                     ((pt.qinv, pt.qinv),)),
                            inverse=(False, True)),
    # sum_n (-1)^n (1/p; 1/q)_n
    "comp2-first": SumEntry(lambda pt: PochhammerSum(pt.one, (-1,), ((pt.pinv, pt.qinv),)),
                            inverse=(True, True)),
    # sum_n p q^n (p; q)_n (-q; q)_n
    "comp2-mid": SumEntry(lambda pt: PochhammerSum(pt.p, (pt.q,),
                                                   ((pt.p, pt.q), (-pt.q, pt.q)))),
    # sum_n (q/p)^n (p; q^2)_n
    "comp2-right": SumEntry(lambda pt: PochhammerSum(pt.one, (pt.q * pt.pinv,),
                                                     ((pt.p, pt.q * pt.q),))),
}


# The gamma generalizations, over series at (p, q) = (1-y, 1-x) with rational
# gamma != 1.  gamma = 0 removes every gamma factor, which leaves r free to be
# a formal variable: that is the formal-r proposition (`_formal_r`).


def _gamma1_lhs(pt, gamma, r):
    """sum_n r^n (gamma/(r q); q)_n (1/p; 1/q)_n / (gamma; q)_n"""
    factors, inverses = ((pt.pinv, pt.qinv),), ()
    if gamma:
        factors += ((pt.qinv.scale(gamma / r), pt.q),)
        inverses = ((pt.one.scale(gamma), pt.q),)
    return PochhammerSum(pt.one, (r,), factors, inverses)


def _gamma1_rhs(pt, gamma, r):
    """sum_n p q^n (p; q)_n (r q; q)_n / (gamma; q)_n"""
    inverses = ((pt.one.scale(gamma), pt.q),) if gamma else ()
    return PochhammerSum(pt.p, (pt.q,), ((pt.p, pt.q), (pt.q * r, pt.q)), inverses)


def _gamma2_lhs(pt, gamma):
    """sum_n (-1)^n (1/p; 1/q)_n / (gamma; 1/q^2)_{floor(n/2)}, summed in the
    pairs n = 2m, 2m+1, which turns it into the standard sum
    sum_m (1/p) q^{-2m} (1/p; 1/q^2)_m (1/(pq); 1/q^2)_m / (gamma; 1/q^2)_m."""
    q2inv = pt.qinv * pt.qinv
    factors = ((pt.pinv, q2inv), (pt.pinv * pt.qinv, q2inv))
    inverses = ((pt.one.scale(gamma), q2inv),) if gamma else ()
    return PochhammerSum(pt.pinv, (q2inv,), factors, inverses)


def _gamma2_rhs(pt, gamma):
    """sum_n (q/p)^n (p; q^2)_n (gamma q p; 1/q^2)_n / (gamma; 1/q^2)_n"""
    factors, inverses = ((pt.p, pt.q * pt.q),), ()
    if gamma:
        q2inv = pt.qinv * pt.qinv
        factors += (((pt.q * pt.p).scale(gamma), q2inv),)
        inverses = ((pt.one.scale(gamma), q2inv),)
    return PochhammerSum(pt.one, (pt.q * pt.pinv,), factors, inverses)


# the gamma sums by family id; the lhs sides carry the factor (1/p; 1/q)_n
GAMMA_SUMS = {
    "gamma1-lhs": SumEntry(_gamma1_lhs, inverse=(True, True)),
    "gamma1-rhs": SumEntry(_gamma1_rhs),
    "gamma2-lhs": SumEntry(_gamma2_lhs, inverse=(True, True)),
    "gamma2-rhs": SumEntry(_gamma2_rhs),
}


def involution(order: int, ring, names=BIVARIATE_NAMES) -> dict:
    """x -> -x/(1-x), y -> -y/(1-y) as a `TruncatedSeries.substitute`
    assignment, in `names` (x and y first) truncated at `order`: the flip of
    (p, q) = (1-y, 1-x).  Since 1 - (-x/(1-x)) = 1/(1-x), it turns a series
    f(1-y, 1-x) into f(1/(1-y), 1/(1-x)), and the other way round."""
    return xy_point(order, ring, names).flip((True, True))[1]


def expand_sum(entry: SumEntry, point: Point, *params) -> TruncatedSeries:
    """The sum `entry` with `params` as a series at `point`, a point of
    series whose coordinates are each a constant plus or minus a variable of
    its own.  It is summed at `point` when the entry's forms are the point's,
    and otherwise at the point flipped to the entry's forms and carried back
    by one separable substitution (see the module docstring)."""
    other, back = point.flip(entry.inverse)
    return truncated_sum(entry(other, *params)).substitute(back)


# ---------------------------------------------------------------------------
# pentagonal forms (univariate in w)


def _pentagonal_point(N, ring):
    # sum_{n>=0} w^{n+1} (w; w)_n is the comp1-right sum at p = 1, q = 1/w
    wv = TruncatedSeries.variable(ring, 1, N, 0, PENTAGONAL_NAMES)
    return Point(p=wv ** 0, qinv=wv)


def _pentagonal_sum(N, ring):
    return expand_sum(COMPACT_SUMS["comp1-right"], _pentagonal_point(N, ring))


def _pentagonal_product(N, ring):
    # prod_{n>=1} (1 - w^n) = (w; w)_infinity
    wv = TruncatedSeries.variable(ring, 1, N, 0, PENTAGONAL_NAMES)
    return q_pochhammer(wv, wv, inf)


def _pentagonal_theta(N, ring):
    # sum_{n=-inf}^{inf} (-1)^n w^{n(3n-1)/2}: the exponents are distinct and
    # each is at least |n|, so n in [-N, N] reaches every one <= N
    terms = {}
    for n in range(-N, N + 1):
        e = n * (3 * n - 1) // 2
        if e <= N:
            terms[(e,)] = ring.coerce(1 - 2 * (n % 2))
    return TruncatedSeries(ring, 1, N, terms, PENTAGONAL_NAMES)


# ---------------------------------------------------------------------------
# family registry


def _summed(entry, inverted=False):
    """The expansion of a family that is the sum `entry` at (p, q) =
    (1-y, 1-x), or at (1/(1-y), 1/(1-x)) when `inverted`."""
    def expand(N, ring, *params):
        return expand_sum(entry, xy_point(N, ring, inverted=inverted), *params)
    return expand


def _formal_r(entry):
    """The expansion of the gamma1 side `entry` at gamma = 0, (p, q) =
    (1-y, 1-x) and r the third variable: a side of the formal-r proposition."""
    def expand(N, ring):
        r = TruncatedSeries.variable(ring, 3, N, 2, PROPOSITION_NAMES)
        return expand_sum(entry, xy_point(N, ring, PROPOSITION_NAMES), 0, r)
    return expand


# F3-KR-first-form is 1 + sum_{n>=0} y/(1-y)^{n+1} (q; q)_n at p = 1-y,
# q = 1-x, where y/(1-y) = 1/p - 1: one plus this sum
KR_SUM = SumEntry(lambda pt: PochhammerSum(pt.pinv - pt.one, (pt.pinv,), ((pt.q, pt.q),)))


def _kr_first_form(N, ring):
    return 1 + expand_sum(KR_SUM, xy_point(N, ring))


# family id -> (coefficient ring, parameter names, variable names,
#                expand(order, ring, *parameters)); the variable count
# fixes the order cap
_FAMILIES = {
    "F1": (ZZ, (), BIVARIATE_NAMES, _summed(COMPACT_SUMS["comp1-left"], inverted=True)),
    "F2": (ZZ, (), BIVARIATE_NAMES, _summed(COMPACT_SUMS["comp1-mid"], inverted=True)),
    "F3": (ZZ, (), BIVARIATE_NAMES, _summed(COMPACT_SUMS["comp1-right"], inverted=True)),
    "G1": (ZZ, (), BIVARIATE_NAMES, _summed(COMPACT_SUMS["comp2-first"])),
    "G2": (ZZ, (), BIVARIATE_NAMES, _summed(COMPACT_SUMS["comp2-mid"])),
    "G3": (ZZ, (), BIVARIATE_NAMES, _summed(COMPACT_SUMS["comp2-right"])),
    "F3-KR-first-form": (ZZ, (), BIVARIATE_NAMES, _kr_first_form),
    "pentagonal-sum": (ZZ, (), PENTAGONAL_NAMES, _pentagonal_sum),
    "pentagonal-product": (ZZ, (), PENTAGONAL_NAMES, _pentagonal_product),
    "pentagonal-theta": (ZZ, (), PENTAGONAL_NAMES, _pentagonal_theta),
    "gamma1-lhs": (QQ, ("gamma", "r"), BIVARIATE_NAMES, _summed(GAMMA_SUMS["gamma1-lhs"])),
    "gamma1-rhs": (QQ, ("gamma", "r"), BIVARIATE_NAMES, _summed(GAMMA_SUMS["gamma1-rhs"])),
    "gamma2-lhs": (QQ, ("gamma",), BIVARIATE_NAMES, _summed(GAMMA_SUMS["gamma2-lhs"])),
    "gamma2-rhs": (QQ, ("gamma",), BIVARIATE_NAMES, _summed(GAMMA_SUMS["gamma2-rhs"])),
    "prop12-lhs": (ZZ, (), PROPOSITION_NAMES, _formal_r(GAMMA_SUMS["gamma1-lhs"])),
    "prop12-rhs": (ZZ, (), PROPOSITION_NAMES, _formal_r(GAMMA_SUMS["gamma1-rhs"])),
}


def _family(family):
    if family not in _FAMILIES:
        raise UnknownFamilyError(
            f"unknown series family {family!r}; known: {', '.join(FAMILY_IDS)}")
    return _FAMILIES[family]


def family_ring(family: str):
    """The coefficient ring of `family`'s expansion: ZZ, or QQ for the
    gamma families."""
    return _family(family)[0]


def family_parameters(family: str) -> tuple:
    """The names of the parameters `family` takes, in the order its
    expansion takes them."""
    return _family(family)[1]


def family_names(family: str) -> tuple:
    """The names of the variables of `family`'s expansion."""
    return _family(family)[2]


def expand_family(family: str, order: int, **params) -> TruncatedSeries:
    """Expand a named series family to the given total-degree order.

    A family takes exactly the parameters its table entry names (a None
    value is not given), each an exact rational: the gamma families take
    gamma != 1, and gamma1-lhs a nonzero r, and expand over the rationals.
    Every other family takes none and expands over the integers; the
    pentagonal forms are univariate in w.  An order above the family's cap
    is refused before any work.
    """
    ring, names, variables, expand = _family(family)
    _require_order(order, N_MAX_CAP if len(variables) == 1 else FORMAL_ORDER_CAP, family)
    given = {k: v for k, v in params.items() if v is not None}
    if sorted(given) != sorted(names):
        raise ParameterError(
            f"family {family} takes {' and '.join(names) or 'no parameters'}, "
            f"got {' and '.join(sorted(given)) or 'none'}")
    values = {name: Fraction(given[name]) for name in names}
    if values.get("gamma") == 1:
        raise ParameterError("gamma = 1 makes the denominator factors non-invertible")
    if family == "gamma1-lhs" and values["r"] == 0:
        raise ParameterError("gamma1 family requires a nonzero rational r")
    return expand(order, ring, *values.values())


# ---------------------------------------------------------------------------
# the Fishburn and row-Fishburn sequences


# The x = y diagonals of the two identities, as sums at points in u = 1 - x.
_DIAGONALS = {
    # F1(x, x) = sum_n (u; u)_n, Zagier's sum (Topology 40, 2001)
    "fishburn": lambda u: (COMPACT_SUMS["comp1-left"], Point(pinv=u, qinv=u)),
    # G3(x, x) = sum_n (u; u^2)_n: each factor 1 - u^{2k+1} is sparse, where
    # the G1 diagonal multiplies dense series in 1/u
    "rowFishburn": lambda u: (COMPACT_SUMS["comp2-right"], Point(p=u, q=u)),
}


def univariate_fishburn_series(which: str, order: int) -> TruncatedSeries:
    """F1(x,x) resp. G3(x,x) as a one-variable series; coefficient of x^m is
    the Fishburn number f_m resp. the row-Fishburn number r_m, for an order
    of at most SEQUENCE_N_CAP."""
    if which not in _DIAGONALS:
        raise UnknownFamilyError(
            f"unknown univariate sequence {which!r}; use fishburn or rowFishburn")
    _require_order(order, SEQUENCE_N_CAP, f"the {which} sequence")
    one = TruncatedSeries.constant(ZZ, 1, order, 1, ("x",))
    u = one - TruncatedSeries.variable(ZZ, 1, order, 0, ("x",))
    return expand_sum(*_DIAGONALS[which](u))


def _coefficients(series) -> list:
    return [series.terms.get((m,), 0) for m in range(series.trunc + 1)]


def fishburn_numbers(n_max: int) -> list:
    """f_0..f_{n_max}, the coefficients of F1(x, x)."""
    return _coefficients(univariate_fishburn_series("fishburn", n_max))


def row_fishburn_numbers(n_max: int) -> list:
    """r_0..r_{n_max}, the coefficients of G3(x, x)."""
    return _coefficients(univariate_fishburn_series("rowFishburn", n_max))


# ---------------------------------------------------------------------------
# partition side table


class PartitionParityTable:
    """a_{r,s}: (odd - even)-part-count surplus of distinct partitions of s
    with largest part exactly r, for 1 <= r <= R, 1 <= s <= S.

    Built by formally expanding sum_n (pw)^{n+1} (w; w)_n in p and w: the
    summand n carries p-degree exactly n+1, so the p^r slice is w^r (w;w)_{r-1}
    with no truncation effects in p.
    """

    def __init__(self, max_part: int, max_weight: int, entries: dict):
        self.max_part = max_part
        self.max_weight = max_weight
        self.entries = entries

    def a(self, r: int, s: int) -> int:
        if not (1 <= r <= self.max_part and 1 <= s <= self.max_weight):
            raise ParameterError(
                f"(r, s) = ({r}, {s}) outside table bounds "
                f"({self.max_part}, {self.max_weight})")
        return self.entries.get((r, s), 0)


def partition_parity_table(max_part: int, max_weight: int) -> PartitionParityTable:
    """The table a_{r,s} for r <= max_part and s <= max_weight; a max_weight
    above N_MAX_CAP is refused before any work."""
    if max_part < 1 or max_weight < 1:
        raise ParameterError("table bounds must be >= 1")
    _require_order(max_weight, N_MAX_CAP, "the partition parity table")
    # slice r is term r - 1 of the pentagonal sum, w^r (w; w)_{r-1}, which
    # is zero below the cut for r > max_weight: those rows are not made
    terms = pochhammer_terms(COMPACT_SUMS["comp1-right"](_pentagonal_point(max_weight, ZZ)))
    entries = {(r, s): c for r, term in enumerate(islice(terms, min(max_part, max_weight)), 1)
               for (s,), c in sorted(term.terms.items())}
    return PartitionParityTable(max_part, max_weight, entries)
