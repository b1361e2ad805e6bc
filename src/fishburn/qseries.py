"""q-Pochhammer symbols and the named series families.

The six bivariate series F1..F3, G1..G3 (interval orders refined by maximal
elements, and their self-dual/row analogues), the Kitaev-Remmel chain forms,
the gamma-generalized families, and the pentagonal sum/product/theta forms
are all built here on top of TruncatedSeries.

Every Pochhammer sum is written once, as a PochhammerSum: its first term and
its term ratio.  One generator yields the terms in any arithmetic the
package uses (series over ZZ, QQ and Q(zeta_k), Fractions, cyclotomic
elements, mpmath numbers), and each mode applies its own stopping rule.  The
formal families, the root-of-unity expansions and the terminating
evaluations all run the same specs.

An exact series sum stops at the first term that truncates to zero.  This
cutoff is exact: every term ratio is a power series of valuation >= 0, so
each later term is a multiple of the vanished one and has no monomial at or
below the truncation order either (the test suite re-checks this).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, takewhile
from math import inf
from typing import NamedTuple

from .errors import ParameterError, UnknownFamilyError
from .rings import QQ, ZZ
from .series import TruncatedSeries

BIVARIATE_NAMES = ("x", "y")
PENTAGONAL_NAMES = ("w",)


def q_pochhammer(a: TruncatedSeries, q: TruncatedSeries, n) -> TruncatedSeries:
    """(a;q)_n = prod_{k=0}^{n-1} (1 - a*q^k), with (a;q)_0 = 1.

    `n` may be a nonnegative integer or `math.inf`; the infinite product
    requires q to have zero constant term (each extra factor then starts at a
    strictly higher degree, so the truncated product is exact).
    """
    a._compat(q)
    one = TruncatedSeries.constant(a.ring, a.nvars, a.trunc, a.ring.one, a.names)
    if n == inf:
        if not a.ring.is_zero(q.constant_term):
            raise ParameterError(
                "infinite q-Pochhammer product requires q with zero constant term")
        out = one
        apow = a
        while not apow.is_zero():
            out = out * (one - apow)
            apow = apow * q
        return out
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"Pochhammer length must be a nonnegative integer, got {n!r}")
    out = one
    apow = a
    for _ in range(n):
        out = out * (one - apow)
        apow = apow * q
    return out


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
    series, Fractions, cyclotomic elements or mpmath numbers, all of one
    arithmetic, except that a mono may be a scalar next to series entries.
    """

    first: object
    monos: tuple = ()
    factors: tuple = ()
    inverses: tuple = ()
    powers: tuple = ()


def _inv(x):
    return x.invert() if isinstance(x, TruncatedSeries) else 1 / x


def _times(term, c):
    """term * c; a scalar c scales a series term instead of multiplying it."""
    if isinstance(term, TruncatedSeries) and not isinstance(c, TruncatedSeries):
        return term.scale(c)
    return term * c


def pochhammer_terms(spec: PochhammerSum):
    """Yield t_0, t_1, ... of `spec` without end: the caller's stopping rule
    decides how many terms are summed."""
    steps = [[a, r] for a, r in spec.factors]        # [a r^n, r]
    inv_steps = [[b, s] for b, s in spec.inverses]   # [b s^n, s]
    pow_steps = [[c, h] for c, h in spec.powers]     # [c h^n, h]
    term = spec.first
    yield term
    while True:
        for c in spec.monos:
            term = _times(term, c)
        for step in pow_steps:
            term = _times(term, step[0])
        for step in steps:
            term = term * (1 - step[0])
        for step in inv_steps:
            term = term * _inv(1 - step[0])
        yield term
        for step in steps + inv_steps + pow_steps:
            step[0] = step[0] * step[1]


def truncated_sum(spec: PochhammerSum) -> TruncatedSeries:
    """The exact series sum of `spec`, stopping at the first term that
    truncates to zero.  Every ratio is a power series of valuation >= 0, so
    each later term is a multiple of that one and vanishes below the cut too."""
    first = spec.first
    zero = TruncatedSeries.zero(first.ring, first.nvars, first.trunc, first.names)
    return sum(takewhile(lambda t: not t.is_zero(), pochhammer_terms(spec)), zero)


def partial_sum(spec: PochhammerSum, count: int):
    """t_0 + ... + t_{count-1} in any arithmetic, count >= 1: the value of a
    terminating sum whose term `count` vanishes."""
    terms = pochhammer_terms(spec)
    return sum(islice(terms, count - 1), next(terms))


class Point:
    """A point (p, q) of one arithmetic.  Either p or 1/p may be given, and
    likewise q; the other is computed on first use, so a sum inverts only the
    quantities it uses."""

    def __init__(self, p=None, q=None, pinv=None, qinv=None):
        self._known = {"p": p, "q": q, "pinv": pinv, "qinv": qinv}

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


def xy_point(order: int, ring, names=BIVARIATE_NAMES, inverted=False) -> Point:
    """(p, q) = (1-y, 1-x), or (1/(1-y), 1/(1-x)) when `inverted`, as series
    in `names` (x and y first) truncated at `order`."""
    nvars = len(names)
    one = TruncatedSeries.constant(ring, nvars, order, ring.one, names)
    u = one - TruncatedSeries.variable(ring, nvars, order, 0, names)
    w = one - TruncatedSeries.variable(ring, nvars, order, 1, names)
    return Point(pinv=w, qinv=u) if inverted else Point(p=w, q=u)


def _comp1_right(pt):
    step = pt.p * pt.qinv
    return PochhammerSum(step, (step,), ((pt.qinv, pt.qinv),))


# The compact sums of the paper, each as its first term and term ratio.
# F1, F2, F3 are the comp1 sums at (p, q) = (1/(1-y), 1/(1-x)); G1, G2, G3
# are the comp2 sums at (1-y, 1-x).
COMPACT_SUMS = {
    # sum_n (1/p; 1/q)_n
    "comp1-left": lambda pt: PochhammerSum(pt.one, (), ((pt.pinv, pt.qinv),)),
    # sum_n p q^n (p; q)_n (q; q)_n
    "comp1-mid": lambda pt: PochhammerSum(pt.p, (pt.q,), ((pt.p, pt.q), (pt.q, pt.q))),
    # sum_n (p/q)^{n+1} (1/q; 1/q)_n
    "comp1-right": _comp1_right,
    # sum_n (-1)^n (1/p; 1/q)_n
    "comp2-first": lambda pt: PochhammerSum(pt.one, (-1,), ((pt.pinv, pt.qinv),)),
    # sum_n p q^n (p; q)_n (-q; q)_n
    "comp2-mid": lambda pt: PochhammerSum(pt.p, (pt.q,), ((pt.p, pt.q), (-pt.q, pt.q))),
    # sum_n (q/p)^n (p; q^2)_n
    "comp2-right": lambda pt: PochhammerSum(pt.one, (pt.q * pt.pinv,),
                                            ((pt.p, pt.q * pt.q),)),
}


# The gamma generalizations, over series at (p, q) = (1-y, 1-x) with rational
# gamma != 1.  gamma = 0 removes every gamma factor, which leaves r free to be
# a formal variable: that is the formal-r proposition.


def gamma1_lhs(pt, gamma, r):
    """sum_n r^n (gamma/(r q); q)_n (1/p; 1/q)_n / (gamma; q)_n"""
    factors, inverses = ((pt.pinv, pt.qinv),), ()
    if gamma:
        factors += ((pt.qinv.scale(gamma / r), pt.q),)
        inverses = ((pt.one.scale(gamma), pt.q),)
    return PochhammerSum(pt.one, (r,), factors, inverses)


def gamma1_rhs(pt, gamma, r):
    """sum_n p q^n (p; q)_n (r q; q)_n / (gamma; q)_n"""
    inverses = ((pt.one.scale(gamma), pt.q),) if gamma else ()
    return PochhammerSum(pt.p, (pt.q,), ((pt.p, pt.q), (_times(pt.q, r), pt.q)), inverses)


def gamma2_lhs(pt, gamma):
    """sum_n (-1)^n (1/p; 1/q)_n / (gamma; 1/q^2)_{floor(n/2)}, summed in the
    pairs n = 2m, 2m+1, which turns it into the standard sum
    sum_m (1/p) q^{-2m} (1/p; 1/q^2)_m (1/(pq); 1/q^2)_m / (gamma; 1/q^2)_m."""
    q2inv = pt.qinv * pt.qinv
    factors = ((pt.pinv, q2inv), (pt.pinv * pt.qinv, q2inv))
    inverses = ((pt.one.scale(gamma), q2inv),) if gamma else ()
    return PochhammerSum(pt.pinv, (q2inv,), factors, inverses)


def gamma2_rhs(pt, gamma):
    """sum_n (q/p)^n (p; q^2)_n (gamma q p; 1/q^2)_n / (gamma; 1/q^2)_n"""
    factors, inverses = ((pt.p, pt.q * pt.q),), ()
    if gamma:
        q2inv = pt.qinv * pt.qinv
        factors += (((pt.q * pt.p).scale(gamma), q2inv),)
        inverses = ((pt.one.scale(gamma), q2inv),)
    return PochhammerSum(pt.one, (pt.q * pt.pinv,), factors, inverses)


# ---------------------------------------------------------------------------
# pentagonal forms (univariate in w)


def _pentagonal_sum(N, ring):
    # sum_{n>=0} w^{n+1} (w; w)_n: the comp1-right sum at p = 1, q = 1/w
    wv = TruncatedSeries.variable(ring, 1, N, 0, PENTAGONAL_NAMES)
    return truncated_sum(_comp1_right(Point(p=wv ** 0, qinv=wv)))


def _pentagonal_product(N, ring):
    # prod_{n>=1} (1 - w^n) = (w; w)_infinity
    wv = TruncatedSeries.variable(ring, 1, N, 0, PENTAGONAL_NAMES)
    return q_pochhammer(wv, wv, inf)


def _pentagonal_theta(N, ring):
    # sum_{n=-inf}^{inf} (-1)^n w^{n(3n-1)/2}
    terms = {}
    n = 0
    while True:
        exps = [n * (3 * n - 1) // 2, n * (3 * n + 1) // 2]  # n and -n
        if min(exps) > N:
            break
        sign = ring.from_int(1 if n % 2 == 0 else -1)
        for e in exps if n else exps[:1]:
            if e <= N:
                terms[(e,)] = terms.get((e,), ring.zero) + sign
        n += 1
    terms = {e: c for e, c in terms.items() if not ring.is_zero(c)}
    return TruncatedSeries(ring, 1, N, terms, PENTAGONAL_NAMES)


# ---------------------------------------------------------------------------
# family registry


def _summed(spec, inverted=False):
    """The expansion of a family that is the sum `spec` at (p, q) =
    (1-y, 1-x), or at (1/(1-y), 1/(1-x)) when `inverted`."""
    def expand(N, ring, *params):
        return truncated_sum(spec(xy_point(N, ring, inverted=inverted), *params))
    return expand


def _kr_first_form(N, ring):
    # 1 + sum_{n>=0} y/(1-y)^{n+1} (q; q)_n at p = 1-y, q = 1-x, where
    # y/(1-y) = 1/p - 1
    pt = xy_point(N, ring)
    return pt.one + truncated_sum(PochhammerSum(pt.pinv - pt.one, (pt.pinv,), ((pt.q, pt.q),)))


# family id -> (coefficient ring, parameter names, expand(order, ring, *parameters))
_FAMILIES = {
    "F1": (ZZ, (), _summed(COMPACT_SUMS["comp1-left"], inverted=True)),
    "F2": (ZZ, (), _summed(COMPACT_SUMS["comp1-mid"], inverted=True)),
    "F3": (ZZ, (), _summed(COMPACT_SUMS["comp1-right"], inverted=True)),
    "G1": (ZZ, (), _summed(COMPACT_SUMS["comp2-first"])),
    "G2": (ZZ, (), _summed(COMPACT_SUMS["comp2-mid"])),
    "G3": (ZZ, (), _summed(COMPACT_SUMS["comp2-right"])),
    "F3-KR-first-form": (ZZ, (), _kr_first_form),
    "pentagonal-sum": (ZZ, (), _pentagonal_sum),
    "pentagonal-product": (ZZ, (), _pentagonal_product),
    "pentagonal-theta": (ZZ, (), _pentagonal_theta),
    "gamma1-lhs": (QQ, ("gamma", "r"), _summed(gamma1_lhs)),
    "gamma1-rhs": (QQ, ("gamma", "r"), _summed(gamma1_rhs)),
    "gamma2-lhs": (QQ, ("gamma",), _summed(gamma2_lhs)),
    "gamma2-rhs": (QQ, ("gamma",), _summed(gamma2_rhs)),
}

FAMILY_IDS = tuple(sorted(_FAMILIES))


def _family(family):
    if family not in _FAMILIES:
        raise UnknownFamilyError(
            f"unknown series family {family!r}; known: {', '.join(FAMILY_IDS)}")
    return _FAMILIES[family]


def family_ring(family: str):
    """The coefficient ring of `family`'s expansion: ZZ, or QQ for the
    gamma families."""
    return _family(family)[0]


def expand_family(family: str, order: int, gamma=None, r=None) -> TruncatedSeries:
    """Expand a named series family to the given total-degree order.

    F/G families expand over the integers; gamma families take exact rational
    parameters (gamma != 1) and expand over the rationals.  Pentagonal forms
    are univariate in w.
    """
    if order < 0:
        raise ParameterError("order must be nonnegative")
    ring, params, expand = _family(family)
    if not params:
        if gamma is not None or r is not None:
            raise ParameterError(f"family {family} takes no parameters")
        return expand(order, ring)
    if "r" not in params:
        if r is not None:
            raise ParameterError(f"family {family} takes only gamma")
        return expand(order, ring, _gamma_parameter(gamma))
    gamma = _gamma_parameter(gamma)
    if family == "gamma1-lhs" and (r is None or Fraction(r) == 0):
        raise ParameterError("gamma1 family requires a nonzero rational r")
    if r is None:
        raise ParameterError("gamma1 family requires a rational r")
    return expand(order, ring, gamma, Fraction(r))


def _gamma_parameter(gamma):
    if gamma is None:
        raise ParameterError("gamma-family requires a gamma parameter")
    gamma = Fraction(gamma)
    if gamma == 1:
        raise ParameterError(
            "gamma = 1 makes the denominator factors non-invertible")
    return gamma


# ---------------------------------------------------------------------------
# dense univariate fast path


def _poly_mul(a, b, n):
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if i + j > n:
                    break
                if bj:
                    out[i + j] += ai * bj
    return out


def fishburn_numbers(n_max: int) -> list:
    """f_0..f_{n_max} via Zagier's sum_n ((1-x); (1-x))_n, dense arithmetic."""
    total = [0] * (n_max + 1)
    total[0] = 1
    prod = [1] + [0] * n_max
    upow = [1] + [0] * n_max          # (1-x)^k
    one_minus_x = [1, -1] + [0] * (n_max - 1) if n_max >= 1 else [1]
    for k in range(1, n_max + 1):
        upow = _poly_mul(upow, one_minus_x, n_max)
        factor = [-c for c in upow]
        factor[0] += 1                # 1 - (1-x)^k
        prod = _poly_mul(prod, factor, n_max)
        for i, c in enumerate(prod):
            total[i] += c
    return total


def row_fishburn_numbers(n_max: int) -> list:
    """r_0..r_{n_max} via sum_n prod_{k=1}^n (1/(1-x)^k - 1)."""
    total = [0] * (n_max + 1)
    total[0] = 1
    prod = [1] + [0] * n_max
    geom = [1] * (n_max + 1)          # 1/(1-x)
    gpow = [1] + [0] * n_max          # 1/(1-x)^k
    for k in range(1, n_max + 1):
        gpow = _poly_mul(gpow, geom, n_max)
        factor = list(gpow)
        factor[0] -= 1                # 1/(1-x)^k - 1
        prod = _poly_mul(prod, factor, n_max)
        for i, c in enumerate(prod):
            total[i] += c
    return total


def univariate_fishburn_series(which: str, order: int) -> TruncatedSeries:
    """F1(x,x) resp. G1(x,x) as a one-variable series; coefficient of x^m is
    the Fishburn number f_m resp. the row-Fishburn number r_m."""
    if which == "fishburn":
        coeffs = fishburn_numbers(order)
    elif which == "rowFishburn":
        coeffs = row_fishburn_numbers(order)
    else:
        raise UnknownFamilyError(
            f"unknown univariate sequence {which!r}; use fishburn or rowFishburn")
    terms = {(i,): c for i, c in enumerate(coeffs) if c}
    return TruncatedSeries(ZZ, 1, order, terms, ("x",))


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
    if max_part < 1 or max_weight < 1:
        raise ParameterError("table bounds must be >= 1")
    entries = {}
    for r in range(1, max_part + 1):
        # w^r * (w; w)_{r-1}, truncated at w^max_weight
        slice_poly = [0] * r + [1] + [0] * max(0, max_weight - r)
        slice_poly = slice_poly[: max_weight + 1]
        for k in range(1, r):
            factor = [1] + [0] * max_weight
            if k <= max_weight:
                factor[k] = -1
            slice_poly = _poly_mul(slice_poly, factor, max_weight)
        for s, c in enumerate(slice_poly):
            if c and s >= 1:
                entries[(r, s)] = c
    return PartitionParityTable(max_part, max_weight, entries)
