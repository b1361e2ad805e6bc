"""Rogers-Fine machinery: numeric checks and the exact Watson identity.

Every sum here is one qseries.PochhammerSum, its first term and term ratio,
summed by the package's one term loop.  A side of a numeric identity is a
function of the identity's parameters alone that returns its description, a
`Side`: the spec, its first denominator, weight and prefactor, and the label
of its denominator.  `_compare_sides` is the one place that knows the
summation budget, and the one caller of the summer.  The analytic identities
(|q| < 1, |t| < 1) are validated numerically at high precision: both sides
are summed independently until the current term is small relative to the
partial sum AND geometric decay has held for five consecutive terms.
Failing the decay guard within the term budget yields an `inconclusive`
outcome, distinct from a mismatch, so slow divergence is never mistaken for
agreement.  Near-zero denominators raise PoleError instead of silently
amplifying noise: before each term the accumulated denominator of the term
is tested, since a guard on each factor alone would refuse other inputs.
That denominator is the first one times every divisor 1 - b s^n that the
terms so far were divided by, read off the same stream of ratio factors
that the terms are, so each factor is stepped once.  The very-well-poised
factor (1 - x r^n) is a weight on each term, not part of the term ratio,
where it would divide and turn a vanishing factor into a pole the sum does
not have.

A numeric check computes in one arithmetic: complex numbers with
`decimal.Decimal` parts (`cyclotomic._DecimalComplex`, over the C library
libmpdec), the package's one numeric type, in the package's one decimal
context (`cyclotomic.decimal_context`) at the working digits, at most
DPS_CAP, whose unbounded exponent range keeps the q^{n^2} tails from
underflowing.  Each parameter is read once, exactly, from its Python
complex; the side prefactors, the pole guards, the sums and |LHS - RHS| are
all computed there, and magnitudes are compared squared.
The report and error strings print those decimals to a fixed number of
significant digits (`_nstr`, through `cyclotomic.decimal_str`), so no other
arithmetic is loaded.

Watson's transformation with f = q^{-N} is a finite sum on both sides and is
evaluated exactly over the rationals, once no denominator factor vanishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import count, islice
from operator import itemgetter
from typing import NamedTuple

from .cyclotomic import (DECIMAL_GUARD_DIGITS, _DecimalComplex, decimal_context, decimal_str,
                         fraction_str)
from .errors import BoundExceededError, ConvergenceError, ParameterError, PoleError
from .identities import VerificationReport, _record_until_failure
from .qseries import (PochhammerSum, _ratio_factors, _terms, _vanishing_index,
                      partial_sum, pochhammer_terms)

DECAY_RATIO = Decimal("0.9")
DECAY_RUN = 5
# each side is summed three orders tighter than the comparison tolerance so
# the neglected tails cannot push |LHS - RHS| across the reporting bound
SUMMATION_MARGIN = Decimal("1e-3")
# digits of working precision kept beyond the summation tolerance, so that
# rounding in the partial sums stays below it: at tol 1e-25 the sampled
# points differ by up to 1e-27 at 28 digits and report mismatches at 25
GUARD_DIGITS = 5
# the largest N of the exact Watson check: its rationals grow with N, so
# N = 128 took 0.29 s and N = 256 took 5.6 s
WATSON_N_CAP = 128
# the seed of the registry's parameter draws, and of `fishburn numeric`'s
# unless it is given one
DRAW_SEED = 20260809
# the most working digits of a numeric check: `fishburn numeric --draws 1
# --digits 1000 --tol-exp 990` sums the 400 default terms of each side in
# 0.4 to 0.7 s for rf, grf and watson-limit; 100000 digits took 8.4 to 9.3 s
DPS_CAP = 1000
# the most draws of `fishburn numeric`, whose parameter sets are all made
# before the first check: `--draws 100` takes 0.4 to 0.6 s at the defaults
DRAWS_CAP = 100
# the largest term budget of a numeric check, 25 times the default 400: a
# side whose terms never pass the decay guard (t = 0.9999999, q = 0.5) spent
# 10000 terms in 0.2 s for rf at the default 60 digits, and at 1000 digits
# (--tol-exp 990) in 2.2 to 2.3 s for rf and 3.7 s for grf, each per process
MAX_TERMS_CAP = 10000


@dataclass
class NumericEvalParams:
    """Complex parameter values plus working precision, at most DPS_CAP
    digits, and stopping rules: a term budget of at most MAX_TERMS_CAP."""

    values: dict
    dps: int = 60
    tol: str = "1e-25"
    max_terms: int = 400

    def __post_init__(self):
        if self.dps > DPS_CAP:
            raise ParameterError(f"dps (--digits) is capped at {DPS_CAP}, got {self.dps}")
        if not 1 <= self.max_terms <= MAX_TERMS_CAP:
            raise ParameterError(f"the term budget max_terms (--max-terms) must be within "
                                 f"1..{MAX_TERMS_CAP}, got {self.max_terms}")
        if Decimal(f"1e{GUARD_DIGITS - self.dps}") > Decimal(self.tol) * SUMMATION_MARGIN:
            raise ParameterError(f"{self.dps} digits are too few for tol {self.tol}: summing "
                                 f"to tol * {SUMMATION_MARGIN} needs {GUARD_DIGITS} more")


# grf-degeneration puts gamma this many decades below tol * SUMMATION_MARGIN,
# where the O(gamma) gap between the two identities cannot reach the tolerance
DEGENERATION_DECADES = 2


def _nstr(x, digits):
    """The Decimal or _DecimalComplex `x` to `digits` significant digits,
    a complex one as (re + imj) or (re - |im|j)."""
    if isinstance(x, _DecimalComplex):
        sign = "-" if x.im < 0 else "+"
        im = decimal_str(x.im.copy_abs(), digits)
        return f"({decimal_str(x.re, digits)} {sign} {im}j)"
    return decimal_str(x, digits)


def _pole_guard_exponent(dps):
    return -(2 * dps) // 3


def _pole_guard():
    """The pole guard of the open check, read off its decimal context."""
    return Decimal(f"1e{_pole_guard_exponent(getcontext().prec - DECIMAL_GUARD_DIGITS)}")


def _pole(label):
    return PoleError(f"denominator {label} is within {_nstr(_pole_guard(), 8)} of zero")


def _div(num, den, label):
    if den.norm() < _pole_guard() ** 2:
        raise _pole(label)
    return num / den


def _weighted(terms, x, r):
    """t_n * (1 - x r^n) for the terms t_0, t_1, ...: the very-well-poised
    factor, kept out of the term ratio so that it never divides."""
    for term in terms:
        yield term * (1 - x)
        x = x * r


_ONE = _DecimalComplex(Decimal(1))


class Side(NamedTuple):
    """One side of a numeric identity: `prefactor` times the sum over n of
    t_n / den0, each times the weight (1 - x r^n) when `weight` is (x, r),
    where t_0, t_1, ... are the terms of `spec`.  `label` names the
    denominator in a PoleError."""

    spec: PochhammerSum
    label: str
    den0: _DecimalComplex = _ONE
    weight: tuple | None = None
    prefactor: _DecimalComplex = _ONE


def _guarded(ratio_factors, den, label):
    """Pass on the items of the `_ratio_factors` stream `ratio_factors`.
    Before each, multiply `den` by its divisors, which makes `den` the
    denominator of the term that the item makes, and raise PoleError naming
    `label` when that is within the pole guard of zero."""
    guard2 = _pole_guard() ** 2
    for multipliers, divisors in ratio_factors:
        for d in divisors:
            den = den * d
        if den.norm() < guard2:
            raise _pole(label)
        yield multipliers, divisors


def _sum_with_guard(side, tol, max_terms):
    """The value of the Side `side`, summed until five consecutive terms are
    both small and geometrically decaying.  Returns (value, terms used).

    Before term n is computed, its denominator den0 * prod_{k<n} prod_j
    (1 - b_j s_j^k), the product of the divisors that the terms are divided
    by over the inverses (b_j, s_j) of the spec, must be at least the pole
    guard away from zero, else PoleError names the side's label.  One stream
    of ratio factors feeds both the terms and these denominators.

    Everything is decimal, in the context that the check opened: the side
    and the sum are _DecimalComplex, tol is Decimal, and the stopping rule
    and the pole guard compare squared magnitudes."""
    spec, den0, label = side.spec, side.den0, side.label
    terms = _terms(_div(spec.first, den0, label),
                   _guarded(_ratio_factors(spec), den0, label))
    if side.weight is not None:
        terms = _weighted(terms, *side.weight)
    tol2 = tol * tol
    decay2 = DECAY_RATIO ** 2
    total = _DecimalComplex(Decimal(0))
    prev = None
    run = 0
    for n, term in enumerate(terms):
        total += term
        mag2 = term.norm()
        small = mag2 < tol2 * max(1, total.norm())
        decaying = prev is None or mag2 <= decay2 * prev or mag2 == 0
        run = run + 1 if (small and decaying) else 0
        if run >= DECAY_RUN:
            return side.prefactor * total, n + 1
        prev = mag2
        if n + 1 >= max_terms:
            raise ConvergenceError(
                f"no convergence within {max_terms} terms "
                f"(last |term| = {_nstr(mag2.sqrt(), 5)})")


def _compare_sides(alias, params, sides, require=None):
    """Sum every side of the numeric identity `alias` at `params` and
    compare the first side with each other one.

    One decimal context (`decimal_context`) holds the whole check: the
    parameters are read into it once, exactly, and the sides, the sums and
    |LHS - RHS| are computed in it.  Each side takes the identity's parameters in the
    order of NUMERIC_IDENTITIES and returns its Side, which is summed to the
    summation tolerance within the term budget before the next side is
    built.  `require(vals)` may reject the point before
    any summation.  A side that fails the decay guard makes the outcome
    `inconclusive`; a difference at or above the tolerance is a mismatch,
    with the point, the first side and the side farthest from it as
    witness, and the label of that side in the detail."""
    ident, _sampler, _checker, names = NUMERIC_IDENTITIES[alias]
    rep = VerificationReport(ident, "numeric", None)
    missing = [name for name in names if name not in params.values]
    if missing:
        raise ParameterError(f"missing parameters for {ident}: {missing}")
    unknown = [name for name in params.values if name not in names]
    if unknown:
        raise ParameterError(f"{ident} takes only {list(names)}, not {unknown}")
    with decimal_context(params.dps):
        vals = {k: _DecimalComplex.read(v) for k, v in params.values.items()}
        if require is not None:
            require(vals)
        tol = Decimal(params.tol)
        args = [vals[name] for name in names]
        try:
            sums = [(s.label, *_sum_with_guard(s, tol * SUMMATION_MARGIN, params.max_terms))
                    for s in (side(*args) for side in sides)]
        except ConvergenceError as exc:
            rep.outcome = "inconclusive"
            rep.detail["reason"] = str(exc)
            return rep.finish()
        (_, left, _), *others = sums
        label, right, _ = max(others, key=lambda other: (left - other[1]).norm())
        diff2 = (left - right).norm()
        rep.detail.update({"abs_diff": _nstr(diff2.sqrt(), 8), "terms": [n for *_, n in sums],
                           "tol": params.tol})
        if diff2 >= tol * tol:
            rep.detail["side"] = label
            rep.mismatch({k: _nstr(v, 20) for k, v in vals.items()},
                         _nstr(left, 30), _nstr(right, 30))
        return rep.finish()


def _q_t_in_disk(vals):
    _require_unit_disk(q=vals["q"], t=vals["t"])


# ---------------------------------------------------------------------------
# the two Rogers-Fine sides


def rogers_fine_lhs(a, b, t, q):
    # sum_n (aq; q)_n t^n / (bq; q)_n
    return Side(PochhammerSum(_ONE, (t,), ((a * q, q),), ((b * q, q),)), "(bq;q)_n")


def rogers_fine_rhs(a, b, t, q):
    # sum_n (aq, atq/b; q)_n (bt)^n q^{n^2} (1 - atq^{2n+1}) / ((bq; q)_n (t; q)_{n+1})
    spec = PochhammerSum(_ONE, (b * t,),
                         ((a * q, q), (_div(a * t * q, b, "b"), q)),
                         ((b * q, q), (t * q, q)), powers=((q, q * q),))
    return Side(spec, "(bq;q)_n (t;q)_{n+1}", den0=1 - t, weight=(a * t * q, q * q))


def rogers_fine_check(params: NumericEvalParams) -> VerificationReport:
    return _compare_sides("rf", params, (rogers_fine_lhs, rogers_fine_rhs), _q_t_in_disk)


# ---------------------------------------------------------------------------
# generalized Rogers-Fine


def generalized_rf_lhs(alpha, beta, gamma, t, q):
    # sum_n (beta gamma/(alpha q t), alpha; q)_n t^n / (beta, gamma; q)_n
    base = _div(beta * gamma, alpha * q * t, "alpha*q*t")
    spec = PochhammerSum(_ONE, (t,), ((base, q), (alpha, q)), ((beta, q), (gamma, q)))
    return Side(spec, "(beta;q)_n (gamma;q)_n")


def generalized_rf_rhs(alpha, beta, gamma, t, q):
    # sum_n (alpha q t/beta, alpha q t/gamma, alpha; q)_n (1 - alpha t q^{2n})
    #   (-1)^n q^{binom(n,2)-n} (beta gamma/alpha)^n / ((beta, gamma; q)_n (t; q)_{n+1})
    ab = _div(alpha * q * t, beta, "beta")
    ac = _div(alpha * q * t, gamma, "gamma")
    ratio = _div(beta * gamma, alpha, "alpha")
    spec = PochhammerSum(_ONE, (-ratio,), ((ab, q), (ac, q), (alpha, q)),
                         ((beta, q), (gamma, q), (t * q, q)), powers=((1 / q, q),))
    return Side(spec, "(beta;q)_n (gamma;q)_n (t;q)_{n+1}",
                den0=1 - t, weight=(alpha * t, q * q))


def generalized_rf_check(params: NumericEvalParams) -> VerificationReport:
    return _compare_sides("grf", params, (generalized_rf_lhs, generalized_rf_rhs),
                          _q_t_in_disk)


def grf_degeneration_check(params: NumericEvalParams) -> VerificationReport:
    """gamma -> 0 path: the generalized identity at a tiny gamma = 10^e with
    alpha = a q and beta = b q must match the plain Rogers-Fine values.

    e lies DEGENERATION_DECADES below the decade of tol * SUMMATION_MARGIN
    (1e-30 at tol 1e-25).  The right side divides by gamma, so a precision
    whose pole guard would refuse that gamma is refused up front, with the
    number of digits the tolerance needs."""
    e = (Decimal(params.tol).adjusted() + SUMMATION_MARGIN.adjusted()
         - DEGENERATION_DECADES)
    if _pole_guard_exponent(params.dps) > e:
        need = next(d for d in count(params.dps) if _pole_guard_exponent(d) <= e)
        raise ParameterError(
            f"grf-degeneration at tol {params.tol} sets gamma = 1e{e}, inside the pole "
            f"guard of {params.dps} digits; it needs at least {need} digits")

    gamma = _DecimalComplex(Decimal(f"1e{e}"))

    def at_small_gamma(side):
        return lambda a, b, t, q: side(a * q, b * q, gamma, t, q)
    rep = _compare_sides("grf-degeneration", params,
                         (rogers_fine_lhs, at_small_gamma(generalized_rf_lhs),
                          at_small_gamma(generalized_rf_rhs)))
    rep.detail["gamma"] = f"1e{e}"
    return rep


# ---------------------------------------------------------------------------
# Watson limit (numeric) and Watson terminating (exact)


def watson_limit_lhs(a, b, c, e, q):
    # sum_n (b, c, e; q)_n q^{n(n+1)/2} (-a^2/(bce))^n (1 - a q^{2n})
    #   / ((aq/b, aq/c, aq/e; q)_n (1 - a))
    # exponent n(n+1)/2: the d=q, N->infinity limit of the terminating
    # transformation, consistent with the generalized Rogers-Fine
    # substitution a = alpha*t, b = alpha*q*t/beta, c = alpha*q*t/gamma
    ratio = _div(-a * a, b * c * e, "b*c*e")
    inverses = tuple((_div(a * q, x, label), q)
                     for x, label in ((b, "b"), (c, "c"), (e, "e")))
    spec = PochhammerSum(_ONE, (ratio,), ((b, q), (c, q), (e, q)), inverses,
                         powers=((q, q),))
    return Side(spec, "(aq/b,aq/c,aq/e;q)_n (1-a)", den0=1 - a, weight=(a, q * q))


def watson_limit_rhs(a, b, c, e, q):
    # (1 - a/e)/(1 - a) sum_n (aq/bc, e; q)_n (a/e)^n / (aq/b, aq/c; q)_n
    ae = _div(a, e, "e")
    pref = _div(1 - ae, 1 - a, "1-a")
    abc = _div(a * q, b * c, "b*c")
    ab = _div(a * q, b, "b")
    ac = _div(a * q, c, "c")
    spec = PochhammerSum(_ONE, (ae,), ((abc, q), (e, q)), ((ab, q), (ac, q)))
    return Side(spec, "(aq/b;q)_n (aq/c;q)_n", prefactor=pref)


def watson_limit_check(params: NumericEvalParams) -> VerificationReport:
    return _compare_sides("watson-limit", params, (watson_limit_lhs, watson_limit_rhs),
                          _watson_limit_domain)


def _watson_limit_domain(vals):
    _require_unit_disk(q=vals["q"])
    if vals["a"].norm() >= vals["e"].norm():
        raise ParameterError("watson-limit needs |a/e| < 1 for the right-hand sum")


def _require_unit_disk(**named):
    for name, val in named.items():
        if val.norm() >= 1:
            raise ParameterError(f"|{name}| must be < 1 (got {_nstr(val.norm().sqrt(), 8)})")


# ---------------------------------------------------------------------------
# exact Watson transformation at f = q^{-N}


def _refuse_exact_poles(named, q, N):
    """PoleError for the least j < N (then the first label) at which a
    denominator factor 1 - x q^j of (x; q)_N vanishes."""
    poles = [(j, label) for label, x in named.items()
             if (j := _vanishing_index(x, q)) is not None and j < N]
    if poles:
        j, label = min(poles, key=itemgetter(0))
        raise PoleError(f"({label}; q)_{j + 1} vanishes at factor j={j}")


def watson_exact(N: int, a, b, c, e, q, d=None) -> VerificationReport:
    """Exact check of Watson's transformation with f = q^{-N}.

    Both sides are finite sums (the (f;q)_n factors vanish beyond n = N) and
    are evaluated over the rationals.  `d` defaults to q, the specialization
    used throughout; any rational d is accepted.  An N above WATSON_N_CAP is
    refused before any work.  Parameter choices that hit a pole raise
    PoleError naming the vanishing factor, before any summation: a term
    whose numerator and denominator both vanish is refused as well.
    """
    if N < 1:
        raise ParameterError("N must be a positive integer")
    if N > WATSON_N_CAP:
        raise BoundExceededError(f"the exact Watson check is capped at N = {WATSON_N_CAP} "
                                 f"(got {N})")
    a, b, c, e, q = (Fraction(v) for v in (a, b, c, e, q))
    d = q if d is None else Fraction(d)
    if 0 in (a, b, c, d, e, q):
        raise ParameterError("parameters must be nonzero")
    if q in (1, -1):
        raise ParameterError("q must not be a root of unity for the exact check")
    rep = VerificationReport("watson-exact", "terminating-exact", N)
    f = q ** (-N)
    if 1 - a == 0:
        raise PoleError("(1 - a) vanishes")
    aq = a * q
    lhs_den = {"q": q, "aq/b": aq / b, "aq/c": aq / c, "aq/d": aq / d, "aq/e": aq / e,
               "aq/f": aq / f}
    _refuse_exact_poles(lhs_den, q, N)
    _refuse_exact_poles({"def/a": d * e * f / a}, q, N)

    # sum_n (a, b, c, d, e, f; q)_n (1 - a q^{2n}) (a^2 q^2/(bcdef))^n
    #   / ((q, aq/b, aq/c, aq/d, aq/e, aq/f; q)_n (1 - a))
    lhs_spec = PochhammerSum(1 / (1 - a), (aq * aq / (b * c * d * e * f),),
                             tuple((x, q) for x in (a, b, c, d, e, f)),
                             tuple((x, q) for x in lhs_den.values()))
    lhs = sum(_weighted(islice(pochhammer_terms(lhs_spec), N + 1), a, q * q))
    # (aq, aq/de; q)_N / (aq/d, aq/e; q)_N, the term N of its spec,
    #   * sum_n (aq/bc, d, e, f; q)_n q^n / (q, def/a, aq/b, aq/c; q)_n
    pref_spec = PochhammerSum(Fraction(1), (), ((aq, q), (aq / (d * e), q)),
                              ((aq / d, q), (aq / e, q)))
    pref = next(islice(pochhammer_terms(pref_spec), N, None))
    rhs_spec = PochhammerSum(Fraction(1), (q,), tuple((x, q) for x in (aq / (b * c), d, e, f)),
                             tuple((x, q) for x in (q, d * e * f / a, aq / b, aq / c)))
    rhs = pref * partial_sum(rhs_spec, N + 1)

    rep.detail.update({"lhs": fraction_str(lhs), "rhs": fraction_str(rhs),
                       "params": {k: fraction_str(v) for k, v in
                                  zip("abcdeq", (a, b, c, d, e, q))}})
    if lhs != rhs:
        rep.mismatch(f"N={N}", lhs, rhs)
    return rep.finish()


# ---------------------------------------------------------------------------
# random parameter draws, registry runners and the table of numeric identities


def random_rf_params(rng: random.Random) -> NumericEvalParams:
    return NumericEvalParams(values={
        "a": _random_disk(rng, 1.0),
        "b": _random_disk(rng, 1.0, avoid_one=True),
        "t": _random_disk(rng, 0.6),
        "q": _random_disk(rng, 0.6, min_mag=0.1),
    })


def random_grf_params(rng: random.Random) -> NumericEvalParams:
    # keep |beta*gamma/(alpha*q*t)| moderate: the comparison tolerance is
    # absolute, so both sides must stay O(1)-sized for it to be meaningful
    while True:
        values = {
            "alpha": _random_disk(rng, 1.0, min_mag=0.1),
            "beta": _random_disk(rng, 1.0, avoid_one=True, min_mag=0.05),
            "gamma": _random_disk(rng, 1.0, avoid_one=True, min_mag=0.05),
            "t": _random_disk(rng, 0.6, min_mag=0.1),
            "q": _random_disk(rng, 0.6, min_mag=0.1),
        }
        base = values["beta"] * values["gamma"] / (
            values["alpha"] * values["q"] * values["t"])
        if abs(base) <= 2.0:
            return NumericEvalParams(values=values)


def random_watson_limit_params(rng: random.Random) -> NumericEvalParams:
    a = _random_disk(rng, 0.5)
    e = _random_disk(rng, 1.0, min_mag=0.9)  # keeps |a/e| <= 0.56
    return NumericEvalParams(values={
        "a": a, "e": e,
        "b": _random_disk(rng, 1.0, min_mag=0.2),
        "c": _random_disk(rng, 1.0, min_mag=0.2),
        "q": _random_disk(rng, 0.6, min_mag=0.1),
    })


def _random_disk(rng, radius, min_mag=0.02, avoid_one=False):
    while True:
        re = rng.uniform(-radius, radius)
        im = rng.uniform(-radius, radius)
        mag = (re * re + im * im) ** 0.5
        if not min_mag <= mag <= radius:
            continue
        if avoid_one and abs(complex(re, im) - 1) < 0.1:
            continue
        return complex(re, im)


def draw_params(alias, draws, seed=None):
    """`draws` parameter sets of the numeric identity `alias`, drawn from its
    sampler with the seed `seed` (DRAW_SEED when None); a count outside
    1..DRAWS_CAP is refused before any draw."""
    if not 1 <= draws <= DRAWS_CAP:
        raise ParameterError(f"--draws {draws} is not within 1..{DRAWS_CAP}")
    sampler = NUMERIC_IDENTITIES[alias][1]
    rng = random.Random(DRAW_SEED if seed is None else seed)
    return [sampler(rng) for _ in range(draws)]


def sampled_report(alias):
    """The registry report of the numeric identity `alias`: its checker at
    three points drawn with the seed DRAW_SEED."""
    ident, _sampler, checker, _names = NUMERIC_IDENTITIES[alias]
    rep = VerificationReport(ident, "numeric")
    draws = (checker(params) for params in draw_params(alias, 3))
    return _record_until_failure(rep, "draws", draws).finish()


def registry_watson_exact_runner(order=None, **_):
    rep = VerificationReport("watson-exact", "terminating-exact")
    cases = ((1, ("1/3", "1/5", "1/7", "1/11", "1/2")),
             (2, ("2/3", "-1/5", "3/7", "5/11", "1/3")))
    return _record_until_failure(
        rep, "cases", (watson_exact(N, *params) for N, params in cases)).finish()


# The numeric identities, the one source for the CLI, the registry and the
# checkers: CLI alias -> (registry id, parameter sampler, checker, parameter
# names in the order the sides take them).
NUMERIC_IDENTITIES = {
    "rf": ("rogers-fine", random_rf_params, rogers_fine_check, ("a", "b", "t", "q")),
    "grf": ("generalized-rf", random_grf_params, generalized_rf_check,
            ("alpha", "beta", "gamma", "t", "q")),
    "watson-limit": ("watson-limit", random_watson_limit_params, watson_limit_check,
                     ("a", "b", "c", "e", "q")),
    "grf-degeneration": ("grf-degeneration", random_rf_params, grf_degeneration_check,
                         ("a", "b", "t", "q")),
}
