"""Rogers-Fine machinery: numeric checks and the exact Watson identity.

Every sum here is one qseries.PochhammerSum, its first term and term ratio,
summed by the package's one term generator.  The analytic identities
(|q| < 1, |t| < 1) are validated numerically at high precision: both sides
are summed independently until the current term is small relative to the
partial sum AND geometric decay has held for five consecutive terms.
Failing the decay guard within the term budget yields an `inconclusive`
outcome, distinct from a mismatch, so slow divergence is never mistaken for
agreement.  Near-zero denominators raise PoleError instead of silently
amplifying noise: before each term the accumulated denominator of the term
is tested, since a guard on each factor alone would refuse other inputs.
The very-well-poised factor (1 - x r^n) is a weight on each term, not part
of the term ratio, where it would divide and turn a vanishing factor into a
pole the sum does not have.

Watson's transformation with f = q^{-N} is a finite sum on both sides and is
evaluated exactly over the rationals, once no denominator factor vanishes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

import mpmath as mp

from .errors import ConvergenceError, ParameterError, PoleError
from .identities import VerificationReport, _timed, fraction_str
from .qseries import PochhammerSum, partial_sum, pochhammer_terms

DECAY_RATIO = mp.mpf("0.9")
DECAY_RUN = 5
# each side is summed three orders tighter than the comparison tolerance so
# the neglected tails cannot push |LHS - RHS| across the reporting bound
SUMMATION_MARGIN = mp.mpf("1e-3")
# digits of working precision kept beyond the summation tolerance, so that
# rounding in the partial sums stays below it: at tol 1e-25 the sampled
# points differ by up to 1e-27 at 28 digits and report mismatches at 25
GUARD_DIGITS = 5


@dataclass
class NumericEvalParams:
    """Complex parameter values plus working precision and stopping rules."""

    values: dict
    dps: int = 60
    tol: str = "1e-25"
    max_terms: int = 400

    def __post_init__(self):
        if mp.mpf(10) ** (GUARD_DIGITS - self.dps) > self.tolerance() * SUMMATION_MARGIN:
            raise ParameterError(f"{self.dps} digits are too few for tol {self.tol}: summing "
                                 f"to tol * {SUMMATION_MARGIN} needs {GUARD_DIGITS} more")

    def tolerance(self):
        return mp.mpf(self.tol)


def _pole_guard(dps):
    return mp.mpf(10) ** (-(2 * dps) // 3)


def _refuse_pole(den, guard, label):
    if abs(den) < guard:
        raise PoleError(f"denominator {label} is within {guard} of zero")


def _div(num, den, guard, label):
    _refuse_pole(den, guard, label)
    return num / den


def _weighted(terms, x, r):
    """t_n * (1 - x r^n) for the terms t_0, t_1, ...: the very-well-poised
    factor, kept out of the term ratio so that it never divides."""
    for term in terms:
        yield term * (1 - x)
        x = x * r


def _sum_with_guard(spec, tol, max_terms, guard, label, den0=1, weight=None):
    """Sum the terms of `spec` divided by `den0`, each times the weight
    (1 - x r^n) when `weight` is (x, r), until five consecutive terms are
    both small and geometrically decaying.  Returns (sum, terms used).

    Before term n is computed, its accumulated denominator den0 * prod_{k<n}
    prod_j (1 - b_j s_j^k) over the inverses (b_j, s_j) of `spec` must be at
    least `guard` away from zero, else PoleError names `label`.  These
    denominators are the terms of the spec with first term den0 and the
    inverses of `spec` as factors."""
    terms = pochhammer_terms(spec._replace(first=_div(spec.first, den0, guard, label)))
    if weight is not None:
        terms = _weighted(terms, *weight)
    dens = pochhammer_terms(PochhammerSum(den0, factors=spec.inverses))
    total = mp.mpc(0)
    prev_mag = None
    run = 0
    for n in count():
        _refuse_pole(next(dens), guard, label)
        term = next(terms)
        total += term
        mag = abs(term)
        small = mag < tol * max(1, abs(total))
        decaying = prev_mag is None or mag <= DECAY_RATIO * prev_mag or mag == 0
        run = run + 1 if (small and decaying) else 0
        if run >= DECAY_RUN:
            return total, n + 1
        prev_mag = mag
        if n + 1 >= max_terms:
            raise ConvergenceError(
                f"no convergence within {max_terms} terms "
                f"(last |term| = {mp.nstr(mag, 5)})")


def _compare_sides(alias, params, sides, require=None):
    """Sum every side of the numeric identity `alias` at `params` and
    compare the first side with each other one.

    The sides take the identity's parameters in the order of
    NUMERIC_IDENTITIES, then the summation tolerance, the term budget and
    the pole guard.  `require(vals)` may reject the point before any
    summation.  A side that fails the decay guard makes the outcome
    `inconclusive`; a difference at or above the tolerance is a mismatch,
    with the point and the first two sides as witness."""
    ident, _sampler, _checker, names = NUMERIC_IDENTITIES[alias]
    missing = [name for name in names if name not in params.values]
    if missing:
        raise ParameterError(f"missing parameters for {ident}: {missing}")
    unknown = [name for name in params.values if name not in names]
    if unknown:
        raise ParameterError(f"{ident} takes only {list(names)}, not {unknown}")
    t0 = time.perf_counter()
    with mp.workdps(params.dps):
        vals = {k: mp.mpc(v) for k, v in params.values.items()}
        if require is not None:
            require(vals)
        tol = params.tolerance()
        budget = (tol * SUMMATION_MARGIN, params.max_terms, _pole_guard(params.dps))
        rep = VerificationReport(ident, "numeric", None)
        try:
            sums = [side(*(vals[name] for name in names), *budget) for side in sides]
        except ConvergenceError as exc:
            rep.outcome = "inconclusive"
            rep.detail["reason"] = str(exc)
            return _timed(rep, t0)
        (left, _), (right, _) = sums[:2]
        diff = max(abs(left - value) for value, _ in sums[1:])
        rep.detail.update({"abs_diff": mp.nstr(diff, 8), "terms": [n for _, n in sums],
                           "tol": params.tol})
        if diff >= tol:
            rep.outcome = "mismatch"
            rep.witness = {"index": {k: mp.nstr(v, 20) for k, v in vals.items()},
                           "left": mp.nstr(left, 30), "right": mp.nstr(right, 30)}
        return _timed(rep, t0)


def _q_t_in_disk(vals):
    _require_unit_disk(q=vals["q"], t=vals["t"])


# ---------------------------------------------------------------------------
# the two Rogers-Fine sides


def rogers_fine_lhs(a, b, t, q, tol, max_terms, guard):
    # sum_n (aq; q)_n t^n / (bq; q)_n
    spec = PochhammerSum(mp.mpc(1), (t,), ((a * q, q),), ((b * q, q),))
    return _sum_with_guard(spec, tol, max_terms, guard, "(bq;q)_n")


def rogers_fine_rhs(a, b, t, q, tol, max_terms, guard):
    # sum_n (aq, atq/b; q)_n (bt)^n q^{n^2} (1 - atq^{2n+1}) / ((bq; q)_n (t; q)_{n+1})
    spec = PochhammerSum(mp.mpc(1), (b * t,),
                         ((a * q, q), (_div(a * t * q, b, guard, "b"), q)),
                         ((b * q, q), (t * q, q)), powers=((q, q * q),))
    return _sum_with_guard(spec, tol, max_terms, guard, "(bq;q)_n (t;q)_{n+1}",
                           den0=1 - t, weight=(a * t * q, q * q))


def rogers_fine_check(params: NumericEvalParams) -> VerificationReport:
    return _compare_sides("rf", params, (rogers_fine_lhs, rogers_fine_rhs), _q_t_in_disk)


# ---------------------------------------------------------------------------
# generalized Rogers-Fine


def generalized_rf_lhs(alpha, beta, gamma, t, q, tol, max_terms, guard):
    # sum_n (beta gamma/(alpha q t), alpha; q)_n t^n / (beta, gamma; q)_n
    base = _div(beta * gamma, alpha * q * t, guard, "alpha*q*t")
    spec = PochhammerSum(mp.mpc(1), (t,), ((base, q), (alpha, q)), ((beta, q), (gamma, q)))
    return _sum_with_guard(spec, tol, max_terms, guard, "(beta;q)_n (gamma;q)_n")


def generalized_rf_rhs(alpha, beta, gamma, t, q, tol, max_terms, guard):
    # sum_n (alpha q t/beta, alpha q t/gamma, alpha; q)_n (1 - alpha t q^{2n})
    #   (-1)^n q^{binom(n,2)-n} (beta gamma/alpha)^n / ((beta, gamma; q)_n (t; q)_{n+1})
    ab = _div(alpha * q * t, beta, guard, "beta")
    ac = _div(alpha * q * t, gamma, guard, "gamma")
    ratio = _div(beta * gamma, alpha, guard, "alpha")
    spec = PochhammerSum(mp.mpc(1), (-ratio,), ((ab, q), (ac, q), (alpha, q)),
                         ((beta, q), (gamma, q), (t * q, q)), powers=((1 / q, q),))
    return _sum_with_guard(spec, tol, max_terms, guard,
                           "(beta;q)_n (gamma;q)_n (t;q)_{n+1}",
                           den0=1 - t, weight=(alpha * t, q * q))


def generalized_rf_check(params: NumericEvalParams) -> VerificationReport:
    return _compare_sides("grf", params, (generalized_rf_lhs, generalized_rf_rhs),
                          _q_t_in_disk)


def grf_degeneration_check(params: NumericEvalParams) -> VerificationReport:
    """gamma -> 0 path: the generalized identity at gamma = 1e-30 with
    alpha = a q and beta = b q must match the plain Rogers-Fine values."""
    gamma = "1e-30"

    def at_small_gamma(side):
        return lambda a, b, t, q, *budget: side(a * q, b * q, mp.mpc(gamma), t, q, *budget)
    rep = _compare_sides("grf-degeneration", params,
                         (rogers_fine_lhs, at_small_gamma(generalized_rf_lhs),
                          at_small_gamma(generalized_rf_rhs)))
    rep.detail["gamma"] = gamma
    return rep


# ---------------------------------------------------------------------------
# Watson limit (numeric) and Watson terminating (exact)


def watson_limit_lhs(a, b, c, e, q, tol, max_terms, guard):
    # sum_n (b, c, e; q)_n q^{n(n+1)/2} (-a^2/(bce))^n (1 - a q^{2n})
    #   / ((aq/b, aq/c, aq/e; q)_n (1 - a))
    # exponent n(n+1)/2: the d=q, N->infinity limit of the terminating
    # transformation, consistent with the generalized Rogers-Fine
    # substitution a = alpha*t, b = alpha*q*t/beta, c = alpha*q*t/gamma
    ratio = _div(-a * a, b * c * e, guard, "b*c*e")
    inverses = tuple((_div(a * q, x, guard, label), q)
                     for x, label in ((b, "b"), (c, "c"), (e, "e")))
    spec = PochhammerSum(mp.mpc(1), (ratio,), ((b, q), (c, q), (e, q)), inverses,
                         powers=((q, q),))
    return _sum_with_guard(spec, tol, max_terms, guard, "(aq/b,aq/c,aq/e;q)_n (1-a)",
                           den0=1 - a, weight=(a, q * q))


def watson_limit_rhs(a, b, c, e, q, tol, max_terms, guard):
    # (1 - a/e)/(1 - a) sum_n (aq/bc, e; q)_n (a/e)^n / (aq/b, aq/c; q)_n
    ae = _div(a, e, guard, "e")
    pref = _div(1 - ae, 1 - a, guard, "1-a")
    abc = _div(a * q, b * c, guard, "b*c")
    ab = _div(a * q, b, guard, "b")
    ac = _div(a * q, c, guard, "c")
    spec = PochhammerSum(mp.mpc(1), (ae,), ((abc, q), (e, q)), ((ab, q), (ac, q)))
    total, n = _sum_with_guard(spec, tol, max_terms, guard, "(aq/b;q)_n (aq/c;q)_n")
    return pref * total, n


def watson_limit_check(params: NumericEvalParams) -> VerificationReport:
    return _compare_sides("watson-limit", params, (watson_limit_lhs, watson_limit_rhs),
                          _watson_limit_domain)


def _watson_limit_domain(vals):
    _require_unit_disk(q=vals["q"])
    if abs(vals["a"]) >= abs(vals["e"]):
        raise ParameterError("watson-limit needs |a/e| < 1 for the right-hand sum")


def _require_unit_disk(**named):
    for name, val in named.items():
        if abs(val) >= 1:
            raise ParameterError(f"|{name}| must be < 1 (got {mp.nstr(abs(val), 8)})")


# ---------------------------------------------------------------------------
# exact Watson transformation at f = q^{-N}


def _refuse_exact_poles(named, q, N):
    """PoleError for the first j < N (then the first label) at which a
    denominator factor 1 - x q^j of (x; q)_N vanishes."""
    for j in range(N):
        for label, x in named.items():
            if x * q**j == 1:
                raise PoleError(f"({label}; q)_{j + 1} vanishes at factor j={j}")


def watson_exact(N: int, a, b, c, e, q, d=None) -> VerificationReport:
    """Exact check of Watson's transformation with f = q^{-N}.

    Both sides are finite sums (the (f;q)_n factors vanish beyond n = N) and
    are evaluated over the rationals.  `d` defaults to q, the specialization
    used throughout; any rational d is accepted.  Parameter choices that hit
    a pole raise PoleError naming the vanishing factor, before any summation:
    a term whose numerator and denominator both vanish is refused as well.
    """
    if N < 1:
        raise ParameterError("N must be a positive integer")
    a, b, c, e, q = (Fraction(v) for v in (a, b, c, e, q))
    d = q if d is None else Fraction(d)
    if 0 in (a, b, c, d, e, q):
        raise ParameterError("parameters must be nonzero")
    if q in (1, -1):
        raise ParameterError("q must not be a root of unity for the exact check")
    t0 = time.perf_counter()
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

    rep = VerificationReport("watson-exact", "terminating-exact", N)
    rep.detail.update({"lhs": fraction_str(lhs), "rhs": fraction_str(rhs),
                       "params": {k: str(v) for k, v in
                                  zip("abcdeq", (a, b, c, d, e, q))}})
    if lhs != rhs:
        rep.outcome = "mismatch"
        rep.witness = {"index": f"N={N}", "left": fraction_str(lhs),
                       "right": fraction_str(rhs)}
    return _timed(rep, t0)


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


def _first_failure_report(ident, mode, key, reports):
    """One registry report over the sub-reports `reports` (an iterator): their
    outcomes under `key`, up to the first that is not verified, whose outcome
    and witness it takes."""
    t0 = time.perf_counter()
    rep = VerificationReport(ident, mode)
    outcomes = []
    for sub in reports:
        outcomes.append(sub.outcome)
        if not sub.ok:
            rep.outcome = sub.outcome
            rep.witness = sub.witness
            break
    rep.detail[key] = outcomes
    return _timed(rep, t0)


def sampled_runner(alias, draws=3, seed=20260809):
    """The registry runner of the numeric identity `alias`: its checker at
    `draws` sampled points."""
    def run(order=None, **_):
        ident, sampler, checker, _names = NUMERIC_IDENTITIES[alias]
        rng = random.Random(seed)
        return _first_failure_report(ident, "numeric", "draws",
                                     (checker(sampler(rng)) for _ in range(draws)))
    return run


def registry_watson_exact_runner(order=None, **_):
    cases = ((1, ("1/3", "1/5", "1/7", "1/11", "1/2")),
             (2, ("2/3", "-1/5", "3/7", "5/11", "1/3")))
    return _first_failure_report("watson-exact", "terminating-exact", "cases",
                                 (watson_exact(N, *params) for N, params in cases))


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
