"""Rogers-Fine machinery: numeric checks and the exact Watson identity.

The analytic identities (|q| < 1, |t| < 1) are validated numerically at high
precision: both sides are summed independently until the current term is
small relative to the partial sum AND geometric decay has held for five
consecutive terms.  Failing the decay guard within the term budget yields an
`inconclusive` outcome, distinct from a mismatch, so slow divergence is never
mistaken for agreement.  Near-zero denominators raise PoleError instead of
silently amplifying noise.

Watson's transformation with f = q^{-N} is a finite sum on both sides and is
evaluated exactly over the rationals.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import ConvergenceError, ParameterError, PoleError
from .identities import VerificationReport, _timed

DECAY_RATIO = mp.mpf("0.9")
DECAY_RUN = 5
# each side is summed three orders tighter than the comparison tolerance so
# the neglected tails cannot push |LHS - RHS| across the reporting bound
SUMMATION_MARGIN = mp.mpf("1e-3")


@dataclass
class NumericEvalParams:
    """Complex parameter values plus working precision and stopping rules."""

    values: dict
    dps: int = 60
    tol: str = "1e-25"
    max_terms: int = 400

    def tolerance(self):
        return mp.mpf(self.tol)


def _pole_guard(dps):
    return mp.mpf(10) ** (-(2 * dps) // 3)


def _div(num, den, guard, label):
    if abs(den) < guard:
        raise PoleError(f"denominator {label} is within {guard} of zero")
    return num / den


def _sum_with_guard(terms, tol, max_terms):
    """Sum a term generator until five consecutive terms are both small and
    geometrically decaying."""
    total = mp.mpc(0)
    prev_mag = None
    run = 0
    for n, term in enumerate(terms):
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
    return total, max_terms


# ---------------------------------------------------------------------------
# the two Rogers-Fine sides


def rogers_fine_lhs(a, b, t, q, tol, max_terms, guard):
    def terms():
        num = mp.mpc(1)   # (aq; q)_n
        den = mp.mpc(1)   # (bq; q)_n
        tp = mp.mpc(1)    # t^n
        qp = q            # q^{n+1}
        while True:
            yield _div(num, den, guard, "(bq;q)_n") * tp
            num *= 1 - a * qp
            den *= 1 - b * qp
            qp *= q
            tp *= t
    return _sum_with_guard(terms(), tol, max_terms)


def rogers_fine_rhs(a, b, t, q, tol, max_terms, guard):
    def terms():
        num1 = mp.mpc(1)  # (aq; q)_n
        num2 = mp.mpc(1)  # (atq/b; q)_n
        den1 = mp.mpc(1)  # (bq; q)_n
        den2 = 1 - t      # (t; q)_{n+1}
        bt = mp.mpc(1)    # (bt)^n
        qsq = mp.mpc(1)   # q^{n^2}
        qp = q            # q^{n+1}
        qodd = q          # q^{2n+1}
        n = 0
        while True:
            yield _div(num1 * num2 * bt * qsq * (1 - a * t * qodd),
                       den1 * den2, guard, "(bq;q)_n (t;q)_{n+1}")
            num1 *= 1 - a * qp
            num2 *= 1 - _div(a * t * qp, b, guard, "b")
            den1 *= 1 - b * qp
            den2 *= 1 - t * qp
            bt *= b * t
            n += 1
            qsq *= q ** (2 * n - 1)
            qodd *= q * q
            qp *= q
    return _sum_with_guard(terms(), tol, max_terms)


def _compare_sides(ident, params, names, lhs, rhs, require=None):
    """Sum both sides of one numeric identity at `params` and compare them.

    The sides take the parameters `names` in order, then the summation
    tolerance, the term budget and the pole guard.  `require(vals)` may
    reject the point before any summation.  A side that fails the decay
    guard makes the outcome `inconclusive`; a difference at or above the
    tolerance is a mismatch with the point as witness."""
    t0 = time.perf_counter()
    with mp.workdps(params.dps):
        vals = {k: mp.mpc(v) for k, v in params.values.items()}
        args = [vals[name] for name in names]
        if require is not None:
            require(vals)
        tol = params.tolerance()
        guard = _pole_guard(params.dps)
        budget = (tol * SUMMATION_MARGIN, params.max_terms, guard)
        rep = VerificationReport(ident, "numeric", None)
        try:
            left, nl = lhs(*args, *budget)
            right, nr = rhs(*args, *budget)
        except ConvergenceError as exc:
            rep.outcome = "inconclusive"
            rep.detail["reason"] = str(exc)
            return _timed(rep, t0)
        diff = abs(left - right)
        rep.detail.update({"abs_diff": mp.nstr(diff, 8), "terms": [nl, nr],
                           "tol": params.tol})
        if diff >= tol:
            rep.outcome = "mismatch"
            rep.witness = {"index": _param_strs(vals), "left": mp.nstr(left, 30),
                           "right": mp.nstr(right, 30)}
        return _timed(rep, t0)


def rogers_fine_check(params: NumericEvalParams) -> VerificationReport:
    return _compare_sides("rogers-fine", params, ("a", "b", "t", "q"),
                          rogers_fine_lhs, rogers_fine_rhs,
                          lambda v: _require_unit_disk(q=v["q"], t=v["t"]))


# ---------------------------------------------------------------------------
# generalized Rogers-Fine


def generalized_rf_lhs(alpha, beta, gamma, t, q, tol, max_terms, guard):
    def terms():
        base = _div(beta * gamma, alpha * q * t, guard, "alpha*q*t")
        num1 = mp.mpc(1)  # (beta*gamma/(alpha q t); q)_n
        num2 = mp.mpc(1)  # (alpha; q)_n
        den1 = mp.mpc(1)  # (beta; q)_n
        den2 = mp.mpc(1)  # (gamma; q)_n
        tp = mp.mpc(1)
        qp = mp.mpc(1)    # q^n
        while True:
            yield _div(num1 * num2 * tp, den1 * den2, guard,
                       "(beta;q)_n (gamma;q)_n")
            num1 *= 1 - base * qp
            num2 *= 1 - alpha * qp
            den1 *= 1 - beta * qp
            den2 *= 1 - gamma * qp
            qp *= q
            tp *= t
    return _sum_with_guard(terms(), tol, max_terms)


def generalized_rf_rhs(alpha, beta, gamma, t, q, tol, max_terms, guard):
    def terms():
        ab = _div(alpha * q * t, beta, guard, "beta")
        ac = _div(alpha * q * t, gamma, guard, "gamma")
        ratio = _div(beta * gamma, alpha, guard, "alpha")
        num1 = mp.mpc(1)  # (alpha q t / beta; q)_n
        num2 = mp.mpc(1)  # (alpha q t / gamma; q)_n
        num3 = mp.mpc(1)  # (alpha; q)_n
        den1 = mp.mpc(1)  # (beta; q)_n
        den2 = mp.mpc(1)  # (gamma; q)_n
        den3 = 1 - t      # (t; q)_{n+1}
        qp = mp.mpc(1)    # q^n
        qeven = mp.mpc(1)  # q^{2n}
        n = 0
        while True:
            # (-1)^n q^{binom(n,2)-n} (beta gamma/alpha)^n
            front = (-1) ** n * q ** (n * (n - 1) // 2 - n) * ratio**n
            yield _div(num1 * num2 * num3 * (1 - alpha * t * qeven) * front,
                       den1 * den2 * den3, guard,
                       "(beta;q)_n (gamma;q)_n (t;q)_{n+1}")
            num1 *= 1 - ab * qp
            num2 *= 1 - ac * qp
            num3 *= 1 - alpha * qp
            den1 *= 1 - beta * qp
            den2 *= 1 - gamma * qp
            den3 *= 1 - t * q * qp
            qp *= q
            qeven *= q * q
            n += 1
    return _sum_with_guard(terms(), tol, max_terms)


def generalized_rf_check(params: NumericEvalParams) -> VerificationReport:
    return _compare_sides("generalized-rf", params, ("alpha", "beta", "gamma", "t", "q"),
                          generalized_rf_lhs, generalized_rf_rhs,
                          lambda v: _require_unit_disk(q=v["q"], t=v["t"]))


def grf_degeneration_check(params: NumericEvalParams) -> VerificationReport:
    """gamma -> 0 path: the generalized identity at gamma = 1e-30 with
    alpha = a q and beta = b q must match the plain Rogers-Fine values."""
    t0 = time.perf_counter()
    with mp.workdps(params.dps):
        vals = {k: mp.mpc(v) for k, v in params.values.items()}
        a, b, t, q = vals["a"], vals["b"], vals["t"], vals["q"]
        gamma = mp.mpc(mp.mpf("1e-30"))
        tol = params.tolerance()
        tol_sum = tol * SUMMATION_MARGIN
        guard = _pole_guard(params.dps)
        rep = VerificationReport("grf-degeneration", "numeric", None)
        try:
            rf_val, _ = rogers_fine_lhs(a, b, t, q, tol_sum, params.max_terms, guard)
            g_lhs, _ = generalized_rf_lhs(a * q, b * q, gamma, t, q, tol_sum,
                                          params.max_terms, guard)
            g_rhs, _ = generalized_rf_rhs(a * q, b * q, gamma, t, q, tol_sum,
                                          params.max_terms, guard)
        except ConvergenceError as exc:
            rep.outcome = "inconclusive"
            rep.detail["reason"] = str(exc)
            return _timed(rep, t0)
        worst = max(abs(rf_val - g_lhs), abs(rf_val - g_rhs))
        rep.detail.update({"abs_diff": mp.nstr(worst, 8), "gamma": "1e-30"})
        if worst >= tol:
            rep.outcome = "mismatch"
            rep.witness = {"index": _param_strs(vals),
                           "left": mp.nstr(rf_val, 30),
                           "right": mp.nstr(g_lhs, 30)}
        return _timed(rep, t0)


# ---------------------------------------------------------------------------
# Watson limit (numeric) and Watson terminating (exact)


def watson_limit_lhs(a, b, c, e, q, tol, max_terms, guard):
    def terms():
        ratio = _div(-a * a, b * c * e, guard, "b*c*e")
        num = mp.mpc(1)    # (b;q)_n (c;q)_n (e;q)_n packed
        den = 1 - a        # (1 - a), then (aq/b, aq/c, aq/e; q)_n
        ab = _div(a * q, b, guard, "b")
        ac = _div(a * q, c, guard, "c")
        ae = _div(a * q, e, guard, "e")
        nb = nc = ne = mp.mpc(1)
        db = dc = de = mp.mpc(1)
        qp = mp.mpc(1)     # q^n
        qeven = mp.mpc(1)  # q^{2n}
        n = 0
        while True:
            # exponent n(n+1)/2: the d=q, N->infinity limit of the terminating
            # transformation, consistent with the generalized Rogers-Fine
            # substitution a = alpha*t, b = alpha*q*t/beta, c = alpha*q*t/gamma
            front = q ** (n * (n + 1) // 2) * ratio**n
            yield _div(nb * nc * ne * front * (1 - a * qeven),
                       db * dc * de * den, guard, "(aq/b,aq/c,aq/e;q)_n (1-a)")
            nb *= 1 - b * qp
            nc *= 1 - c * qp
            ne *= 1 - e * qp
            db *= 1 - ab * qp
            dc *= 1 - ac * qp
            de *= 1 - ae * qp
            qp *= q
            qeven *= q * q
            n += 1
    return _sum_with_guard(terms(), tol, max_terms)


def watson_limit_rhs(a, b, c, e, q, tol, max_terms, guard):
    pref = _div(1 - _div(a, e, guard, "e"), 1 - a, guard, "1-a")

    def terms():
        abc = _div(a * q, b * c, guard, "b*c")
        ab = _div(a * q, b, guard, "b")
        ac = _div(a * q, c, guard, "c")
        ae_ratio = _div(a, e, guard, "e")
        num1 = mp.mpc(1)  # (aq/bc; q)_n
        num2 = mp.mpc(1)  # (e; q)_n
        den1 = mp.mpc(1)  # (aq/b; q)_n
        den2 = mp.mpc(1)  # (aq/c; q)_n
        ap = mp.mpc(1)    # (a/e)^n
        qp = mp.mpc(1)
        while True:
            yield _div(num1 * num2 * ap, den1 * den2, guard,
                       "(aq/b;q)_n (aq/c;q)_n")
            num1 *= 1 - abc * qp
            num2 *= 1 - e * qp
            den1 *= 1 - ab * qp
            den2 *= 1 - ac * qp
            ap *= ae_ratio
            qp *= q
    total, n = _sum_with_guard(terms(), tol, max_terms)
    return pref * total, n


def watson_limit_check(params: NumericEvalParams) -> VerificationReport:
    return _compare_sides("watson-limit", params, ("a", "b", "c", "e", "q"),
                          watson_limit_lhs, watson_limit_rhs, _watson_limit_domain)


def _watson_limit_domain(vals):
    _require_unit_disk(q=vals["q"])
    if abs(vals["a"]) >= abs(vals["e"]):
        raise ParameterError("watson-limit needs |a/e| < 1 for the right-hand sum")


def _require_unit_disk(**named):
    for name, val in named.items():
        if abs(val) >= 1:
            raise ParameterError(f"|{name}| must be < 1 (got {mp.nstr(abs(val), 8)})")


def _param_strs(vals):
    return {k: mp.nstr(v, 20) for k, v in vals.items()}


# ---------------------------------------------------------------------------
# exact Watson transformation at f = q^{-N}


def _poch_exact(x, q, n, label, deny_zero):
    out = Fraction(1)
    qp = Fraction(1)
    for j in range(n):
        factor = 1 - x * qp
        if factor == 0 and deny_zero:
            raise PoleError(f"({label}; q)_{n} vanishes at factor j={j}")
        out *= factor
        qp *= q
    return out


def watson_exact(N: int, a, b, c, e, q, d=None) -> VerificationReport:
    """Exact check of Watson's transformation with f = q^{-N}.

    Both sides are finite sums (the (f;q)_n factors vanish beyond n = N) and
    are evaluated over the rationals.  `d` defaults to q, the specialization
    used throughout; any rational d is accepted.  Parameter choices that hit
    a pole raise PoleError naming the vanishing factor.
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

    lhs = Fraction(0)
    if 1 - a == 0:
        raise PoleError("(1 - a) vanishes")
    for n in range(N + 1):
        num = (_poch_exact(a, q, n, "a", False) * _poch_exact(b, q, n, "b", False)
               * _poch_exact(c, q, n, "c", False) * _poch_exact(d, q, n, "d", False)
               * _poch_exact(e, q, n, "e", False) * _poch_exact(f, q, n, "f", False))
        num *= (1 - a * q ** (2 * n)) * (a * a * q * q / (b * c * d * e * f)) ** n
        den = (_poch_exact(q, q, n, "q", True) * _poch_exact(a * q / b, q, n, "aq/b", True)
               * _poch_exact(a * q / c, q, n, "aq/c", True)
               * _poch_exact(a * q / d, q, n, "aq/d", True)
               * _poch_exact(a * q / e, q, n, "aq/e", True)
               * _poch_exact(a * q / f, q, n, "aq/f", True) * (1 - a))
        lhs += num / den

    den_pref = (_poch_exact(a * q / d, q, N, "aq/d", True)
                * _poch_exact(a * q / e, q, N, "aq/e", True))
    pref = (_poch_exact(a * q, q, N, "aq", False)
            * _poch_exact(a * q / (d * e), q, N, "aq/de", False)) / den_pref
    rhs_sum = Fraction(0)
    for n in range(N + 1):
        num = (_poch_exact(a * q / (b * c), q, n, "aq/bc", False)
               * _poch_exact(d, q, n, "d", False) * _poch_exact(e, q, n, "e", False)
               * _poch_exact(f, q, n, "f", False) * q**n)
        den = (_poch_exact(q, q, n, "q", True)
               * _poch_exact(d * e * f / a, q, n, "def/a", True)
               * _poch_exact(a * q / b, q, n, "aq/b", True)
               * _poch_exact(a * q / c, q, n, "aq/c", True))
        rhs_sum += num / den
    rhs = pref * rhs_sum

    rep = VerificationReport("watson-exact", "terminating-exact", N)
    rep.detail.update({"lhs": str(lhs), "rhs": str(rhs),
                       "params": {k: str(v) for k, v in
                                  zip("abcdeq", (a, b, c, d, e, q))}})
    if lhs != rhs:
        rep.outcome = "mismatch"
        rep.witness = {"index": f"N={N}", "left": str(lhs), "right": str(rhs)}
    return _timed(rep, t0)


# ---------------------------------------------------------------------------
# random parameter draws and registry runners


def random_rf_params(rng: random.Random, dps=60) -> NumericEvalParams:
    return NumericEvalParams(values={
        "a": _random_disk(rng, 1.0),
        "b": _random_disk(rng, 1.0, avoid_one=True),
        "t": _random_disk(rng, 0.6),
        "q": _random_disk(rng, 0.6, min_mag=0.1),
    }, dps=dps)


def random_grf_params(rng: random.Random, dps=60) -> NumericEvalParams:
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
            return NumericEvalParams(values=values, dps=dps)


def random_watson_limit_params(rng: random.Random, dps=60) -> NumericEvalParams:
    a = _random_disk(rng, 0.5)
    e = _random_disk(rng, 1.0, min_mag=0.9)  # keeps |a/e| <= 0.56
    return NumericEvalParams(values={
        "a": a, "e": e,
        "b": _random_disk(rng, 1.0, min_mag=0.2),
        "c": _random_disk(rng, 1.0, min_mag=0.2),
        "q": _random_disk(rng, 0.6, min_mag=0.1),
    }, dps=dps)


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


def _sampled_runner(ident, sampler, checker, draws=3, seed=20260809):
    def run(order=None, draws_override=None, seed_override=None, **_):
        t0 = time.perf_counter()
        rng = random.Random(seed if seed_override is None else seed_override)
        n = draws if draws_override is None else draws_override
        rep = VerificationReport(ident, "numeric", None)
        results = []
        for _i in range(n):
            sub = checker(sampler(rng))
            results.append(sub.outcome)
            if not sub.ok:
                rep.outcome = sub.outcome
                rep.witness = sub.witness
                break
        rep.detail["draws"] = results
        return _timed(rep, t0)
    return run


registry_rf_runner = _sampled_runner("rogers-fine", random_rf_params,
                                     rogers_fine_check)
registry_grf_runner = _sampled_runner("generalized-rf", random_grf_params,
                                      generalized_rf_check)
registry_watson_limit_runner = _sampled_runner("watson-limit",
                                               random_watson_limit_params,
                                               watson_limit_check)


def registry_watson_exact_runner(order=None, **_):
    t0 = time.perf_counter()
    rep = VerificationReport("watson-exact", "terminating-exact")
    outcomes = []
    for N, params in (
            (1, (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 11), Fraction(1, 2))),
            (2, (Fraction(2, 3), Fraction(-1, 5), Fraction(3, 7), Fraction(5, 11), Fraction(1, 3))),
    ):
        sub = watson_exact(N, *params)
        outcomes.append(sub.outcome)
        if not sub.ok:
            rep.outcome = sub.outcome
            rep.witness = sub.witness
            break
    rep.detail["cases"] = outcomes
    return _timed(rep, t0)
