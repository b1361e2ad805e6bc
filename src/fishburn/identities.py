"""The identity registry and verification engine.

Every identity carries its own comparison mode, matching the hypotheses under
which it holds: `formal` identities are checked as exact truncated power
series, `terminating-exact` ones as finite sums over exact fields, and
`numeric` ones (the Rogers-Fine circle) by high-precision summation with a
decay guard.  An analytic identity is never "proved" by truncation alone.

Mismatches always carry a reproducible witness (the first differing
multi-index or parameter point with both values).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import product

from .cyclotomic import CyclotomicElement
from .enumeration import refined_counts
from .errors import CertificateError, ParameterError, UnknownFamilyError
from .qseries import (BIVARIATE_NAMES, COMPACT_SUMS, Point, expand_family,
                      gamma1_lhs, gamma1_rhs, partial_sum, truncated_sum,
                      xy_point)
from .rings import ZZ
from .series import TruncatedSeries

FORMAL_BIVARIATE_CAP = 14
FORMAL_TRIVARIATE_CAP = 10
TERMINATING_SCAN_CAP = 512

TRIVARIATE_NAMES = ("x", "y", "r")


@dataclass
class VerificationReport:
    """Outcome of one identity check, with a reproducible witness on failure."""

    id: str
    mode: str
    order: object = None
    outcome: str = "verified"
    witness: dict = None
    timing_ms: float = 0.0
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.outcome in ("verified", "agreement")

    def to_json_dict(self) -> dict:
        out = {
            "id": self.id,
            "mode": self.mode,
            "order": self.order,
            "outcome": self.outcome,
            "timing_ms": round(self.timing_ms, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = {k: _jsonable(v) for k, v in self.detail.items()}
        return out


def _jsonable(v):
    if isinstance(v, Fraction):
        return fraction_str(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    return str(v)


def _timed(report, t0):
    report.timing_ms = (time.perf_counter() - t0) * 1000.0
    return report


def _compare_series(rep, order, cases):
    """Make `rep` a mismatch at the first (left, right, label) case whose
    series differ at or below `order`; a label is added to the witness as its
    case."""
    for left, right, label in cases:
        match = left.equal_up_to(right, order)
        if not match.equal:
            rep.outcome = "mismatch"
            rep.witness = {"index": list(match.index), "left": str(match.left),
                           "right": str(match.right)}
            if label:
                rep.witness["case"] = label
            break
    return rep


def _series_pair_report(ident, order, left, right, t0, extra=None):
    rep = _compare_series(VerificationReport(ident, "formal", order), order,
                          [(left, right, None)])
    if extra:
        rep.detail.update(extra)
    return _timed(rep, t0)


# ---------------------------------------------------------------------------
# the formal-r proposition: the gamma1 sums at gamma = 0, with r a third
# formal variable


def _trivariate(order):
    """(p, q) = (1-y, 1-x) and r, as series in (x, y, r)."""
    r = TruncatedSeries.variable(ZZ, 3, order, 2, TRIVARIATE_NAMES)
    return xy_point(order, ZZ, TRIVARIATE_NAMES), r


def proposition_lhs(order: int) -> TruncatedSeries:
    """sum_n (1/(1-y); 1/(1-x))_n r^n with formal r."""
    pt, r = _trivariate(order)
    return truncated_sum(gamma1_lhs(pt, 0, r))


def proposition_rhs(order: int) -> TruncatedSeries:
    """sum_n (1-y)(1-x)^n (1-y; 1-x)_n (r(1-x); 1-x)_n with formal r."""
    pt, r = _trivariate(order)
    return truncated_sum(gamma1_rhs(pt, 0, r))


def verify_proposition(order: int) -> VerificationReport:
    if order > FORMAL_TRIVARIATE_CAP:
        raise ParameterError(
            f"trivariate order capped at {FORMAL_TRIVARIATE_CAP} (got {order})")
    t0 = time.perf_counter()
    return _series_pair_report("prop12", order, proposition_lhs(order),
                               proposition_rhs(order), t0)


def verify_proposition_specializations(order: int) -> VerificationReport:
    """Specialize the formal-r identity at r = -1 (row/self-dual pair) and,
    after x -> -x/(1-x), y -> -y/(1-y), at r = 1 (interval-order pair)."""
    if order > FORMAL_TRIVARIATE_CAP:
        raise ParameterError(
            f"trivariate order capped at {FORMAL_TRIVARIATE_CAP} (got {order})")
    t0 = time.perf_counter()
    m = order // 2
    lhs, rhs = proposition_lhs(order), proposition_rhs(order)
    cases = [
        (lhs.specialize(2, -1, m), expand_family("G1", m), "r=-1 lhs vs G1"),
        (rhs.specialize(2, -1, m), expand_family("G2", m), "r=-1 rhs vs G2"),
    ]
    one = TruncatedSeries.constant(ZZ, 2, m, 1, BIVARIATE_NAMES)
    x = TruncatedSeries.variable(ZZ, 2, m, 0, BIVARIATE_NAMES)
    y = TruncatedSeries.variable(ZZ, 2, m, 1, BIVARIATE_NAMES)
    shift = {0: -x * (one - x).invert(), 1: -y * (one - y).invert()}
    cases += [
        (lhs.specialize(2, 1, m).substitute(shift), expand_family("F1", m),
         "r=1 substituted lhs vs F1"),
        (rhs.specialize(2, 1, m).substitute(shift), expand_family("F2", m),
         "r=1 substituted rhs vs F2"),
    ]
    rep = _compare_series(VerificationReport("prop12-specializations", "formal", order),
                          m, cases)
    rep.detail["specialized_order"] = m
    return _timed(rep, t0)


# ---------------------------------------------------------------------------
# coefficient oracle


def verify_coefficient_oracle(family: str, m_max: int) -> VerificationReport:
    """Check series coefficients of x^{m-l} y^l against brute-force matrix
    counts: F1 against Fishburn tables, G1 against row-Fishburn tables."""
    if family not in ("F1", "G1"):
        raise UnknownFamilyError("coefficient oracle covers F1 and G1")
    if m_max > 7:
        raise ParameterError(
            f"coefficient oracle capped at size 7 (got {m_max}); larger sizes "
            "make the exhaustive enumeration disproportionately slow")
    t0 = time.perf_counter()
    series = expand_family(family, m_max)
    matrix_family = "fishburn" if family == "F1" else "rowFishburn"
    rep = VerificationReport(f"{family}-coefficients", "formal", m_max)
    checked = 0
    for m in range(m_max + 1):
        table = refined_counts(matrix_family, m)
        by_ell = {}
        for key, c in table.counts.items():
            ell = key[-1] if matrix_family == "fishburn" else key[0]
            by_ell[ell] = by_ell.get(ell, 0) + c
        for ell in range(m + 1):
            want = by_ell.get(ell, 0)
            got = series.coefficient((m - ell, ell))
            checked += 1
            if got != want:
                rep.outcome = "mismatch"
                rep.witness = {"index": [m - ell, ell], "left": str(got),
                               "right": str(want), "m": m, "ell": ell}
                return _timed(rep, t0)
    rep.detail["coefficients_checked"] = checked
    return _timed(rep, t0)


# ---------------------------------------------------------------------------
# terminating evaluations of the compact p,q identities


def _rational_value(x):
    """x as a Fraction when it is rational, else None."""
    if isinstance(x, CyclotomicElement):
        return x.as_rational() if x.is_rational() else None
    return Fraction(x)


def _exact_log(base, n):
    """The j with base^j == n, or None (base >= 2, n >= 1)."""
    j = 0
    while n % base == 0:
        n //= base
        j += 1
    return j if n == 1 else None


def _rational_exponent(p, q, even_only):
    """The j >= 0 with p*q^j = 1 for nonzero rationals p and q, or None.
    For |q| != 1 the prime powers fix j, since p = q^-j means
    |numerator(p)| = denominator(q)^j and denominator(p) = |numerator(q)|^j."""
    if abs(q) == 1:
        # p*q^j takes only the values p and p*q
        j = 0 if p == 1 else 1 if p * q == 1 else None
    elif q.denominator > 1:
        j = _exact_log(q.denominator, abs(p.numerator))
    else:
        j = _exact_log(abs(q.numerator), p.denominator)
    if j is None or p * q**j != 1 or (even_only and j % 2):
        return None
    return j


def _terminating_exponent(p, q, even_only: bool):
    """Smallest j >= 0 (even when even_only) with p*q^j = 1, or None when no
    such j exists.

    Rational p and q are solved exactly.  So is a root of unity q in
    Q(zeta_k), whose order divides lcm(2, k): p*q^j then repeats with period
    dividing 2k, and two such periods settle even j too.  Any other q is
    scanned up to TERMINATING_SCAN_CAP; if that finds nothing, the refusal
    says the search was not exhaustive instead of claiming that no j exists.
    """
    qr = _rational_value(q)
    if qr is not None:
        pr = _rational_value(p)
        # q^j is rational, so p*q^j = 1 needs a rational p
        return None if pr is None else _rational_exponent(pr, qr, even_only)
    root_of_unity = q ** (2 * q.field.k) == 1
    t = p
    for j in range(4 * q.field.k if root_of_unity else TERMINATING_SCAN_CAP + 1):
        if t == 1 and not (even_only and j % 2):
            return j
        t = t * q
    if root_of_unity:
        return None
    raise CertificateError(
        f"no j <= {TERMINATING_SCAN_CAP} with p*q^j = 1 at p={p!r}, q={q!r}, and q "
        "is neither rational nor a root of unity, so the search is not exhaustive; "
        "refusing to evaluate a possibly non-terminating sum")


def _term_count(expr: str, j0: int) -> int:
    """Number of nonzero terms of a terminating sum with certificate j0:
    comp2-right runs in base q^2, so its factor p*q^(2n) hits 1 at n = j0/2."""
    return j0 // 2 + 1 if expr == "comp2-right" else j0 + 1


TERMINATING_EXPRS = ("comp1-left", "comp1-mid", "comp2-first", "comp2-mid",
                     "comp2-right")


def evaluate_terminating(expr: str, p, q):
    """Exact value of a terminating sum at scalar (p, q), both rational or
    both cyclotomic.  Requires the appropriate termination certificate
    (p*q^k = 1 for the comp1 pair; p*q^{2k} = 1 for the comp2 family) and
    refuses to evaluate otherwise."""
    if expr not in TERMINATING_EXPRS:
        raise UnknownFamilyError(
            f"unknown terminating expression {expr!r}; known: "
            f"{', '.join(TERMINATING_EXPRS)} (the comp1 right-hand side does "
            "not terminate at generic points and is excluded)")
    if not p or not q:
        raise ParameterError("p and q must be nonzero")
    p, q = (x if isinstance(x, CyclotomicElement) else Fraction(x) for x in (p, q))
    even_only = expr.startswith("comp2")
    j0 = _terminating_exponent(p, q, even_only)
    if j0 is None:
        kind = "p*q^(2k) = 1" if even_only else "p*q^k = 1"
        raise CertificateError(
            f"no termination certificate {kind} for {expr} at p={p!r}, q={q!r}: "
            "no such j exists; refusing to evaluate a non-terminating sum")
    return partial_sum(COMPACT_SUMS[expr](Point(p, q)), _term_count(expr, j0))


TERMINATING_FAMILIES = {"comp1": ("comp1-left", "comp1-mid"),
                        "comp2": ("comp2-first", "comp2-mid", "comp2-right")}


def _terminating_values(family, p, q, rep):
    """The values of `family`'s expressions at (p, q); `rep` becomes a
    mismatch at the first value that differs from the first one."""
    values = [(e, evaluate_terminating(e, p, q)) for e in TERMINATING_FAMILIES[family]]
    base = values[0][1]
    for e, v in values[1:]:
        if v != base:
            rep.outcome = "mismatch"
            rep.witness = {"index": e, "left": _fmt_scalar(base),
                           "right": _fmt_scalar(v)}
            break
    return values


def verify_terminating(family: str, p, q) -> VerificationReport:
    """Evaluate all terminating expressions of a compact identity at (p, q)
    and assert exact equality."""
    t0 = time.perf_counter()
    if family not in TERMINATING_FAMILIES:
        raise UnknownFamilyError("terminating families are comp1 and comp2")
    rep = VerificationReport(f"{family}-terminating", "terminating-exact")
    values = _terminating_values(family, p, q, rep)
    rep.detail = {"p": _fmt_scalar(p), "q": _fmt_scalar(q),
                  "values": {e: _fmt_scalar(v) for e, v in values}}
    return _timed(rep, t0)


def _fmt_scalar(v):
    if isinstance(v, CyclotomicElement):
        return repr(v)
    return fraction_str(v) if isinstance(v, (int, Fraction)) else str(v)


def fraction_str(x) -> str:
    """`num/den`, or `num` for an integer, of a rational x with any number of
    digits: str() of an int stops at sys.get_int_max_str_digits() (4300 by
    default), a Decimal prints every digit."""
    x = Fraction(x)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class IdentityDescriptor:
    id: str
    mode: str
    description: str
    runner: object  # callable(**kwargs) -> VerificationReport


def _pair_runner(ident, left_family, right_family, defaults=None):
    """Runner comparing two families, at order 8 unless asked otherwise;
    `defaults` maps the parameters the families take to their defaults."""
    def run(order=None, **kwargs):
        n = 8 if order is None else order
        if n > FORMAL_BIVARIATE_CAP:
            raise ParameterError(
                f"order capped at {FORMAL_BIVARIATE_CAP} for {ident} (got {n})")
        t0 = time.perf_counter()
        params = {k: kwargs.get(k, v) for k, v in (defaults or {}).items()}
        left = expand_family(left_family, n, **params)
        right = expand_family(right_family, n, **params)
        extra = {k: str(v) for k, v in params.items()}
        return _series_pair_report(ident, n, left, right, t0, extra)
    return run


def _pentagonal_runner(order=None, **_):
    n = 30 if order is None else order
    t0 = time.perf_counter()
    one = TruncatedSeries.constant(ZZ, 1, n, 1, ("w",))
    s = expand_family("pentagonal-sum", n)
    prod = expand_family("pentagonal-product", n)
    theta = expand_family("pentagonal-theta", n)
    rep = _compare_series(VerificationReport("pentagonal-3way", "formal", n), n,
                          [(s, one - prod, "sum vs 1-product"),
                           (s, one - theta, "sum vs 1-theta")])
    return _timed(rep, t0)


def _terminating_suite_runner(family):
    ks = (1, 2, 3)
    qs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))

    def run(order=None, **_):
        t0 = time.perf_counter()
        rep = VerificationReport(f"{family}-terminating", "terminating-exact")
        points = []
        for q, k in product(qs, ks):
            exponent = 2 * k if family == "comp2" else k
            p = q ** (-exponent)
            sub = verify_terminating(family, p, q)
            points.append({"p": str(p), "q": str(q),
                           "values": sub.detail["values"]})
            if not sub.ok:
                rep.outcome = sub.outcome
                rep.witness = sub.witness
                rep.witness["p"] = str(p)
                rep.witness["q"] = str(q)
                break
        rep.detail["points"] = points
        return _timed(rep, t0)
    return run


def _build_registry():
    reg = {}

    def add(ident, mode, description, runner):
        reg[ident] = IdentityDescriptor(ident, mode, description, runner)

    pairs = [
        ("F1=F2", "F1", "F2"), ("F2=F3", "F2", "F3"), ("F1=F3", "F1", "F3"),
        ("G1=G2", "G1", "G2"), ("G2=G3", "G2", "G3"), ("G1=G3", "G1", "G3"),
    ]
    for ident, lf, rf in pairs:
        add(ident, "formal",
            f"interval-order series equality {ident} as bivariate formal series",
            _pair_runner(ident, lf, rf))
    add("KR-first=F3", "formal",
        "first Kitaev-Remmel chain form equals the closed form",
        _pair_runner("KR-first=F3", "F3-KR-first-form", "F3"))
    add("prop12", "formal",
        "generating identity with a formal third variable r",
        lambda order=None, **_: verify_proposition(8 if order is None else order))
    add("prop12-specializations", "formal",
        "r = -1 and substituted r = 1 respecializations",
        lambda order=None, **_: verify_proposition_specializations(
            8 if order is None else order))

    add("gamma1", "formal", "gamma-generalized identity (rational gamma, r)",
        _pair_runner("gamma1", "gamma1-lhs", "gamma1-rhs",
                     {"gamma": Fraction(2, 3), "r": Fraction(-3, 5)}))
    add("gamma2", "formal", "gamma-generalized even-step identity (rational gamma)",
        _pair_runner("gamma2", "gamma2-lhs", "gamma2-rhs", {"gamma": Fraction(2, 3)}))
    add("pentagonal-3way", "formal",
        "pentagonal sum = 1 - product = 1 - theta", _pentagonal_runner)
    add("F1-coefficients", "formal",
        "F1 coefficients equal Fishburn matrix counts",
        lambda order=None, **_: verify_coefficient_oracle("F1", 5 if order is None else order))
    add("G1-coefficients", "formal",
        "G1 coefficients equal row-Fishburn matrix counts",
        lambda order=None, **_: verify_coefficient_oracle("G1", 5 if order is None else order))
    add("comp1-terminating", "terminating-exact",
        "left = mid of the first compact identity at terminating points",
        _terminating_suite_runner("comp1"))
    add("comp2-terminating", "terminating-exact",
        "three-way second compact identity at terminating points",
        _terminating_suite_runner("comp2"))

    # numeric entries are registered lazily to keep import costs flat
    from . import hypergeom

    for alias, (ident, *_rest) in hypergeom.NUMERIC_IDENTITIES.items():
        add(ident, "numeric", f"{ident} at sampled parameters",
            hypergeom.sampled_runner(alias))
    add("watson-exact", "terminating-exact",
        "terminating Watson identity at exact rational parameters",
        hypergeom.registry_watson_exact_runner)
    return reg


_REGISTRY = None

THM_MAIN_IDS = ("F1=F2", "F2=F3", "F1=F3", "G1=G2", "G2=G3", "G1=G3")


def registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


PARAMETRIC_IDS = ("gamma1", "gamma2")


def verify(ident: str, order=None, **kwargs):
    """Run one registry identity (or the thm-main / all aggregates); returns
    a list of VerificationReport.  gamma/r parameters are routed only to the
    identities that take them."""
    reg = registry()
    if ident == "all":
        ids = list(reg)
    elif ident == "thm-main":
        ids = list(THM_MAIN_IDS)
    elif ident in reg:
        ids = [ident]
    else:
        raise UnknownFamilyError(
            f"unknown identity {ident!r}; known: thm-main, all, {', '.join(sorted(reg))}")
    reports = []
    for i in ids:
        params = kwargs if i in PARAMETRIC_IDS else {}
        reports.append(reg[i].runner(order=order, **params))
    return reports
