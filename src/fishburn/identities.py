"""The identity registry and verification engine.

Every identity carries its own comparison mode, matching the hypotheses under
which it holds: `formal` identities are checked as exact truncated power
series, `terminating-exact` ones as finite sums over exact fields, and
`numeric` ones (the Rogers-Fine circle) by high-precision summation with a
decay guard.  An analytic identity is never "proved" by truncation alone.
A sum is terminating at a point when a factor (1 - a r^n) of its term ratio
vanishes there (`qseries.termination_index`); where none does it is refused.
`verify_terminating` is the one check of a compact identity at a point, and
at a point of Q(zeta_k) it also re-sums every exact value in `decimal` at the
point's complex image, the independent route of a root-of-unity check.

Every check makes its VerificationReport first and returns `rep.finish()`,
which sets the report's time from the moment it was made.  In between,
`rep.compare(order, cases)` makes it a mismatch at the first pair of series
that differ, and `rep.mismatch(index, left, right)` records any other
failure.  A mismatch always carries a reproducible witness: the first
differing multi-index or parameter point, with both values.
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from importlib import import_module
from itertools import product
from operator import attrgetter

from .cyclotomic import CyclotomicElement, decimal_context, decimal_str, fraction_str
from .errors import (BoundExceededError, CertificateError, ParameterError,
                     UnknownFamilyError)
from .names import NUMERIC_REGISTRY_IDS, TERMINATING_EXPRS, TERMINATING_FAMILIES
from .qseries import (COMPACT_SUMS, TERMINATING_TERM_CAP, Point, expand_family,
                      family_parameters, involution, partial_sum, termination_index)
from .rings import ZZ
from .series import TruncatedSeries

# the oracle counts matrices by memoised subtrees, not one by one: F1 to size
# 12 (10,886,503 Fishburn matrices at 12) takes about 0.35 s, G1 less, and
# each further size about doubles the Fishburn count
COEFFICIENT_ORACLE_CAP = 12

# the parameters a formal pair runner gives its families when not asked
# otherwise
PAIR_DEFAULTS = {"gamma": Fraction(2, 3), "r": Fraction(-3, 5)}

THM_MAIN_IDS = ("F1=F2", "F2=F3", "F1=F3", "G1=G2", "G2=G3", "G1=G3")

# the expansions made by the verify call in progress, by (family, order,
# parameters); None outside one, so no expansion outlives its call
_EXPANSIONS = ContextVar("expansions", default=None)


def _expanded(family, order, **params):
    """expand_family(family, order, **params), made once per verify call:
    thm-main's six pairs share their six families."""
    made = _EXPANSIONS.get()
    if made is None:
        return expand_family(family, order, **params)
    key = (family, order, tuple(sorted(params.items())))
    if key not in made:
        made[key] = expand_family(family, order, **params)
    return made[key]


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
    _start: float = field(default_factory=time.perf_counter, init=False, repr=False,
                          compare=False)

    @property
    def ok(self) -> bool:
        return self.outcome in ("verified", "agreement")

    def compare(self, order, cases):
        """A mismatch at the first (left, right, label) case whose series
        differ at or below `order`; a label is added to the witness as its
        case."""
        for left, right, label in cases:
            match = left.equal_up_to(right, order)
            if not match.equal:
                more = {"case": label} if label else {}
                return self.mismatch(list(match.index), match.left, match.right, **more)
        return self

    def mismatch(self, index, left, right, **more):
        """A mismatch at `index`, where the two sides are `left` and `right`."""
        self.outcome = "mismatch"
        self.witness = {"index": index, "left": _fmt_scalar(left),
                        "right": _fmt_scalar(right), **more}
        return self

    def finish(self):
        """The report, timed from when it was made."""
        self.timing_ms = (time.perf_counter() - self._start) * 1000.0
        return self

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


def _fmt_scalar(v):
    if isinstance(v, CyclotomicElement):
        return repr(v)
    return fraction_str(v) if isinstance(v, (int, Fraction)) else str(v)


# the most characters of a parameter that a refusal prints: a longer one is
# named by its number of digits, so that the refusal stays one short line
BRIEF_CHARS = 40


def _brief(v):
    """v as a report writes it, or its count of digits when that is longer
    than BRIEF_CHARS."""
    text = _fmt_scalar(v)
    if len(text) <= BRIEF_CHARS:
        return text
    return f"<a number of {sum(c.isdigit() for c in text)} digits>"


def _record_until_failure(rep, key, subs, entry=attrgetter("outcome")):
    """`rep` with `entry(sub)` under detail[key] for each report of `subs` (an
    iterator) up to the first that is not ok, whose outcome and witness it
    takes."""
    entries = rep.detail[key] = []
    for sub in subs:
        entries.append(entry(sub))
        if not sub.ok:
            rep.outcome, rep.witness = sub.outcome, sub.witness
            break
    return rep


# ---------------------------------------------------------------------------
# the formal-r proposition: the gamma1 sums at gamma = 0, with r a third
# formal variable, are the families prop12-lhs and prop12-rhs, and the
# registry compares them as the pair prop12


def verify_proposition(order: int) -> VerificationReport:
    """The registry's prop12 report at `order`."""
    return registry()["prop12"](order)


def verify_proposition_specializations(order: int) -> VerificationReport:
    """Specialize the formal-r identity at r = -1 (row/self-dual pair) and,
    after x -> -x/(1-x), y -> -y/(1-y), at r = 1 (interval-order pair)."""
    rep = VerificationReport("prop12-specializations", "formal", order)
    m = order // 2
    lhs, rhs = _expanded("prop12-lhs", order), _expanded("prop12-rhs", order)
    cases = [
        (lhs.specialize(2, -1, m), _expanded("G1", m), "r=-1 lhs vs G1"),
        (rhs.specialize(2, -1, m), _expanded("G2", m), "r=-1 rhs vs G2"),
    ]
    shift = involution(m, ZZ)
    cases += [
        (lhs.specialize(2, 1, m).substitute(shift), _expanded("F1", m),
         "r=1 substituted lhs vs F1"),
        (rhs.specialize(2, 1, m).substitute(shift), _expanded("F2", m),
         "r=1 substituted rhs vs F2"),
    ]
    rep.compare(m, cases).detail["specialized_order"] = m
    return rep.finish()


# ---------------------------------------------------------------------------
# coefficient oracle


def verify_coefficient_oracle(family: str, m_max: int) -> VerificationReport:
    """Check series coefficients of x^{m-l} y^l against brute-force matrix
    counts: F1 against Fishburn tables, G1 against row-Fishburn tables."""
    from .enumeration import _refined_tables  # loaded only when an oracle runs

    if family not in ("F1", "G1"):
        raise UnknownFamilyError("coefficient oracle covers F1 and G1")
    if m_max > COEFFICIENT_ORACLE_CAP:
        raise ParameterError(
            f"coefficient oracle capped at size {COEFFICIENT_ORACLE_CAP} (got {m_max}); "
            "the matrix count takes about twice as long with each size beyond it")
    rep = VerificationReport(f"{family}-coefficients", "formal", m_max)
    series = _expanded(family, m_max)
    matrix_family = "fishburn" if family == "F1" else "rowFishburn"
    checked = 0
    for m, table in enumerate(_refined_tables(matrix_family, range(m_max + 1))):
        # both families key each object by a tuple ending in ell, the
        # last-column sum
        by_ell = table.marginal(-1)
        for ell in range(m + 1):
            want = by_ell.get(ell, 0)
            got = series.coefficient((m - ell, ell))
            checked += 1
            if got != want:
                return rep.mismatch([m - ell, ell], got, want, m=m, ell=ell).finish()
    rep.detail["coefficients_checked"] = checked
    return rep.finish()


# ---------------------------------------------------------------------------
# terminating evaluations of the compact p,q identities


def _certified(expr: str, p, q):
    """The sum `expr` at scalar (p, q), both rational or both cyclotomic, as
    its spec and the count of its terms up to the first that a vanishing
    factor (1 - a r^n) makes zero.  With no such factor the sum does not
    terminate and is refused."""
    if expr not in TERMINATING_EXPRS:
        raise UnknownFamilyError(
            f"unknown terminating expression {expr!r}; known: "
            f"{', '.join(TERMINATING_EXPRS)} (the comp1 right-hand side does "
            "not terminate at generic points and is excluded)")
    if not p or not q:
        raise ParameterError("p and q must be nonzero")
    p, q = (x if isinstance(x, CyclotomicElement) else Fraction(x) for x in (p, q))
    spec = COMPACT_SUMS[expr](Point(p, q))
    try:
        return spec, termination_index(spec) + 1
    except CertificateError as err:
        raise CertificateError(
            f"{expr} at p={_brief(p)}, q={_brief(q)}: {err}") from None


def _all_certified(exprs, p, q):
    """The (expression, spec, term count) of each of the sums `exprs` at
    (p, q).  Every certificate is asked first, then a sum of more than
    TERMINATING_TERM_CAP terms is refused, so a refusal costs no summing."""
    certified = [(e, *_certified(e, p, q)) for e in exprs]
    for e, _, count in certified:
        if count > TERMINATING_TERM_CAP:
            raise BoundExceededError(
                f"{e} at p={_brief(p)}, q={_brief(q)} has {count} terms; "
                f"exact terminating sums are capped at {TERMINATING_TERM_CAP}")
    return certified


def evaluate_terminating(expr: str, p, q):
    """Exact value of a terminating sum at scalar (p, q), both rational or
    both cyclotomic.  Requires a termination certificate, a factor
    (1 - a r^n) of the sum that vanishes, and refuses to evaluate otherwise,
    or when the sum has more than TERMINATING_TERM_CAP terms."""
    ((_, spec, count),) = _all_certified((expr,), p, q)
    return partial_sum(spec, count)


# the embedding cross-check sums in the decimal context of EMBED_DPS digits,
# and accepts |image of an exact value - decimal sum| up to EMBED_TOL
EMBED_TOL = Decimal("1e-40")
EMBED_DPS = 60


def _embedding_check(rep, p, q, values):
    """Cross-check the exact `values`, each (expression, value, term count)
    at the cyclotomic point (p, q), for the report `rep`: each sum is
    re-summed over as many terms at the point's decimal image, and
    detail["embedding_diff"] is the largest |image of the value - decimal
    sum|.  Above EMBED_TOL a report that is still ok becomes a mismatch at
    the index "embedding"."""
    with decimal_context(EMBED_DPS):
        point = Point(p.embed(), q.embed())
        worst2 = max((partial_sum(COMPACT_SUMS[e](point), count) - v.embed()).norm()
                     for e, v, count in values)
        diff = rep.detail["embedding_diff"] = decimal_str(worst2.sqrt(), 8)
        if worst2 > EMBED_TOL * EMBED_TOL and rep.ok:
            rep.mismatch("embedding", values[0][1], diff)


def verify_terminating(family: str, p, q) -> VerificationReport:
    """Evaluate all terminating expressions of a compact identity at (p, q)
    and assert exact equality: a mismatch at the first value that differs
    from the first one.  When p or q is an element of Q(zeta_k), both are
    taken there, and every value is also cross-checked at the point's
    decimal image (`_embedding_check`)."""
    rep = VerificationReport(f"{family}-terminating", "terminating-exact")
    if family not in TERMINATING_FAMILIES:
        raise UnknownFamilyError("terminating families are comp1 and comp2")
    # a point with a cyclotomic coordinate lies in its field, as both values
    field = next((x.field for x in (p, q) if isinstance(x, CyclotomicElement)), None)
    if field is not None:
        p, q = field.coerce(p), field.coerce(q)
    certified = _all_certified(TERMINATING_FAMILIES[family], p, q)
    values = [(e, partial_sum(spec, count), count) for e, spec, count in certified]
    base = values[0][1]
    for e, v, _ in values[1:]:
        if v != base:
            rep.mismatch(e, base, v)
            break
    rep.detail = {"p": _fmt_scalar(p), "q": _fmt_scalar(q),
                  "values": {e: _fmt_scalar(v) for e, v, _ in values}}
    if field is not None:
        _embedding_check(rep, p, q, values)
    return rep.finish()


# ---------------------------------------------------------------------------
# registry


def _pair_runner(ident, left_family, right_family):
    """Runner comparing two families, at order 8 unless asked otherwise, with
    the parameters the left family takes, each from PAIR_DEFAULTS unless
    given."""
    names = family_parameters(left_family)

    def run(order=None, **kwargs):
        n = 8 if order is None else order
        params = {k: kwargs.get(k, PAIR_DEFAULTS[k]) for k in names}
        rep = VerificationReport(ident, "formal", n,
                                 detail={k: fraction_str(v) for k, v in params.items()})
        return rep.compare(n, [(_expanded(left_family, n, **params),
                                _expanded(right_family, n, **params), None)]).finish()
    return run


def _pentagonal_runner(order=None, **_):
    n = 30 if order is None else order
    rep = VerificationReport("pentagonal-3way", "formal", n)
    s = _expanded("pentagonal-sum", n)
    prod = _expanded("pentagonal-product", n)
    theta = _expanded("pentagonal-theta", n)
    # made after the expansions, which refuse an order out of range first
    one = TruncatedSeries.constant(ZZ, 1, n, 1, ("w",))
    return rep.compare(n, [(s, one - prod, "sum vs 1-product"),
                           (s, one - theta, "sum vs 1-theta")]).finish()


def _terminating_suite_runner(family):
    ks = (1, 2, 3)
    qs = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))

    def run(order=None, **_):
        rep = VerificationReport(f"{family}-terminating", "terminating-exact")
        subs = (verify_terminating(family, q ** -(2 * k if family == "comp2" else k), q)
                for q, k in product(qs, ks))
        _record_until_failure(rep, "points", subs, attrgetter("detail"))
        if not rep.ok:
            # the point of the failing sub-report, the last one recorded
            rep.witness.update((key, rep.detail["points"][-1][key]) for key in "pq")
        return rep.finish()
    return run


def _hypergeom():
    """The hypergeom module, imported only when a numeric check runs."""
    return import_module(".hypergeom", __package__)


def _build_registry():
    """Identity id -> runner: a callable(order=None, **kwargs) that returns
    the identity's VerificationReport, which carries its id and mode."""
    reg = {ident: _pair_runner(ident, *ident.split("=")) for ident in THM_MAIN_IDS}
    # the first Kitaev-Remmel chain form equals the closed form
    reg["KR-first=F3"] = _pair_runner("KR-first=F3", "F3-KR-first-form", "F3")
    # the generating identity with a formal third variable r, and its
    # r = -1 and substituted r = 1 specializations
    reg["prop12"] = _pair_runner("prop12", "prop12-lhs", "prop12-rhs")
    reg["prop12-specializations"] = lambda order=None, **_: (
        verify_proposition_specializations(8 if order is None else order))
    # the gamma generalizations, at rational gamma (and r)
    reg["gamma1"] = _pair_runner("gamma1", "gamma1-lhs", "gamma1-rhs")
    reg["gamma2"] = _pair_runner("gamma2", "gamma2-lhs", "gamma2-rhs")
    reg["pentagonal-3way"] = _pentagonal_runner
    # F1 and G1 coefficients against Fishburn and row-Fishburn matrix counts
    reg["F1-coefficients"] = lambda order=None, **_: verify_coefficient_oracle(
        "F1", 5 if order is None else order)
    reg["G1-coefficients"] = lambda order=None, **_: verify_coefficient_oracle(
        "G1", 5 if order is None else order)
    reg["comp1-terminating"] = _terminating_suite_runner("comp1")
    reg["comp2-terminating"] = _terminating_suite_runner("comp2")
    for alias, ident in NUMERIC_REGISTRY_IDS.items():
        reg[ident] = lambda order=None, alias=alias, **_: _hypergeom().sampled_report(alias)
    reg["watson-exact"] = lambda order=None, **_: _hypergeom().registry_watson_exact_runner()
    return reg


_REGISTRY = None


def registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build_registry()
    return _REGISTRY


def verify(ident: str, order=None, **kwargs):
    """Run one registry identity (or the thm-main / all aggregates); returns
    a list of VerificationReport.  The order and the gamma/r parameters go to
    every runner, and each reads only the ones it takes."""
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
    token = _EXPANSIONS.set({})
    try:
        return [reg[i](order=order, **kwargs) for i in ids]
    finally:
        _EXPANSIONS.reset(token)
