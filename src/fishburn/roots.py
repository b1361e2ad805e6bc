"""Expansions of the compact p,q expressions around roots of unity.

Around a point (p0, q0) on the unit circle the sums are handled as formal
power series in (u, v) = (p - p0, q - q0) over the exact field Q(zeta_k).
They run through the same term-ratio specs and the same stopping rule as the
formal families (`qseries.truncated_sum`): summation stops at the first term
that truncates to zero.  A Pochhammer factor (1 - a r^n) whose constant term
vanishes at (p0, q0) raises the (u, v)-valuation of every later term by at
least one, so the terms reach the cut exactly when such factors recur.  In
every expansion r is q0, 1/q0 or q0^2, a root of unity, so a factor that
vanishes once vanishes again every period of r.  The certificate is
therefore the scalar termination rule (`qseries.termination_index`) asked
at the constants (p0, q0) before summing; without it the sum does not
converge formally and the expansion is refused rather than truncated
arbitrarily.

Each sum is summed in the coordinates its entry names and carried back to
(u, v) by one substitution in those it flipped: comp1-left and comp2-first
in (u', v') = (1/p - 1/p0, 1/q - 1/q0), comp1-right in (u, v') and
comp2-mid and comp2-right in (u, v).  The q-only sides, in the formal
variable p and v, go through the same function: the mid side is summed
there, and the right side in (p, v') with v alone substituted back, so p,
which has no inverse, is never flipped.  `qseries.expand_sum` makes this
choice for every expansion, here and at p = q = 1, and the `qseries`
docstring describes it.

Every expansion here is a series in two variables, so `RootContext` refuses
an order above `qseries.FORMAL_ORDER_CAP` when it is made, with the check
the formal families use (`qseries._require_order`), before any field is
built or any sum summed.

Exact cyclotomic arithmetic is the source of truth throughout.  A
terminating check at a root of unity is `identities.verify_terminating`,
which re-sums the same specs in `decimal`, at the complex image of (p, q)
under zeta_k -> e^(2 pi i/k) (`CyclotomicElement.embed`), only to
cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .cyclotomic import CONDUCTOR_CAP, CyclotomicElement, get_field
from .errors import CertificateError, ParameterError, UnknownFamilyError
from .identities import VerificationReport, verify_terminating
from .names import ROOT_CHECK_FAMILIES, ROOT_EXPRS
from .qseries import (COMPACT_SUMS, FORMAL_ORDER_CAP, Point, _require_order, expand_sum,
                      termination_index)
from .series import TruncatedSeries

UV_NAMES = ("u", "v")
PFORMAL_NAMES = ("p", "v")


def _require_conductor(k):
    """Refuse a conductor outside 1..CONDUCTOR_CAP before its field is built."""
    if k < 1:
        raise ParameterError("conductor must be >= 1")
    if k > CONDUCTOR_CAP:
        raise ParameterError(f"conductor capped at {CONDUCTOR_CAP}")


@dataclass
class RootContext:
    """Expansion point p0 = zeta_k^a, q0 = zeta_k^b and an expansion order,
    at most FORMAL_ORDER_CAP.

    Formal-convergence certificates are computed, not assumed: an expression
    expands only when a factor of its sum vanishes at (p0, q0).
    """

    k: int
    a: int
    b: int
    order: int

    def __post_init__(self):
        _require_conductor(self.k)
        _require_order(self.order, FORMAL_ORDER_CAP, "root expansions")
        self.field = get_field(self.k)
        self.p0 = self.field.zeta(self.a)
        self.q0 = self.field.zeta(self.b)

    def point(self) -> Point:
        """(p, q) = (p0 + u, q0 + v), as series in (u, v) truncated at the
        order."""
        u, v = (TruncatedSeries.variable(self.field, 2, self.order, i, UV_NAMES)
                for i in (0, 1))
        return Point(u + self.p0, v + self.q0)

    def describe_point(self):
        return f"p0 = zeta_{self.k}^{self.a}, q0 = zeta_{self.k}^{self.b}"


def _require_certificate(expr: str, ctx: RootContext):
    """Refuse expr at ctx unless a factor (1 - a r^n) of its sum vanishes at
    the constants (p0, q0)."""
    try:
        termination_index(COMPACT_SUMS[expr](Point(ctx.p0, ctx.q0)))
    except CertificateError:
        raise CertificateError(
            f"formal-convergence certificate failed for {expr} at "
            f"{ctx.describe_point()}: no factor (1 - a*r^j) of the sum "
            "vanishes there for any j >= 0") from None


def expand_at_root(expr: str, ctx: RootContext) -> TruncatedSeries:
    """Expand one compact expression as a series in (u, v) = (p-p0, q-q0)
    over Q(zeta_k), to the context's order."""
    if expr not in ROOT_EXPRS:
        raise UnknownFamilyError(
            f"unknown root expression {expr!r}; known: {', '.join(ROOT_EXPRS)}")
    _require_certificate(expr, ctx)
    return expand_sum(COMPACT_SUMS[expr], ctx.point())


# ---------------------------------------------------------------------------
# the q-only statement: p stays formal, expansion in (p, v)


def expand_q_only(side: str, ctx: RootContext) -> TruncatedSeries:
    """Expand a side of the q-only comparison (mid or right expression) as a
    series in the formal variable p and v = q - q0.  p has no inverse here,
    and neither side needs one: `expand_sum` flips only q, for the right
    side, whose sum is in p and 1/q."""
    if side not in ("mid", "right"):
        raise UnknownFamilyError("q-only sides are 'mid' and 'right'")
    p = TruncatedSeries.variable(ctx.field, 2, ctx.order, 0, PFORMAL_NAMES)
    v = TruncatedSeries.variable(ctx.field, 2, ctx.order, 1, PFORMAL_NAMES)
    return expand_sum(COMPACT_SUMS["comp1-" + side], Point(p, v + ctx.q0))


# ---------------------------------------------------------------------------
# conjecture explorer


@dataclass
class ConjectureReport:
    """Evidence (never proof) for the root-of-unity conjecture at one point."""

    k: int
    a: int
    b: int
    order: int
    conj1: VerificationReport
    conj2: VerificationReport
    constant_terms: dict

    @property
    def ok(self) -> bool:
        return self.conj1.ok and self.conj2.ok

    def to_json_dict(self):
        return {"k": self.k, "a": self.a, "b": self.b, "order": self.order,
                "constant_terms": {k: str(v) for k, v in self.constant_terms.items()},
                "conj1": self.conj1.to_json_dict(), "conj2": self.conj2.to_json_dict()}


def conjecture_explore(ctx: RootContext) -> ConjectureReport:
    """Compare the expansions on both sides of the conjectured equalities at
    the context's root of unity: the comp1 left and right sides in (u, v),
    and the q-only mid and right sides in (p, v).  Agreement is reported as
    evidence; the statement remains a conjecture."""
    conj1 = VerificationReport("conj-left-vs-right", "formal", ctx.order, "agreement",
                               detail={"point": ctx.describe_point()})
    left = expand_at_root("comp1-left", ctx)
    right = expand_at_root("comp1-right", ctx)
    conj1.compare(ctx.order, [(left, right, None)]).finish()
    conj2 = VerificationReport("conj-mid-vs-right-q-only", "formal", ctx.order, "agreement",
                               detail={"point": f"q0 = zeta_{ctx.k}^{ctx.b}, p formal"})
    conj2.compare(ctx.order, [(expand_q_only("mid", ctx), expand_q_only("right", ctx),
                               None)]).finish()
    return ConjectureReport(ctx.k, ctx.a, ctx.b, ctx.order, conj1, conj2,
                            {"left": left.constant_term, "right": right.constant_term})


# ---------------------------------------------------------------------------
# terminating checks over Q(zeta_k)


def root_terminating_check(family: str, p: CyclotomicElement,
                           q: CyclotomicElement) -> VerificationReport:
    """`identities.verify_terminating` of the terminating family that the
    check `family` names, at (p, q) in Q(zeta_k), under the id `family`:
    exact equality of the sums, plus the decimal re-check of every value
    through the complex embedding.  Elements of a field beyond CONDUCTOR_CAP
    are refused, as RootContext refuses them: the cross-check's bound is set
    for the fields up to it."""
    if family not in ROOT_CHECK_FAMILIES:
        raise UnknownFamilyError(
            f"unknown family {family!r}; known: {', '.join(ROOT_CHECK_FAMILIES)}")
    for x in (p, q):
        _require_conductor(x.field.k)
    return replace(verify_terminating(ROOT_CHECK_FAMILIES[family], p, q), id=family)
