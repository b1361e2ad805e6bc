"""The benchmark's workloads: fixed batches of checked operations.

Each workload draws its inputs from a seeded `random.Random` and turns them
into a batch of operations.  An operation is one call into the library (or
one `fishburn` command) plus a check of its output against frozen values or
an independent route; an expected refusal counts as a success.  The batch
runs in a fixed order, so every pass repeats exactly the same calls, and the
seed changes only the inputs (``oracle`` has none).

Why these workloads (each stresses layers the others bypass):

- ``formal``: the exact ZZ/QQ series kernel and the family builders.
  Cyclotomic, enumeration, hypergeom, cache and cli do no work here.
- ``roots``: the same series kernel over Q(zeta_k), where cyclotomic
  Fraction arithmetic dominates.  ``formal`` is its bypass.
- ``oracle``: brute-force matrix and poset enumeration; the series kernel is
  almost idle, so kernel changes must show no change here.
- ``cli``: the command line as subprocesses, the only user of cache,
  serialize, hypergeom, asymptotics and the per-call interpreter start.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

FISHBURN = (1, 1, 2, 5, 15, 53, 217, 1014, 5335)          # f_0 .. f_8
ROW_FISHBURN = (1, 1, 3, 12, 61, 380, 2815, 24213)         # r_0 .. r_7
OK_OUTCOMES = ("verified", "agreement")
CONDUCTORS = (3, 4, 6, 12)
ROOT_ORDER = 6
EMBED_TOL = 1e-40


class Mismatch(Exception):
    """An operation returned a wrong or unexpected result."""


def expect(condition, what: str):
    if not condition:
        raise Mismatch(what)


def _accept(_result):
    pass


@dataclass
class Op:
    """One call of a batch: `call()` runs it, `check(result)` raises Mismatch
    on a wrong result; with `refusal` set, raising that exception is the
    correct outcome and returning is a failure."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], None] = _accept
    refusal: type = None


def small_rational(rng, exclude):
    """A rational of small height (numerator and denominator at most 4 in
    absolute value), never one of `exclude`."""
    while True:
        value = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 4))
        if value not in exclude:
            return value


def units(k):
    return [b for b in range(1, k) if gcd(b, k) == 1]


def diagonal_sums(series, n):
    """Coefficient sums over total degree m = 0..n (the series at x = y)."""
    sums = [0] * (n + 1)
    for exp, coeff in series.terms.items():
        if sum(exp) <= n:
            sums[sum(exp)] += coeff
    return sums


def check_reports(expected_count):
    def check(reports):
        expect(len(reports) == expected_count,
               f"{len(reports)} reports, expected {expected_count}")
        for rep in reports:
            expect(rep.ok, f"{rep.id}: {rep.outcome} {rep.witness}")
    return check


def check_report(rep):
    expect(rep.ok, f"{rep.id}: {rep.outcome} {rep.witness}")


class Workload:
    """A seeded batch of operations; `ops()` returns one pass of it."""

    name = ""
    setup_code = ""  # what a user runs before the first call, timed as setup_s

    def __init__(self, rng, fishburn, workdir):
        self.fb = fishburn
        self.workdir = workdir
        self.inputs = {}
        self.batch = self.build(rng)

    def build(self, rng):
        """The operations of one pass, in the order they run."""
        raise NotImplementedError

    def ops(self, runner=None):
        return list(self.batch)

    def op_names(self):
        return [op.name for op in Workload.ops(self)]

    def end_pass(self):
        pass


class Formal(Workload):
    name = "formal"
    setup_code = "import fishburn; fishburn.registry()"

    def build(self, rng):
        fb = self.fb
        g1 = small_rational(rng, exclude=(1,))
        r1 = small_rational(rng, exclude=(0,))
        g2 = small_rational(rng, exclude=(1,))
        self.inputs = {"gamma1": str(g1), "r": str(r1), "gamma2": str(g2)}
        dense_f = fb.fishburn_numbers(20)
        dense_r = fb.row_fishburn_numbers(20)
        ref = {"F": fb.expand_family("F1", 20), "G": fb.expand_family("G1", 20)}

        def verify(ident, order, count=1, **params):
            return Op(f"verify {ident}@{order}",
                      lambda: fb.verify(ident, order=order, **params),
                      check_reports(count))

        def sequence_check(family, dense, frozen):
            def check(series):
                sums = diagonal_sums(series, 20)
                expect(sums[:len(frozen)] == list(frozen),
                       f"{family} diagonal {sums[:len(frozen)]} != frozen {frozen}")
                expect(sums == dense, f"{family} diagonal != dense route")
            return check

        def equals_ref(family, key):
            def check(series):
                expect(series == ref[key], f"{family}@20 != {key}1@20")
            return check

        batch = [
            verify("thm-main", 14, count=6),
            verify("KR-first=F3", 14),
            verify("prop12", 10),
            verify("prop12-specializations", 10),
            verify("gamma1", 12, gamma=g1, r=r1),
            verify("gamma2", 12, gamma=g2),
            verify("pentagonal-3way", 60),
        ]
        for family in ("F1", "F2", "F3", "G1", "G2", "G3"):
            if family == "F1":
                check = sequence_check(family, dense_f, FISHBURN)
            elif family == "G1":
                check = sequence_check(family, dense_r, ROW_FISHBURN)
            else:
                check = equals_ref(family, family[0])
            batch.append(Op(f"expand_family {family}@20",
                            lambda family=family: fb.expand_family(family, 20), check))
        return batch


class Roots(Workload):
    name = "roots"
    setup_code = ("import fishburn; fishburn.registry(); "
                  f"[fishburn.get_field(k) for k in {CONDUCTORS!r}]")

    def build(self, rng):
        fb = self.fb
        from fishburn.errors import CertificateError
        from fishburn.roots import RootContext
        batch = []
        points, checks = [], []
        for k in CONDUCTORS:
            a, b = rng.randrange(k), rng.choice(units(k))
            points.append((k, a, b))
            batch.append(Op(f"conjecture_explore k={k} a={a} b={b}",
                            lambda k=k, a=a, b=b: fb.conjecture_explore(
                                RootContext(k, a, b, ROOT_ORDER)),
                            _check_explore))
            field = fb.get_field(k)
            for family, step in (("comp1-left-vs-mid", 1), ("comp2-three-way", 2)):
                # q = zeta^s and p = q^(-step*j): p*q^(step*j) = 1 certifies termination
                s, j = rng.randrange(1, k), rng.randrange(1, k + 1)
                p_exp = (-step * s * j) % k
                checks.append((k, family, p_exp, s))
                batch.append(Op(f"root_terminating_check {family} k={k} p=z^{p_exp} q=z^{s}",
                                lambda family=family, field=field, p_exp=p_exp, s=s:
                                fb.root_terminating_check(family, field.zeta(p_exp),
                                                          field.zeta(s)),
                                _check_root_terminating))
            # q = 1 and p = zeta: p*q^j = zeta for every j, so no certificate exists
            batch.append(Op(f"root_terminating_check refusal k={k}",
                            lambda field=field: fb.root_terminating_check(
                                "comp1-left-vs-mid", field.zeta(1), field.zeta(0)),
                            refusal=CertificateError))
        self.inputs = {"explore_points": points, "terminating_points": checks}
        return batch


def _check_explore(rep):
    for sub in (rep.conj1, rep.conj2):
        expect(sub is not None and sub.outcome == "agreement",
               f"{sub and sub.id}: {sub and sub.outcome} {sub and sub.witness}")
    expect(rep.constant_terms["left"] == rep.constant_terms["right"],
           "constant terms differ")


def _check_root_terminating(rep):
    check_report(rep)
    values = set(rep.detail["values"].values())
    expect(len(values) == 1, f"values differ: {rep.detail['values']}")
    expect(float(rep.detail["embedding_diff"]) < EMBED_TOL,
           f"embedding diff {rep.detail['embedding_diff']}")


class Oracle(Workload):
    name = "oracle"
    setup_code = "import fishburn; fishburn.registry()"

    def build(self, rng):
        fb = self.fb
        dense_f = fb.fishburn_numbers(8)
        dense_r = fb.row_fishburn_numbers(7)

        def check_fishburn(table):
            expect(table.total == FISHBURN[8] == dense_f[8],
                   f"fishburn@8 total {table.total}")
            # reverse-transpose swaps first-row and last-column sums
            for (first, last), count in table.counts.items():
                expect(table.counts.get((last, first)) == count,
                       f"fishburn@8 joint table not symmetric at {(first, last)}")

        def check_row(table):
            expect(table.total == ROW_FISHBURN[7] == dense_r[7],
                   f"rowFishburn@7 total {table.total}")

        def check_self_dual(table):
            zero_diag = sum(c for (_, zero), c in table.counts.items() if zero)
            expect(table.total == 2 * ROW_FISHBURN[6], f"selfDual@6 total {table.total}")
            expect(zero_diag == ROW_FISHBURN[6], f"selfDual@6 zero-diagonal {zero_diag}")

        def check_oracle(rep):
            check_report(rep)
            expect(rep.detail.get("coefficients_checked") == 36,
                   f"{rep.id} checked {rep.detail.get('coefficients_checked')}")

        def check_facts(rep):
            expect(rep.ok and rep.checked, f"verify_facts failures {rep.failures}")

        def check_interval_orders(posets):
            expect(len(posets) == FISHBURN[6], f"interval_orders(6) = {len(posets)}")

        def check_ascent(count):
            expect(count == FISHBURN[8], f"count_ascent_sequences(8) = {count}")

        return [
            Op("refined_counts fishburn@8", lambda: fb.refined_counts("fishburn", 8),
               check_fishburn),
            Op("refined_counts rowFishburn@7", lambda: fb.refined_counts("rowFishburn", 7),
               check_row),
            Op("refined_counts selfDual@6", lambda: fb.refined_counts("selfDual", 6),
               check_self_dual),
            Op("verify_coefficient_oracle F1@7",
               lambda: fb.verify_coefficient_oracle("F1", 7), check_oracle),
            Op("verify_coefficient_oracle G1@7",
               lambda: fb.verify_coefficient_oracle("G1", 7), check_oracle),
            Op("verify_facts(6)", lambda: fb.verify_facts(6), check_facts),
            Op("interval_orders(6)", lambda: fb.interval_orders(6), check_interval_orders),
            Op("count_ascent_sequences(8)", lambda: fb.count_ascent_sequences(8),
               check_ascent),
        ]


class Cli(Workload):
    """`fishburn` commands.  `ops(runner)` takes the function that runs one
    command line and returns (exit code, stdout): a subprocess, or
    `fishburn.cli.main` in-process for the traced run."""

    name = "cli"
    setup_code = "import fishburn.cli"

    def build(self, rng):
        fb = self.fb
        from fishburn.serialize import series_to_payload
        gamma = small_rational(rng, exclude=(1,))
        seeds = {ident: rng.randrange(2**31) for ident in ("rf", "grf", "watson-limit")}
        k = rng.choice(CONDUCTORS)
        family, step = rng.choice((("comp1-left-vs-mid", 1), ("comp2-three-way", 2)))
        s, j = rng.randrange(1, k), rng.randrange(1, k + 1)
        p_exp = (-step * s * j) % k
        self.inputs = {"gamma": str(gamma), "numeric_seeds": seeds,
                       "roots_check": [k, family, p_exp, s]}
        # independent routes for the expanded series: F1 = F2, G1 = G3 and
        # gamma2-lhs = gamma2-rhs are the identities the paper proves
        self.expected_terms = {
            name: series_to_payload(fb.expand_family(route, order, **params))["terms"]
            for name, route, order, params in (
                ("F2", "F1", 18, {}), ("G3", "G1", 18, {}),
                ("gamma2-rhs", "gamma2-lhs", 10, {"gamma": gamma}))
        }
        self.registry_ids = sorted(fb.registry())
        self._runner = None
        self._cache_dir = None
        # "--gamma=" because a negative gamma would otherwise parse as an option
        expand_args = {"F2": ["--order", "18"], "G3": ["--order", "18"],
                       "gamma2-rhs": ["--order", "10", f"--gamma={gamma}"]}

        def command(name, argv, check):
            return Op(name, lambda: self._runner(argv + ["--format", "json"]),
                      _json_check(check))

        def expand(family, hit):
            def argv_fn():
                return (["expand", "--family", family, *expand_args[family],
                         "--cache-dir", self._cache_dir, "--format", "json"])

            def check(payload):
                expect(payload["cached"] is hit, f"expand {family}: cached={payload['cached']}")
                expect(payload["terms"] == self.expected_terms[family],
                       f"expand {family} differs from the independent route")
            return Op(f"expand {family} ({'hit' if hit else 'miss'})",
                      lambda: self._runner(argv_fn()), _json_check(check))

        def check_verify_all(reports):
            expect(sorted(r["id"] for r in reports) == self.registry_ids,
                   "verify --id all report ids differ from the registry")
            for r in reports:
                expect(r["outcome"] in OK_OUTCOMES, f"{r['id']}: {r['outcome']}")

        def check_numeric(reports):
            expect(len(reports) == 10, f"{len(reports)} numeric reports")
            for r in reports:
                expect(r["outcome"] in OK_OUTCOMES, f"{r['id']}: {r['outcome']}")

        def check_trend(payload):
            dev = {row["n"]: float(row["deviation"]) for row in payload["rows"]}
            expect(sorted(dev) == list(range(1, 101)), "asymptotics rows are not n = 1..100")
            expect(dev[60] < dev[30], f"{payload['which']}: deviation does not shrink")
            scaled = [n * dev[n] for n in range(20, 101)]
            expect(max(scaled) < 3 * min(scaled),
                   f"{payload['which']}: n*deviation leaves a factor-3 band")

        def check_values(value):
            def check(rep):
                expect(rep["outcome"] == "verified", f"terminating: {rep['outcome']}")
                expect(set(rep["detail"]["values"].values()) == {value},
                       f"terminating values {rep['detail']['values']} != {value}")
            return check

        def check_roots(rep):
            expect(rep["outcome"] == "verified", f"roots check: {rep['outcome']}")
            expect(len(set(rep["detail"]["values"].values())) == 1, "roots check values differ")
            expect(float(rep["detail"]["embedding_diff"]) < EMBED_TOL, "embedding diff too large")

        def check_pentagonal(payload):
            expect(payload["report"]["outcome"] == "verified",
                   f"pentagonal: {payload['report']['outcome']}")
            got = {tuple(t["exp"]): int(t["coeff"]) for t in payload["product"]["terms"]}
            expect(got == euler_pentagonal(30), "pentagonal product != Euler's pentagonal series")

        return [
            command("verify --id all", ["verify", "--id", "all"], check_verify_all),
            *[expand(family, hit) for hit in (False, True) for family in expand_args],
            *[command(f"numeric --id {ident}",
                      ["numeric", "--id", ident, "--draws", "10", "--seed", str(seed)],
                      check_numeric) for ident, seed in seeds.items()],
            *[command(f"asymptotics --which {which}",
                      ["asymptotics", "--which", which, "--n-max", "100"], check_trend)
              for which in ("fishburn", "rowFishburn")],
            command(f"roots check k={k} {family}",
                    ["roots", "check", "--k", str(k), "--family", family,
                     "--p-exp", str(p_exp), "--q-exp", str(s)], check_roots),
            command("terminating comp2 p=4 q=1/2",
                    ["terminating", "--expr", "comp2", "--p", "4", "--q", "1/2"],
                    check_values("5/8")),
            command("terminating comp1 p=2 q=1/2",
                    ["terminating", "--expr", "comp1", "--p", "2", "--q", "1/2"],
                    check_values("3/2")),
            command("pentagonal", ["pentagonal", "--order", "30"], check_pentagonal),
        ]

    def ops(self, runner):
        """One pass; every pass gets a fresh cache directory, so the first
        expand of each family misses and writes and the second hits."""
        self._runner = runner
        self._cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.workdir)
        return super().ops()

    def end_pass(self):
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
            self._cache_dir = None


def _json_check(check):
    def run(outcome):
        code, stdout = outcome
        expect(code == 0, f"exit code {code}")
        check(json.loads(stdout))
    return run


def euler_pentagonal(order):
    """Coefficients of prod_{n>=1} (1 - w^n) up to w^order: (-1)^k at the
    generalized pentagonal numbers k(3k -+ 1)/2, zero elsewhere."""
    coeffs = {(0,): 1}
    k = 1
    while k * (3 * k - 1) // 2 <= order:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= order:
                coeffs[(e,)] = -1 if k % 2 else 1
        k += 1
    return coeffs


WORKLOADS = {cls.name: cls for cls in (Formal, Roots, Oracle, Cli)}
