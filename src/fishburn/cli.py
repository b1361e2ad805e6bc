"""Command-line surface.

Exit codes: 0 on verified/success, 1 when a check ran but found a mismatch,
2 on usage errors, refused certificates, poles, or non-convergence.  All
exact values cross the boundary as strings ("num/den" rationals, coordinate
vectors for cyclotomic elements); JSON output never contains floats for
exact rings.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import asymptotics, hypergeom, identities, oeis, roots
from .cache import SeriesCache, default_cache_dir
from .cyclotomic import get_field
from .enumeration import (fishburn_matrices, refined_counts,
                          row_fishburn_matrices, self_dual_matrices)
from .errors import FishburnError, ParameterError
from .posets import ascent_sequences, count_ascent_sequences, interval_orders
from .qseries import FAMILY_IDS, expand_family, family_ring
from .serialize import series_to_payload

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _emit(args, payload, text_fn):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        text_fn()


def _report_exit(reports) -> int:
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args) -> int:
    params = {}
    if args.gamma is not None:
        params["gamma"] = args.gamma
    if args.r is not None:
        params["r"] = args.r
    cache_dir = args.cache_dir or default_cache_dir()
    cache = SeriesCache(cache_dir) if cache_dir and not args.no_cache else None
    series = None
    ring_tag = family_ring(args.family).tag
    if cache is not None:
        series = cache.get(args.family, params, args.order, ring_tag)
        cached = series is not None
    if series is None:
        series = expand_family(args.family, args.order,
                               gamma=params.get("gamma"), r=params.get("r"))
        cached = False
        if cache is not None:
            cache.put(args.family, params, args.order, series)
    payload = series_to_payload(series)
    payload["cached"] = cached

    def text():
        print(f"{args.family} to total degree {args.order} "
              f"({'cache hit' if cached else 'computed'}):")
        print(f"  {series!r}")
        for term in payload["terms"]:
            print(f"  {term['exp']}: {term['coeff']}")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    fam, size = args.family, args.size
    if fam in ("fishburn", "rowFishburn", "selfDual"):
        table = refined_counts(fam, size)
        payload = {"family": fam, "size": size, "total": table.total,
                   "counts": {str(k): v for k, v in sorted(table.counts.items())}}
        if args.dump:
            gen = {"fishburn": fishburn_matrices,
                   "rowFishburn": row_fishburn_matrices}.get(fam)
            matrices = (m.completed() if fam == "selfDual" else m
                        for m in (self_dual_matrices(size) if fam == "selfDual"
                                  else gen(size)))
            for m in matrices:
                print(m.dump())
            return EXIT_OK
    elif fam == "intervalOrders":
        posets = interval_orders(size)
        joint = {}
        for p in posets:
            key = (p.minimal_count, p.maximal_count)
            joint[key] = joint.get(key, 0) + 1
        payload = {"family": fam, "size": size, "total": len(posets),
                   "counts": {str(k): v for k, v in sorted(joint.items())}}
        if args.dump:
            raise ParameterError("--dump applies to matrix families only")
    elif fam == "ascentSequences":
        payload = {"family": fam, "size": size,
                   "total": count_ascent_sequences(size)}
        if args.dump:
            for seq in ascent_sequences(size):
                print(" ".join(map(str, seq)))
            return EXIT_OK
    else:
        raise ParameterError(f"unknown enumeration family {fam!r}")

    def text():
        print(f"{fam} size {size}: total {payload['total']}")
        for key, v in payload.get("counts", {}).items():
            print(f"  {key}: {v}")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    kwargs = {}
    if args.gamma is not None:
        kwargs["gamma"] = args.gamma
    if args.r is not None:
        kwargs["r"] = args.r
    reports = identities.verify(args.id, order=args.order, **kwargs)
    payload = [r.to_json_dict() for r in reports]

    def text():
        for r in reports:
            print(f"{r.id:28s} [{r.mode:17s}] {r.outcome:10s} "
                  f"({r.timing_ms:8.1f} ms)"
                  + (f" witness: {r.witness}" if r.witness else ""))
    _emit(args, payload, text)
    return _report_exit(reports)


def cmd_terminating(args) -> int:
    if args.expr in ("comp1", "comp2"):
        rep = identities.verify_terminating(args.expr, args.p, args.q)
        payload = rep.to_json_dict()

        def text():
            vals = rep.detail["values"]
            if rep.ok:
                uniq = sorted(set(vals.values()))
                print(f"{args.expr} at p={args.p}, q={args.q}: "
                      f"all {len(vals)} expressions = {uniq[0]}")
            else:
                print(f"{args.expr} at p={args.p}, q={args.q}: MISMATCH {vals}")
        _emit(args, payload, text)
        return _report_exit([rep])
    value = identities.fraction_str(identities.evaluate_terminating(args.expr, args.p, args.q))
    payload = {"expr": args.expr, "p": str(args.p), "q": str(args.q), "value": value}
    _emit(args, payload, lambda: print(f"{args.expr}({args.p}, {args.q}) = {value}"))
    return EXIT_OK


_NUMERIC_IDS = hypergeom.NUMERIC_IDENTITIES


def cmd_numeric(args) -> int:
    _ident, sampler, checker, _names = _NUMERIC_IDS[args.id]
    if args.param:
        values = {}
        for spec in args.param:
            name, _, raw = spec.partition("=")
            if not raw:
                raise ParameterError(f"--param expects name=value, got {spec!r}")
            values[name] = complex(raw)
        points = [values]
    else:
        if args.draws < 1:
            raise ParameterError(f"--draws must be at least 1, got {args.draws}")
        import random
        rng = random.Random(args.seed)
        points = [sampler(rng).values for _ in range(args.draws)]
    tol = f"1e-{args.tol_exp}"
    reports = [checker(hypergeom.NumericEvalParams(values=values, dps=args.digits, tol=tol,
                                                   max_terms=args.max_terms))
               for values in points]
    payload = [r.to_json_dict() for r in reports]

    def text():
        for r in reports:
            print(f"{r.id}: {r.outcome} (|diff| = {r.detail.get('abs_diff')}, "
                  f"tol = {r.detail.get('tol', tol)})")
    _emit(args, payload, text)
    if any(r.outcome == "inconclusive" for r in reports):
        return EXIT_ERROR
    return _report_exit(reports)


def cmd_watson(args) -> int:
    rep = hypergeom.watson_exact(args.n, args.a, args.b, args.c, args.e,
                                 args.q, d=args.d)
    payload = rep.to_json_dict()

    def text():
        print(f"watson N={args.n}: {rep.outcome}; both sides = {rep.detail['lhs']}")
    _emit(args, payload, text)
    return _report_exit([rep])


def cmd_asymptotics(args) -> int:
    rows = asymptotics.trend(args.which, args.n_max)
    import mpmath as mp
    payload = {"which": args.which,
               "rows": [{"n": r.n, "ratio": mp.nstr(r.ratio, 12),
                         "deviation": mp.nstr(r.deviation, 8)} for r in rows]}

    def text():
        print(f"{args.which}: coefficient / closed-form main term")
        step = max(1, len(rows) // 20)
        for r in rows[::step]:
            print(f"  n={r.n:4d} ratio={mp.nstr(r.ratio, 10)} "
                  f"n*|ratio-1|={mp.nstr(r.n * r.deviation, 6)}")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_roots(args) -> int:
    if args.action == "explore":
        ctx = roots.RootContext(args.k, args.a, args.b, args.order)
        rep = roots.conjecture_explore(ctx)
        payload = rep.to_json_dict()

        def text():
            print(f"conjecture explorer at {ctx.describe_point()}, order {ctx.order}")
            print(f"  constants: left = {rep.constant_terms['left']!r}, "
                  f"right = {rep.constant_terms['right']!r}")
            for sub in (rep.conj1, rep.conj2):
                if sub is not None:
                    print(f"  {sub.id}: {sub.outcome}"
                          + (f" witness: {sub.witness}" if sub.witness else ""))
        _emit(args, payload, text)
        return EXIT_OK if rep.ok else EXIT_MISMATCH
    if args.action == "expand":
        ctx = roots.RootContext(args.k, args.a, args.b, args.order)
        series = roots.expand_at_root(args.expr, ctx)
        payload = series_to_payload(series)
        payload["point"] = ctx.describe_point()

        def text():
            print(f"{args.expr} at {ctx.describe_point()} in (u, v):")
            for term in payload["terms"]:
                print(f"  {term['exp']}: {term['coeff']}")
        _emit(args, payload, text)
        return EXIT_OK
    # check: terminating families at cyclotomic points
    field = get_field(args.k)
    p = field.zeta(args.p_exp)
    q = field.zeta(args.q_exp)
    rep = roots.root_terminating_check(args.family, p, q)
    payload = rep.to_json_dict()

    def text():
        print(f"{args.family} at p = zeta_{args.k}^{args.p_exp}, "
              f"q = zeta_{args.k}^{args.q_exp}: {rep.outcome}")
        for name, val in rep.detail["values"].items():
            print(f"  {name} = {val}")
        print(f"  embedding cross-check |diff| = {rep.detail['embedding_diff']}")
    _emit(args, payload, text)
    return _report_exit([rep])


def cmd_oeis_check(args) -> int:
    path = args.bfile
    if args.fetch:
        import os
        if not os.path.exists(path):
            oeis.fetch_b_file(args.seq, path)
    records = oeis.parse_b_file(path)
    result = oeis.cross_check(args.seq, records, max_n=args.max_n)
    payload = dict(result)
    payload["rows"] = [{"n": n, "computed": mine, "bfile": theirs, "match": ok}
                       for n, mine, theirs, ok in result["rows"]]
    all_ok = result["checked"] == result["matches"] and result["checked"] > 0

    def text():
        print(f"{args.seq}: {result['matches']}/{result['checked']} indices match")
        for n, mine, theirs, ok in result["rows"]:
            mark = "ok" if ok else "MISMATCH"
            print(f"  n={n:3d} computed={mine} bfile={theirs} {mark}")
    _emit(args, payload, text)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_pentagonal(args) -> int:
    rep = identities.registry()["pentagonal-3way"].runner(order=args.order)
    series = expand_family("pentagonal-product", args.order)
    payload = {"report": rep.to_json_dict(),
               "product": series_to_payload(series)}

    def text():
        print(f"pentagonal three-way identity to degree {args.order}: {rep.outcome}")
        print(f"  product {series!r}")
    _emit(args, payload, text)
    return _report_exit([rep])


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishburn",
        description="exact q-series and enumeration toolkit for interval orders")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("expand", help="expand a named series family")
    p.add_argument("--family", required=True, choices=FAMILY_IDS)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--gamma", type=_rational)
    p.add_argument("--r", type=_rational)
    p.add_argument("--cache-dir")
    p.add_argument("--no-cache", action="store_true")
    add_format(p)
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("enumerate", help="enumerate matrices, posets, sequences")
    p.add_argument("--family", required=True,
                   choices=("fishburn", "rowFishburn", "selfDual",
                            "intervalOrders", "ascentSequences"))
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--dump", action="store_true",
                   help="print objects (matrix dump format: 'n=<dim>' then rows)")
    add_format(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("verify", help="run registry identities")
    p.add_argument("--id", required=True,
                   help="identity id, 'thm-main', or 'all'")
    p.add_argument("--order", type=int)
    p.add_argument("--gamma", type=_rational)
    p.add_argument("--r", type=_rational)
    add_format(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("terminating", help="exact terminating sums at (p, q)")
    p.add_argument("--expr", required=True,
                   choices=("comp1", "comp2") + identities.TERMINATING_EXPRS)
    p.add_argument("--p", type=_rational, required=True)
    p.add_argument("--q", type=_rational, required=True)
    add_format(p)
    p.set_defaults(fn=cmd_terminating)

    p = sub.add_parser("numeric", help="high-precision numeric identity checks")
    p.add_argument("--id", required=True, choices=sorted(_NUMERIC_IDS))
    p.add_argument("--param", action="append",
                   help="name=value (complex); repeat per parameter")
    p.add_argument("--digits", type=int, default=60)
    p.add_argument("--tol-exp", type=int, default=25,
                   help="tolerance is 10^-THIS")
    p.add_argument("--draws", type=int, default=5)
    p.add_argument("--seed", type=int, default=20260809)
    p.add_argument("--max-terms", type=int, default=400)
    add_format(p)
    p.set_defaults(fn=cmd_numeric)

    p = sub.add_parser("watson", help="exact terminating Watson transformation")
    p.add_argument("--n", type=int, required=True)
    for name in "abce":
        p.add_argument(f"--{name}", type=_rational, required=True)
    p.add_argument("--q", type=_rational, required=True)
    p.add_argument("--d", type=_rational, help="defaults to q")
    add_format(p)
    p.set_defaults(fn=cmd_watson)

    p = sub.add_parser("asymptotics", help="main-term ratio tables")
    p.add_argument("--which", required=True, choices=("fishburn", "rowFishburn"))
    p.add_argument("--n-max", type=int, default=100)
    add_format(p)
    p.set_defaults(fn=cmd_asymptotics)

    p = sub.add_parser("roots", help="root-of-unity expansions and checks")
    p.add_argument("action", choices=("explore", "expand", "check"))
    p.add_argument("--k", type=int, required=True, help="conductor")
    p.add_argument("--a", type=int, default=0, help="p0 = zeta_k^a")
    p.add_argument("--b", type=int, default=0, help="q0 = zeta_k^b")
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--expr", default="comp1-left", choices=roots.ROOT_EXPRS)
    p.add_argument("--family", default="comp2-three-way",
                   choices=roots.ROOT_CHECK_FAMILIES)
    p.add_argument("--p-exp", type=int, default=0, help="p = zeta_k^THIS (check)")
    p.add_argument("--q-exp", type=int, default=0, help="q = zeta_k^THIS (check)")
    add_format(p)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("oeis-check", help="cross-check a sequence b-file")
    p.add_argument("--seq", required=True, choices=sorted(oeis.SEQUENCES))
    p.add_argument("--bfile", required=True)
    p.add_argument("--max-n", type=int, default=64,
                   help="compare indices up to this (default 64; values are "
                        "recomputed exactly and the cost grows cubically)")
    p.add_argument("--fetch", action="store_true",
                   help="download the b-file first if missing (needs network)")
    add_format(p)
    p.set_defaults(fn=cmd_oeis_check)

    p = sub.add_parser("pentagonal", help="pentagonal three-way identity")
    p.add_argument("--order", type=int, default=30)
    add_format(p)
    p.set_defaults(fn=cmd_pentagonal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FishburnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
