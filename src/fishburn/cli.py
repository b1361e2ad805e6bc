"""Command-line surface.

Exit codes: 0 on verified/success, 1 when a check ran but found a mismatch,
2 on usage errors, refused certificates, poles, or non-convergence.  All
exact values cross the boundary as strings ("num/den" rationals, coordinate
vectors for cyclotomic elements); JSON output never contains floats for
exact rings.

Each `fishburn` call is a fresh interpreter, so at the top the module imports
only the standard library, the error types and the name tuples of `names`;
every `cmd_*` imports the layers it runs inside its body.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import FishburnError, ParameterError
from .names import (FAMILY_IDS, NUMERIC_IDS, OEIS_SEQUENCES, ROOT_CHECK_FAMILIES,
                    ROOT_EXPRS, TERMINATING_EXPRS, TERMINATING_FAMILIES,
                    TREND_SEQUENCES)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ERROR = 2


def _rational(text: str) -> Fraction:
    from .cyclotomic import parse_fraction  # read at any number of digits

    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _emit(args, payload, text_fn):
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        text_fn()


def _report_exit(reports) -> int:
    """2 when a check did not converge, else 1 when one found a mismatch."""
    if any(r.outcome == "inconclusive" for r in reports):
        return EXIT_ERROR
    return EXIT_OK if all(r.ok for r in reports) else EXIT_MISMATCH


def _family_params(args) -> dict:
    """The --gamma and --r values given, by parameter name."""
    return {k: v for k, v in (("gamma", args.gamma), ("r", args.r)) if v is not None}


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args) -> int:
    from .cache import SeriesCache, default_cache_dir
    from .qseries import expand_family, family_names, family_ring
    from .serialize import series_to_payload

    params = _family_params(args)
    cache_dir = args.cache_dir or default_cache_dir()
    cache = SeriesCache(cache_dir) if cache_dir and not args.no_cache else None
    series = None
    if cache is not None:
        series = cache.get(args.family, params, args.order, family_ring(args.family).tag,
                           family_names(args.family))
    cached = series is not None
    if not cached:
        series = expand_family(args.family, args.order, **params)
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
    from .enumeration import (fishburn_matrices, refined_counts,
                              row_fishburn_matrices, self_dual_matrices)
    from .posets import (ascent_sequences, count_ascent_sequences,
                         interval_order_statistics)

    fam, size = args.family, args.size
    generators = {"fishburn": fishburn_matrices,
                  "rowFishburn": row_fishburn_matrices,
                  "selfDual": self_dual_matrices}
    if fam in generators:
        if args.dump:
            for m in generators[fam](size):
                print(m.dump())
            return EXIT_OK
        table = refined_counts(fam, size)
        payload = {"family": fam, "size": size, "total": table.total,
                   "counts": {str(k): v for k, v in sorted(table.counts.items())}}
    elif fam == "intervalOrders":
        if args.dump:
            raise ParameterError("--dump applies to matrix families only")
        stats = interval_order_statistics(size)
        payload = {"family": fam, "size": size, "total": stats["count"],
                   "counts": {str(k): v for k, v in sorted(stats["joint"].items())}}
    elif args.dump:  # ascentSequences, the last of the --family choices
        for seq in ascent_sequences(size):
            print(" ".join(map(str, seq)))
        return EXIT_OK
    else:
        payload = {"family": fam, "size": size,
                   "total": count_ascent_sequences(size)}

    def text():
        print(f"{fam} size {size}: total {payload['total']}")
        for key, v in payload.get("counts", {}).items():
            print(f"  {key}: {v}")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import identities

    reports = identities.verify(args.id, order=args.order, **_family_params(args))
    payload = [r.to_json_dict() for r in reports]

    def text():
        for r in reports:
            print(f"{r.id:28s} [{r.mode:17s}] {r.outcome:10s} "
                  f"({r.timing_ms:8.1f} ms)"
                  + (f" witness: {r.witness}" if r.witness else ""))
    _emit(args, payload, text)
    return _report_exit(reports)


def cmd_terminating(args) -> int:
    from . import identities
    from .cyclotomic import fraction_str

    p, q = fraction_str(args.p), fraction_str(args.q)
    if args.expr in TERMINATING_FAMILIES:
        rep = identities.verify_terminating(args.expr, args.p, args.q)
        payload = rep.to_json_dict()

        def text():
            vals = rep.detail["values"]
            if rep.ok:
                uniq = sorted(set(vals.values()))
                print(f"{args.expr} at p={p}, q={q}: "
                      f"all {len(vals)} expressions = {uniq[0]}")
            else:
                print(f"{args.expr} at p={p}, q={q}: MISMATCH {vals}")
        _emit(args, payload, text)
        return _report_exit([rep])
    value = fraction_str(identities.evaluate_terminating(args.expr, args.p, args.q))
    payload = {"expr": args.expr, "p": p, "q": q, "value": value}
    _emit(args, payload, lambda: print(f"{args.expr}({p}, {q}) = {value}"))
    return EXIT_OK


def __getattr__(name):
    # `_NUMERIC_IDS` is the hypergeom table itself, resolved on access so that
    # importing the CLI does not load hypergeom
    if name == "_NUMERIC_IDS":
        from .hypergeom import NUMERIC_IDENTITIES
        return NUMERIC_IDENTITIES
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_numeric(args) -> int:
    from . import hypergeom

    if args.tol_exp is not None and args.tol_exp < 1:
        raise ParameterError(f"--tol-exp must be at least 1, got {args.tol_exp}")
    checker = hypergeom.NUMERIC_IDENTITIES[args.id][2]
    if args.param:
        values = {}
        for spec in args.param:
            name, _, raw = spec.partition("=")
            if not raw:
                raise ParameterError(f"--param expects name=value, got {spec!r}")
            if name in values:
                raise ParameterError(f"--param {name} is given more than once")
            values[name] = complex(raw)
        points = [values]
    else:
        points = [p.values for p in hypergeom.draw_params(args.id, args.draws, args.seed)]
    # the settings given; NumericEvalParams holds the defaults of the others
    given = {"dps": args.digits, "max_terms": args.max_terms,
             "tol": None if args.tol_exp is None else f"1e-{args.tol_exp}"}
    settings = {k: v for k, v in given.items() if v is not None}
    params = [hypergeom.NumericEvalParams(values=values, **settings) for values in points]
    reports = [checker(pt) for pt in params]
    payload = [r.to_json_dict() for r in reports]

    def text():
        for r, pt in zip(reports, params):
            print(f"{r.id}: {r.outcome} (|diff| = {r.detail.get('abs_diff')}, "
                  f"tol = {pt.tol})")
    _emit(args, payload, text)
    return _report_exit(reports)


def cmd_watson(args) -> int:
    from . import hypergeom

    rep = hypergeom.watson_exact(args.n, args.a, args.b, args.c, args.e,
                                 args.q, d=args.d)
    payload = rep.to_json_dict()

    def text():
        print(f"watson N={args.n}: {rep.outcome}; both sides = {rep.detail['lhs']}")
    _emit(args, payload, text)
    return _report_exit([rep])


def cmd_asymptotics(args) -> int:
    from . import asymptotics
    from .cyclotomic import decimal_str

    rows = asymptotics.trend(args.which, args.n_max)
    payload = {"which": args.which,
               "rows": [{"n": r.n, "ratio": decimal_str(r.ratio, 12),
                         "deviation": decimal_str(r.deviation, 8)} for r in rows]}

    def text():
        print(f"{args.which}: coefficient / closed-form main term")
        step = max(1, len(rows) // 20)
        for r in rows[::step]:
            print(f"  n={r.n:4d} ratio={decimal_str(r.ratio, 10)} "
                  f"n*|ratio-1|={decimal_str(r.n * r.deviation, 6)}")
    _emit(args, payload, text)
    return EXIT_OK


def cmd_roots(args) -> int:
    from . import roots
    from .serialize import series_to_payload

    if args.action == "explore":
        ctx = roots.RootContext(args.k, args.a, args.b, args.order)
        rep = roots.conjecture_explore(ctx)
        payload = rep.to_json_dict()

        def text():
            print(f"conjecture explorer at {ctx.describe_point()}, order {ctx.order}")
            print(f"  constants: left = {rep.constant_terms['left']!r}, "
                  f"right = {rep.constant_terms['right']!r}")
            for sub in (rep.conj1, rep.conj2):
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
    # check: terminating families at cyclotomic points, whose conductor the
    # context bounds before any field is built
    ctx = roots.RootContext(args.k, args.p_exp, args.q_exp, 0)
    rep = roots.root_terminating_check(args.family, ctx.p0, ctx.q0)
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
    from . import oeis

    path = args.bfile
    if args.fetch:
        import os
        if not os.path.exists(path):
            oeis.fetch_b_file(args.seq, path)
    records = oeis.parse_b_file(path)
    given = {} if args.max_n is None else {"max_n": args.max_n}
    result = oeis.cross_check(args.seq, records, **given)
    payload = dict(result)
    payload["rows"] = [{"n": n, "computed": mine, "bfile": theirs, "match": ok}
                       for n, mine, theirs, ok in result["rows"]]
    all_ok = result["checked"] == result["matches"]

    def text():
        print(f"{args.seq}: {result['matches']}/{result['checked']} indices match")
        for n, mine, theirs, ok in result["rows"]:
            mark = "ok" if ok else "MISMATCH"
            print(f"  n={n:3d} computed={mine} bfile={theirs} {mark}")
    _emit(args, payload, text)
    return EXIT_OK if all_ok else EXIT_MISMATCH


def cmd_pentagonal(args) -> int:
    from . import identities
    from .qseries import expand_family
    from .serialize import series_to_payload

    rep = identities.registry()["pentagonal-3way"](order=args.order)
    series = expand_family("pentagonal-product", rep.order)
    payload = {"report": rep.to_json_dict(),
               "product": series_to_payload(series)}

    def text():
        print(f"pentagonal three-way identity to degree {rep.order}: {rep.outcome}")
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
                   choices=(*TERMINATING_FAMILIES, *TERMINATING_EXPRS))
    p.add_argument("--p", type=_rational, required=True)
    p.add_argument("--q", type=_rational, required=True)
    add_format(p)
    p.set_defaults(fn=cmd_terminating)

    p = sub.add_parser("numeric", help="high-precision numeric identity checks")
    p.add_argument("--id", required=True, choices=NUMERIC_IDS)
    p.add_argument("--param", action="append",
                   help="name=value (complex); repeat per parameter")
    # unset settings take the defaults of hypergeom.NumericEvalParams and
    # hypergeom.DRAW_SEED
    p.add_argument("--digits", type=int)
    p.add_argument("--tol-exp", type=int, help="tolerance is 10^-THIS")
    p.add_argument("--draws", type=int, default=5)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-terms", type=int)
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
    p.add_argument("--which", required=True, choices=TREND_SEQUENCES)
    p.add_argument("--n-max", type=int, default=100)
    add_format(p)
    p.set_defaults(fn=cmd_asymptotics)

    p = sub.add_parser("roots", help="root-of-unity expansions and checks")
    actions = p.add_subparsers(dest="action", required=True)
    # each action takes only its own options, so a flag of another is a usage error
    for action, help_text in (("explore", "compare both sides at (p0, q0)"),
                              ("expand", "expand one expression at (p0, q0)"),
                              ("check", "terminating families at a root of unity")):
        a = actions.add_parser(action, help=help_text)
        a.add_argument("--k", type=int, required=True, help="conductor")
        if action == "check":
            a.add_argument("--family", default="comp2-three-way",
                           choices=ROOT_CHECK_FAMILIES)
            a.add_argument("--p-exp", type=int, default=0, help="p = zeta_k^THIS")
            a.add_argument("--q-exp", type=int, default=0, help="q = zeta_k^THIS")
        else:
            a.add_argument("--a", type=int, default=0, help="p0 = zeta_k^a")
            a.add_argument("--b", type=int, default=0, help="q0 = zeta_k^b")
            a.add_argument("--order", type=int, default=6)
            if action == "expand":
                a.add_argument("--expr", default="comp1-left", choices=ROOT_EXPRS)
        add_format(a)
        a.set_defaults(fn=cmd_roots)

    p = sub.add_parser("oeis-check", help="cross-check a sequence b-file")
    p.add_argument("--seq", required=True, choices=OEIS_SEQUENCES)
    p.add_argument("--bfile", required=True)
    p.add_argument("--max-n", type=int,
                   help="compare indices up to this (defaults to the sequence cap)")
    p.add_argument("--fetch", action="store_true",
                   help="download the b-file first if missing (needs network)")
    add_format(p)
    p.set_defaults(fn=cmd_oeis_check)

    p = sub.add_parser("pentagonal", help="pentagonal three-way identity")
    p.add_argument("--order", type=int, help="defaults to the registry entry's order")
    add_format(p)
    p.set_defaults(fn=cmd_pentagonal)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FishburnError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
