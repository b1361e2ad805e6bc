"""Runtime tracing of the fishburn layers, from outside the library.

`Tracer.install()` replaces the public functions of every fishburn module,
and a few named methods, with wrappers that record one span per call:
``[name, start, end, parent]``, where ``parent`` is the index of the span that
was open when the call began (-1 at the top).  Every reference the package's
modules hold to a replaced function is rebound too -- module globals,
functions kept in module-level dicts and tuples (the CLI's numeric table),
closure cells (the registry's sampled runners) and class aliases such as
``__rmul__ = __mul__`` -- so calls between modules are traced as well.
`uninstall()` undoes every binding; nothing under ``src/`` is edited.

Spans stay in memory until `layer_metrics` turns them into per-layer figures.
A span's self time is its duration minus the durations of its child spans
(calls on one thread nest, so children never overlap).  A few counts that
spans cannot give -- term pairs, coefficient sizes, cache hits -- are taken
by hooks from the arguments and results of the traced calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict
from fractions import Fraction

PACKAGE = "fishburn"
MODULES = ("series", "rings", "cyclotomic", "qseries", "identities",
           "enumeration", "posets", "roots", "hypergeom", "asymptotics",
           "cache", "serialize", "cli", "oeis")

# Methods traced besides the module-level functions.  Hot scalar methods
# (ring coercion, cyclotomic addition) are left out: a wrapper there would
# cost more than the work it measures.
METHODS = {
    "series": {"TruncatedSeries": ("__mul__", "__add__", "invert", "equal_up_to")},
    "cyclotomic": {"CyclotomicElement": ("__mul__", "inverse")},
    "cache": {"SeriesCache": ("get", "put")},
}

HYPERGEOM_CHECKS = ("hypergeom.rogers_fine_check", "hypergeom.generalized_rf_check",
                    "hypergeom.watson_limit_check", "hypergeom.grf_degeneration_check",
                    "hypergeom.watson_exact")


def _bits(c):
    if isinstance(c, int):
        return abs(c).bit_length()
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    coords = getattr(c, "coeffs", None)  # CyclotomicElement
    if coords is not None:
        return max(_bits(x) for x in coords)
    return 0


def _on_series_mul(counts, args, result, seconds):
    self, other = args[0], args[1]
    other_terms = len(other.terms) if hasattr(other, "terms") else 1
    counts["series.mul.term_pairs"] += len(self.terms) * other_terms
    counts["series.mul.kept"] += len(result.terms)
    tag = self.ring.tag
    counts["rings.mul_s." + ("cyclo" if tag.startswith("QQ(zeta") else tag)] += seconds
    if result.terms:
        bits = max(_bits(c) for c in result.terms.values())
        if bits > counts["series.coeff_bits_max"]:
            counts["series.coeff_bits_max"] = bits


def _on_root_expansion(counts, args, result, seconds):
    counts["roots.coeffs"] += len(result.terms)
    counts["cyclotomic.integral_coeffs"] += sum(
        1 for c in result.terms.values()
        if all(x.denominator == 1 for x in c.coeffs))


def _on_refined_counts(counts, args, result, seconds):
    counts["enumeration.objects"] += result.total


def _on_interval_orders(counts, args, result, seconds):
    counts["posets.objects"] += len(result)


def _on_ascent_count(counts, args, result, seconds):
    counts["posets.objects"] += result


def _on_numeric_check(counts, args, result, seconds):
    counts["hypergeom.terms"] += sum(result.detail.get("terms", ()))
    counts["hypergeom.inconclusive"] += result.outcome == "inconclusive"


def _on_cache_get(counts, args, result, seconds):
    counts["cache.gets"] += 1
    counts["cache.hits"] += result is not None


def _on_cache_put(counts, args, result, seconds):
    counts["cache.bytes_written"] += os.path.getsize(result)


HOOKS = {
    "series.mul": _on_series_mul,
    "roots.expand_at_root": _on_root_expansion,
    "roots.expand_q_only": _on_root_expansion,
    "enumeration.refined_counts": _on_refined_counts,
    "posets.interval_orders": _on_interval_orders,
    "posets.count_ascent_sequences": _on_ascent_count,
    "cache.get": _on_cache_get,
    "cache.put": _on_cache_put,
}
HOOKS.update({name: _on_numeric_check for name in HYPERGEOM_CHECKS})


class Tracer:
    """Span recorder for one traced stretch of a benchmark run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None and result is not NotImplemented:
                hook(counts, args, result, span[2] - span[1])
            return result
        return traced

    def _set(self, target, key, value):
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        elif hasattr(target, "cell_contents"):
            self._undo.append((target, None, target.cell_contents))
            target.cell_contents = value
        else:
            self._undo.append((target, key, target.__dict__[key]))
            setattr(target, key, value)

    def install(self):
        """Wrap the traced functions and rebind every reference to them."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(value)):
                    continue
                wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    wrapper = self._wrap(f"{short}.{meth.strip('_')}", fn)
                    for attr, value in list(vars(cls).items()):
                        if value is fn:  # the method and its aliases
                            self._set(cls, attr, wrapper)

        def replacement(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        closures = [orig for orig, _ in wrappers.values()]
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):  # __builtins__, __dict__ and the like
                    continue
                new = replacement(value)
                if new is not None:
                    self._set(mod, attr, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = replacement(item)
                        if new is not None:
                            self._set(value, key, new)
                        elif isinstance(item, tuple) and any(replacement(x) for x in item):
                            self._set(value, key, tuple(replacement(x) or x for x in item))
                elif inspect.isfunction(value):
                    closures.append(value)
        for fn in closures:
            for cell in fn.__closure__ or ():
                try:
                    contents = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                new = replacement(contents)
                if new is not None:
                    self._set(cell, None, new)

    def uninstall(self):
        while self._undo:
            target, key, old = self._undo.pop()
            if isinstance(target, dict):
                target[key] = old
            elif hasattr(target, "cell_contents"):
                target.cell_contents = old
            else:
                setattr(target, key, old)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(spans, counts, passes: int) -> dict:
    """Per-layer figures per traced pass, from spans and hook counts."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]

    def under(i, pred):
        p = spans[i][3]
        while p >= 0:
            if pred(spans[p][0]):
                return True
            p = spans[p][3]
        return False

    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def select(name, within=None):
        # outermost spans of `name` only, so nested calls are not counted twice
        return [i for i in by_name.get(name, ())
                if not under(i, lambda nm: nm == name)
                and (within is None or under(i, within))]

    def calls(name):
        return len(by_name.get(name, ())) / passes

    def incl(name, within=None):
        return sum(dur[i] for i in select(name, within)) / passes

    def own(name):
        return sum(dur[i] - child[i] for i in by_name.get(name, ())) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    def per_pass(key):
        return counts.get(key, 0.0) / passes

    identities = lambda nm: nm.startswith("identities.")  # noqa: E731
    expansions = len(by_name.get("qseries.expand_family", ()))
    muls_in_expansions = len(select("series.mul", lambda nm: nm == "qseries.expand_family"))
    refined_s = incl("enumeration.refined_counts")
    return {
        "series.mul.calls": calls("series.mul"),
        "series.mul.s": incl("series.mul"),
        "series.mul.term_pairs": per_pass("series.mul.term_pairs"),
        "series.mul.kept_ratio": ratio(counts.get("series.mul.kept", 0),
                                       counts.get("series.mul.term_pairs", 0)),
        "series.invert.calls": calls("series.invert"),
        "series.invert.s": incl("series.invert"),
        "series.add.s": incl("series.add"),
        "series.equal_up_to.s": incl("series.equal_up_to"),
        "series.coeff_bits_max": counts.get("series.coeff_bits_max", 0),
        "rings.mul_s.ZZ": per_pass("rings.mul_s.ZZ"),
        "rings.mul_s.QQ": per_pass("rings.mul_s.QQ"),
        "rings.mul_s.cyclo": per_pass("rings.mul_s.cyclo"),
        "cyclotomic.mul.calls": calls("cyclotomic.mul"),
        "cyclotomic.mul.s": incl("cyclotomic.mul"),
        "cyclotomic.inverse.calls": calls("cyclotomic.inverse"),
        "cyclotomic.inverse.s": incl("cyclotomic.inverse"),
        "cyclotomic.integral_ratio": ratio(counts.get("cyclotomic.integral_coeffs", 0),
                                           counts.get("roots.coeffs", 0)),
        "qseries.expand_family.calls": calls("qseries.expand_family"),
        "qseries.expand_family.self_s": own("qseries.expand_family"),
        "qseries.mul_per_expand": ratio(muls_in_expansions, expansions),
        "qseries.dense.s": incl("qseries.fishburn_numbers") + incl("qseries.row_fishburn_numbers"),
        "identities.verify.s": incl("identities.verify"),
        "identities.expand_s": incl("qseries.expand_family", identities),
        "identities.compare_s": incl("series.equal_up_to", identities),
        "identities.oracle.s": incl("identities.verify_coefficient_oracle"),
        "enumeration.refined_counts.s": refined_s,
        "enumeration.objects": per_pass("enumeration.objects"),
        "enumeration.objects_per_s": ratio(per_pass("enumeration.objects"), refined_s),
        "enumeration.verify_facts.s": incl("enumeration.verify_facts"),
        "posets.interval_orders.s": incl("posets.interval_orders"),
        "posets.objects": per_pass("posets.objects"),
        "roots.expand_at_root.s": incl("roots.expand_at_root"),
        "roots.expand_q_only.s": incl("roots.expand_q_only"),
        "roots.compare_s": incl("series.equal_up_to", lambda nm: nm == "roots.conjecture_explore"),
        "roots.terminating_check.s": incl("roots.root_terminating_check"),
        "roots.coeffs": per_pass("roots.coeffs"),
        "hypergeom.check.s": sum(incl(name) for name in HYPERGEOM_CHECKS),
        "hypergeom.terms": per_pass("hypergeom.terms"),
        "hypergeom.inconclusive": per_pass("hypergeom.inconclusive"),
        "asymptotics.trend.s": incl("asymptotics.trend"),
        "cache.get.s": incl("cache.get"),
        "cache.put.s": incl("cache.put"),
        "cache.hit_ratio": ratio(counts.get("cache.hits", 0), counts.get("cache.gets", 0)),
        "cache.bytes_written": per_pass("cache.bytes_written"),
        "serialize.to_payload.s": incl("serialize.series_to_payload"),
        "serialize.from_payload.s": incl("serialize.series_from_payload"),
        "cli.main.s": incl("cli.main"),
    }
