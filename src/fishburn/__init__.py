"""Exact q-series, enumeration, and root-of-unity toolkit for the
generating-function identities of interval orders and their self-dual
relatives.

Layers:

- `series` / `rings` / `cyclotomic`: truncated multivariate formal power
  series over exact coefficient rings (integers, rationals, Q(zeta_k)).
- `qseries`: q-Pochhammer symbols, the six named bivariate series and their
  variants, pentagonal forms, the partition parity table, and the Fishburn /
  row-Fishburn sequences as the F1 / G3 diagonals, all summed by the one
  term engine.
- `enumeration` / `posets`: brute-force matrix and poset generation -- the
  independent oracle for every coefficient.
- `identities` / `hypergeom` / `asymptotics`: the verification registry
  (formal, terminating-exact, and numeric comparison modes).
- `roots`: expansions around roots of unity over Q(zeta_k) and the
  conjecture explorer.
- `cli` / `oeis` / `cache`: command-line surface, b-file cross-checks,
  content-addressed result cache; `names` holds the plain name tuples the
  CLI offers as choices.

The package imports lazily: ``import fishburn`` loads no submodule, and
``fishburn.X`` imports the one submodule that defines X on first use.  The
CLI likewise imports, per command, only what that command runs.  Every
computation is exact or in `decimal`: the numeric checks (`hypergeom`), the
asymptotic trends (`asymptotics`) and the complex embedding of Q(zeta_k)
that the roots cross-check sums at, and `cyclotomic.decimal_str` prints
their numbers.  The package depends on nothing beyond the standard library.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "asymptotics": ("alpha_constant", "beta_constant", "trend"),
    "cyclotomic": ("CyclotomicElement", "CyclotomicField", "cyclotomic_polynomial",
                   "get_field"),
    "enumeration": ("CountTable", "FishburnMatrix", "fishburn_matrices", "refined_counts",
                    "row_fishburn_matrices", "self_dual_matrices", "verify_facts"),
    "hypergeom": ("NumericEvalParams", "generalized_rf_check", "rogers_fine_check",
                  "watson_exact", "watson_limit_check"),
    "identities": ("VerificationReport", "evaluate_terminating", "registry", "verify",
                   "verify_coefficient_oracle", "verify_proposition",
                   "verify_terminating"),
    "posets": ("Poset", "ascent_sequences", "count_ascent_sequences", "interval_orders"),
    "qseries": ("PartitionParityTable", "expand_family", "fishburn_numbers",
                "partition_parity_table", "q_pochhammer", "row_fishburn_numbers",
                "univariate_fishburn_series"),
    "rings": ("QQ", "ZZ"),
    "roots": ("ConjectureReport", "RootContext", "conjecture_explore", "expand_at_root",
              "root_terminating_check"),
    "series": ("MatchReport", "TruncatedSeries"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Looked up on every access and never stored here, so a later rebinding
    # of the submodule's name (a monkeypatch, a tracer) is what callers see.
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
