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
  content-addressed result cache.
"""

from .asymptotics import alpha_constant, beta_constant, trend
from .cyclotomic import CyclotomicElement, CyclotomicField, cyclotomic_polynomial, get_field
from .enumeration import (CountTable, FishburnMatrix, SelfDualMatrix,
                          distinct_partition_parity, fishburn_matrices,
                          refined_counts, row_fishburn_matrices,
                          self_dual_matrices, verify_facts)
from .hypergeom import (NumericEvalParams, generalized_rf_check,
                        rogers_fine_check, watson_exact, watson_limit_check)
from .identities import (VerificationReport, evaluate_terminating, registry,
                         verify, verify_coefficient_oracle,
                         verify_proposition, verify_terminating)
from .posets import (Poset, ascent_sequences, count_ascent_sequences,
                     interval_orders, unlabeled_posets)
from .qseries import (PartitionParityTable, expand_family, fishburn_numbers,
                      partition_parity_table, q_pochhammer,
                      row_fishburn_numbers, univariate_fishburn_series)
from .rings import QQ, ZZ, CyclotomicRing, cyclotomic_ring
from .roots import (ConjectureReport, RootContext, conjecture_explore,
                    expand_at_root, root_terminating_check)
from .series import MatchReport, TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "CountTable", "ConjectureReport", "CyclotomicElement",
    "CyclotomicField", "CyclotomicRing", "FishburnMatrix", "MatchReport",
    "NumericEvalParams", "PartitionParityTable", "Poset", "QQ",
    "RootContext", "SelfDualMatrix", "TruncatedSeries", "VerificationReport",
    "ZZ", "alpha_constant", "ascent_sequences", "beta_constant",
    "conjecture_explore", "count_ascent_sequences", "cyclotomic_polynomial",
    "cyclotomic_ring", "distinct_partition_parity", "evaluate_terminating",
    "expand_at_root", "expand_family", "fishburn_matrices",
    "fishburn_numbers", "generalized_rf_check", "get_field",
    "interval_orders", "partition_parity_table", "q_pochhammer",
    "refined_counts", "registry", "rogers_fine_check",
    "root_terminating_check", "row_fishburn_matrices", "row_fishburn_numbers",
    "self_dual_matrices", "trend", "univariate_fishburn_series",
    "unlabeled_posets", "verify", "verify_coefficient_oracle",
    "verify_facts", "verify_proposition", "verify_terminating",
    "watson_exact", "watson_limit_check",
]
