"""Walkthrough: the analytic lane.

High-precision checks of the Rogers-Fine identity, its generalization (and
the gamma -> 0 degeneration), the Watson limit, the exact terminating Watson
transformation, and the asymptotic main-term trends for both sequences.
"""

import random
from fractions import Fraction

from fishburn import (NumericEvalParams, alpha_constant, beta_constant,
                      generalized_rf_check, rogers_fine_check, trend,
                      watson_exact, watson_limit_check)
from fishburn.asymptotics import deviation_band
from fishburn.cyclotomic import decimal_str
from fishburn.hypergeom import (grf_degeneration_check, random_grf_params,
                                random_watson_limit_params)

print("=== Rogers-Fine at a reference point (60 digits) ===")
rep = rogers_fine_check(NumericEvalParams(
    values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}))
print(f"  outcome {rep.outcome}, |LHS - RHS| = {rep.detail['abs_diff']}")

print()
print("=== generalized Rogers-Fine, random complex draws ===")
rng = random.Random(404)
for _ in range(3):
    rep = generalized_rf_check(random_grf_params(rng))
    print(f"  {rep.outcome}: |diff| = {rep.detail['abs_diff']} "
          f"({rep.detail['terms']} terms)")

print()
print("=== gamma -> 0 degeneration recovers Rogers-Fine ===")
rep = grf_degeneration_check(NumericEvalParams(
    values={"a": 0.3, "b": 0.2, "t": 0.4, "q": 0.5}))
print(f"  {rep.outcome} at gamma = {rep.detail['gamma']}, "
      f"|diff| = {rep.detail['abs_diff']}")

print()
print("=== Watson: the N -> infinity limit, then the exact finite form ===")
for _ in range(2):
    rep = watson_limit_check(random_watson_limit_params(rng))
    print(f"  limit form: {rep.outcome}, |diff| = {rep.detail['abs_diff']}")
rep = watson_exact(2, Fraction(1, 3), Fraction(1, 5), Fraction(1, 7),
                   Fraction(1, 11), Fraction(1, 2))
print(f"  exact N=2: {rep.outcome}; both sides = {rep.detail['lhs']}")

print()
print("=== asymptotic main terms ===")
print(f"  alpha = {decimal_str(alpha_constant(), 25)}")
print(f"  beta  = {decimal_str(beta_constant(), 25)}")
for which in ("fishburn", "rowFishburn"):
    rows = trend(which, 100)
    dev = {row.n: row.deviation for row in rows}
    lo, hi = deviation_band(rows, 20, 100)
    print(f"  {which}: |ratio-1| at n=30: {decimal_str(dev[30], 6)}, "
          f"at n=60: {decimal_str(dev[60], 6)} (shrinking); "
          f"n*|ratio-1| stays within [{decimal_str(lo, 4)}, {decimal_str(hi, 4)}]")
