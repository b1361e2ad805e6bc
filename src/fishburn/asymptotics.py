"""Asymptotic trend checks for the Fishburn and row-Fishburn sequences.

The closed-form main terms are
    f_n ~ n! (6/pi^2)^n sqrt(n) * alpha,   alpha = 12*sqrt(3) * pi^(-5/2) * e^(pi^2/12)
    r_m ~ m! (12/pi^2)^m        * beta,    beta  = 6*sqrt(2)  * pi^(-2)   * e^(pi^2/24)
with O(1/n) relative corrections whose constants are unspecified, so the
checks here are trend assertions (deviation shrinking, n * deviation staying
in a bounded band), never absolute thresholds.

The constants and the ratios are Decimals, computed in the package's one
decimal context (`cyclotomic.decimal_context`) at DPS digits, from the
literal `cyclotomic.PI`, Decimal.sqrt and Decimal.exp.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal
from math import factorial

from .cyclotomic import PI, decimal_context
from .errors import ParameterError
from .qseries import N_MAX_CAP, univariate_fishburn_series

DPS = 50  # digits of the constants and the trend ratios, before the guard digits

TrendRow = namedtuple("TrendRow", "n ratio deviation")


def alpha_constant():
    """12*sqrt(3) * pi^(-5/2) * e^(pi^2/12), to DPS digits."""
    with decimal_context(DPS):
        return 12 * Decimal(3).sqrt() / (PI * PI * PI.sqrt()) * (PI * PI / 12).exp()


def beta_constant():
    """6*sqrt(2) * pi^(-2) * e^(pi^2/24), to DPS digits."""
    with decimal_context(DPS):
        return 6 * Decimal(2).sqrt() / (PI * PI) * (PI * PI / 24).exp()


# sequence -> (main-term constant, base numerator, sqrt(n) factor): the main
# term is n! (base / pi^2)^n * constant, times sqrt(n) where flagged
MAIN_TERMS = {
    "fishburn": (alpha_constant, 6, True),
    "rowFishburn": (beta_constant, 12, False),
}


def trend(which: str, n_max: int):
    """Exact coefficients divided by the closed-form main term, for
    n = 1..n_max; returns TrendRow(n, ratio, |ratio - 1|) entries, with
    Decimal ratio and deviation."""
    if not 1 <= n_max <= N_MAX_CAP:
        raise ParameterError(f"n_max must be within 1..{N_MAX_CAP}")
    if which not in MAIN_TERMS:
        raise ParameterError("trend families are fishburn and rowFishburn")
    constant, numerator, sqrt_factor = MAIN_TERMS[which]
    series = univariate_fishburn_series(which, n_max)
    rows = []
    with decimal_context(DPS):
        const = constant()
        base = numerator / (PI * PI)
        for n in range(1, n_max + 1):
            main = factorial(n) * base**n * const
            if sqrt_factor:
                main *= Decimal(n).sqrt()
            ratio = series.coefficient((n,)) / main
            rows.append(TrendRow(n, ratio, abs(ratio - 1)))
    return rows


def deviation_band(rows, n_lo: int, n_hi: int):
    """(min, max) of n * deviation over the window [n_lo, n_hi]."""
    scaled = [row.n * row.deviation for row in rows if n_lo <= row.n <= n_hi]
    if not scaled:
        raise ParameterError("window contains no rows")
    return min(scaled), max(scaled)
