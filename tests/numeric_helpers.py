"""The mpmath summation of a numeric side that hypergeom's decimal sums
replaced, kept as the reference they are tested against."""

from itertools import count

import mpmath as mp

from fishburn.errors import ConvergenceError
from fishburn.hypergeom import DECAY_RUN, _div, _refuse_pole, _weighted
from fishburn.qseries import PochhammerSum, pochhammer_terms

DECAY_RATIO = mp.mpf("0.9")


def reference_sum_with_guard(spec, tol, max_terms, guard, label, den0=1, weight=None):
    """hypergeom._sum_with_guard with every term, partial sum and magnitude
    an mpmath number at the working precision."""
    terms = pochhammer_terms(spec._replace(first=_div(spec.first, den0, guard, label)))
    if weight is not None:
        terms = _weighted(terms, *weight)
    dens = pochhammer_terms(PochhammerSum(den0, factors=spec.inverses))
    total = mp.mpc(0)
    prev_mag = None
    run = 0
    for n in count():
        _refuse_pole(next(dens), guard, label)
        term = next(terms)
        total += term
        mag = abs(term)
        small = mag < tol * max(1, abs(total))
        decaying = prev_mag is None or mag <= DECAY_RATIO * prev_mag or mag == 0
        run = run + 1 if (small and decaying) else 0
        if run >= DECAY_RUN:
            return total, n + 1
        prev_mag = mag
        if n + 1 >= max_terms:
            raise ConvergenceError(
                f"no convergence within {max_terms} terms "
                f"(last |term| = {mp.nstr(mag, 5)})")
