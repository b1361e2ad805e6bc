"""The mpmath references that the package's decimal arithmetic replaced:
the summation of a numeric side, and the complex image of an element of
Q(zeta_k)."""

from decimal import Decimal, getcontext
from itertools import count

import mpmath as mp

from fishburn.cyclotomic import DECIMAL_GUARD_DIGITS
from fishburn.errors import ConvergenceError
from fishburn.hypergeom import (DECAY_RUN, _DecimalComplex, _pole,
                                _pole_guard, _weighted)
from fishburn.qseries import PochhammerSum, pochhammer_terms

DECAY_RATIO = mp.mpf("0.9")


def mp_image(x, dps):
    """The image of the CyclotomicElement x under zeta_k -> e^(2 pi i/k), as
    an mpmath complex number computed at `dps` digits."""
    with mp.workdps(dps):
        zeta = mp.expjpi(mp.mpf(2) / x.field.k)
        return sum((mp.mpf(c.numerator) / c.denominator * zeta**j
                    for j, c in enumerate(x.coeffs)), mp.mpc(0))


def _to_mp(entry):
    """A _DecimalComplex, or a tuple of them such as a spec, as mpmath numbers."""
    if isinstance(entry, tuple):
        return tuple(map(_to_mp, entry))
    return mp.mpc(str(entry.re), str(entry.im))


def _to_decimal(z):
    digits = mp.mp.dps + DECIMAL_GUARD_DIGITS
    return _DecimalComplex(Decimal(mp.nstr(z.real, digits)), Decimal(mp.nstr(z.imag, digits)))


def reference_sum_with_guard(side, tol, max_terms):
    """hypergeom._sum_with_guard with every term, partial sum and magnitude
    an mpmath number at the working precision, the digits of the current
    decimal context less DECIMAL_GUARD_DIGITS.  It takes the decimal Side that
    hypergeom's sides return and returns a decimal value.  Its denominators
    are a second term stream, with the spec's inverses as factors."""
    with mp.workdps(getcontext().prec - DECIMAL_GUARD_DIGITS):
        spec, den0 = PochhammerSum(*_to_mp(side.spec)), _to_mp(side.den0)
        tol, guard = mp.mpf(str(tol)), mp.mpf(str(_pole_guard()))

        def refuse_pole(den):
            if abs(den) < guard:
                raise _pole(side.label)

        refuse_pole(den0)
        terms = pochhammer_terms(spec._replace(first=spec.first / den0))
        if side.weight is not None:
            terms = _weighted(terms, *_to_mp(side.weight))
        dens = pochhammer_terms(PochhammerSum(den0, factors=spec.inverses))
        total = mp.mpc(0)
        prev_mag = None
        run = 0
        for n in count():
            refuse_pole(next(dens))
            term = next(terms)
            total += term
            mag = abs(term)
            small = mag < tol * max(1, abs(total))
            decaying = prev_mag is None or mag <= DECAY_RATIO * prev_mag or mag == 0
            run = run + 1 if (small and decaying) else 0
            if run >= DECAY_RUN:
                return side.prefactor * _to_decimal(total), n + 1
            prev_mag = mag
            if n + 1 >= max_terms:
                raise ConvergenceError(
                    f"no convergence within {max_terms} terms "
                    f"(last |term| = {mp.nstr(mag, 5)})")
