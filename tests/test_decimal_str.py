"""The decimal formatter of every numeric report string, and the decimal
asymptotic constants and trend rows, each against mpmath as the reference
they replaced."""

import json
import random
from decimal import Decimal

import mpmath as mp
import pytest

from fishburn.asymptotics import alpha_constant, beta_constant, trend
from fishburn.cli import main
from fishburn.cyclotomic import PI, decimal_str
from fishburn.hypergeom import _DecimalComplex, _nstr
from fishburn.qseries import N_MAX_CAP, univariate_fishburn_series

# the significant digits that the package prints numbers to
WIDTHS = (5, 6, 8, 10, 12, 20, 30)


def reference_nstr(x, digits):
    """mp.nstr of the Decimal or _DecimalComplex `x`, read into binary with
    ten digits more than it has or than are printed, so that only a decimal
    tie can round the other way."""
    parts = (x.re, x.im) if isinstance(x, _DecimalComplex) else (x,)
    with mp.workdps(max(digits, *(len(p.as_tuple().digits) for p in parts)) + 10):
        value = mp.mpc(*map(str, parts)) if len(parts) == 2 else mp.mpf(str(x))
        return mp.nstr(value, digits)


def is_tie(x, digits):
    """True when `x` lies exactly halfway between two `digits`-digit values."""
    tail = x.as_tuple().digits[digits:]
    return bool(tail) and tail[0] == 5 and not any(tail[1:])


def random_decimal(rng):
    mantissa = rng.randrange(1, 10**rng.randint(1, 40))
    return Decimal(f"{rng.choice('-+')}{mantissa}e{rng.randint(-80, 60)}")


@pytest.mark.parametrize("digits", WIDTHS)
def test_decimal_str_matches_mpmath_nstr(digits):
    rng = random.Random(digits)
    checked = 0
    while checked < 2000:
        x = random_decimal(rng)
        if is_tie(x, digits):
            continue
        assert decimal_str(x, digits) == reference_nstr(x, digits), x
        checked += 1


@pytest.mark.parametrize("text", ["0", "-0", "1", "-1", "0.5", "9.99999", "99999.5",
                                  "123456", "1e5", "1e-6", "0.000012345", "1e-40",
                                  "123456789012345678901234567890123"])
@pytest.mark.parametrize("digits", WIDTHS)
def test_decimal_str_layout_at_the_switch_points(text, digits):
    # fixed and scientific notation meet at exponents min(-(digits//3), -5)
    # and digits; rounding up may carry a value across the upper one
    assert decimal_str(Decimal(text), digits) == reference_nstr(Decimal(text), digits)


@pytest.mark.parametrize("digits", (20, 30))
def test_complex_report_strings_match_mpmath_nstr(digits):
    rng = random.Random(digits)
    zero = Decimal(0)
    values = [_DecimalComplex(random_decimal(rng), random_decimal(rng)) for _ in range(500)]
    values += [_DecimalComplex(Decimal("0.25"), zero), _DecimalComplex(zero, Decimal("-3")),
               _DecimalComplex(Decimal("-1.5"), Decimal("-0"))]
    for z in values:
        if is_tie(z.re, digits) or is_tie(z.im, digits):
            continue
        assert _nstr(z, digits) == reference_nstr(z, digits), (z.re, z.im)


def test_an_exact_tie_rounds_half_up():
    # 2.65315e-20 is halfway between 2.6531e-20 and 2.6532e-20.  The formatter
    # rounds the decimal value half up.  mpmath reads it into binary first,
    # where it lands just below the tie, and so rounds it down.
    x = Decimal("2.65315e-20")
    assert is_tie(x, 5)
    assert decimal_str(x, 5) == "2.6532e-20"
    assert decimal_str(-x, 5) == "-2.6532e-20"
    assert reference_nstr(x, 5) == "2.6531e-20"


def test_pi_literal_carries_every_working_digit():
    # pi rounded to every digit of the literal, which has at least 80: the
    # 50-digit asymptotics and the 65-digit roots embedding both read it
    digits = len(PI.as_tuple().digits)
    assert digits >= 80
    with mp.workdps(digits + 20):
        assert abs(mp.mpf(str(PI)) - mp.pi) <= mp.mpf(10) ** (1 - digits) / 2


def reference_constant(which):
    """alpha or beta as mpmath computed them at 50 digits."""
    with mp.workdps(50):
        if which == "fishburn":
            return 12 * mp.sqrt(3) * mp.pi ** mp.mpf("-2.5") * mp.e ** (mp.pi**2 / 12)
        return 6 * mp.sqrt(2) / mp.pi**2 * mp.e ** (mp.pi**2 / 24)


@pytest.mark.parametrize("which, constant", [("fishburn", alpha_constant),
                                             ("rowFishburn", beta_constant)])
def test_asymptotic_constants_match_mpmath(which, constant):
    value = constant()
    assert isinstance(value, Decimal)
    with mp.workdps(80):
        assert abs(mp.mpf(str(value)) - reference_constant(which)) < mp.mpf("1e-45")


def reference_rows(which, n_max):
    """The (n, ratio, deviation) strings of `asymptotics --format json`, from
    the mpmath computation that the decimal one replaced."""
    numerator, sqrt_factor = {"fishburn": (6, True), "rowFishburn": (12, False)}[which]
    series = univariate_fishburn_series(which, n_max)
    rows = []
    with mp.workdps(50):
        const = reference_constant(which)
        base = numerator / mp.pi**2
        for n in range(1, n_max + 1):
            main_term = mp.factorial(n) * base**n * const
            if sqrt_factor:
                main_term *= mp.sqrt(n)
            ratio = mp.mpf(series.coefficient((n,))) / main_term
            rows.append({"n": n, "ratio": mp.nstr(ratio, 12),
                         "deviation": mp.nstr(abs(ratio - 1), 8)})
    return rows


@pytest.mark.parametrize("which", ["fishburn", "rowFishburn"])
def test_asymptotics_json_rows_match_the_mpmath_rendering(which, capsys):
    assert main(["asymptotics", "--which", which, "--n-max", str(N_MAX_CAP),
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"] == reference_rows(which, N_MAX_CAP)


def test_trend_rows_are_decimals():
    row = trend("fishburn", 3)[-1]
    assert isinstance(row.ratio, Decimal) and isinstance(row.deviation, Decimal)
