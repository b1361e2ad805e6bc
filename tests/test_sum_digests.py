"""Pinned outputs of every Pochhammer product and sum, in every mode.

Each formal family, both sides of the formal-r proposition, every
root-of-unity expression and q-only side, the terminating values, the
Fishburn and row-Fishburn sequences, the partition parity table and the
q-Pochhammer products are reduced to a digest (or the exact value as a
string) and compared against figures recorded from the hand-written loops
that the term-ratio evaluator replaced.  A refusal is pinned as "refused",
so the certificates are pinned as well.  Ten terminating values were
refusals until the termination certificate was read off the factors of
each sum; a test below checks them independently.  The last test checks
the inside-out Fraction sums against the term generator.
"""

import hashlib
import json
from fractions import Fraction
from itertools import islice
from math import inf

import pytest

from fishburn.cyclotomic import get_field
from fishburn.errors import CertificateError
from fishburn.identities import TERMINATING_EXPRS, evaluate_terminating
from fishburn.qseries import (COMPACT_SUMS, FAMILY_IDS, Point, expand_family,
                              fishburn_numbers, partial_sum, partition_parity_table,
                              pochhammer_terms, q_pochhammer, row_fishburn_numbers,
                              termination_index)
from fishburn.rings import ZZ
from fishburn.roots import (ROOT_EXPRS, RootContext, conjecture_explore, expand_at_root,
                            expand_q_only)
from fishburn.serialize import series_to_payload
from fishburn.series import TruncatedSeries

FAMILY_ORDER = 10
GAMMA_R_POINTS = ((Fraction(2, 3), Fraction(-3, 5)), (Fraction(-4, 3), Fraction(1, 2)),
                  (Fraction(0), Fraction(-1)))
ROOT_ORDER = 5
ROOT_POINTS = ((1, 0, 0), (2, 1, 1), (3, 1, 1), (4, 2, 1), (4, 1, 2), (6, 1, 3),
               (6, 2, 2), (12, 5, 7), (12, 0, 1))
RATIONAL_POINTS = ((2, Fraction(1, 2)), (4, Fraction(1, 2)), (8, Fraction(1, 2)),
                   (9, Fraction(1, 3)), (Fraction(81, 16), Fraction(2, 3)),
                   (1, Fraction(5, 7)), (-1, -1), (1, -1), (1, 1), (3, Fraction(1, 2)))
CYCLOTOMIC_POINTS = ((4, 2, 1), (3, 1, 1), (6, 2, 2), (6, 3, 3), (12, 4, 2), (4, 1, 2))
SEQUENCE_ORDERS = (0, 1, 20, 120)
POCHHAMMER_ORDER = 12


def _hash(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(series):
    return _hash(series_to_payload(series))


def _pochhammers():
    """The q-Pochhammer products the qseries tests use: (a; q)_n for
    (a, q) = (1-y, 1-x) and (1-x, 1-x), and (w; w)_n for finite and
    infinite n."""
    one = TruncatedSeries.constant(ZZ, 2, POCHHAMMER_ORDER, 1)
    u = one - TruncatedSeries.variable(ZZ, 2, POCHHAMMER_ORDER, 0)
    w = one - TruncatedSeries.variable(ZZ, 2, POCHHAMMER_ORDER, 1)
    out = {}
    for n in range(POCHHAMMER_ORDER + 2):
        out[f"(1-y; 1-x)_{n}"] = q_pochhammer(w, u, n)
        out[f"(1-x; 1-x)_{n}"] = q_pochhammer(u, u, n)
    for order in (15, 30):
        wv = TruncatedSeries.variable(ZZ, 1, order, 0, ("w",))
        out[f"(w; w)_inf@{order}"] = q_pochhammer(wv, wv, inf)
        out[f"(w; w)_{order // 2}@{order}"] = q_pochhammer(wv, wv, order // 2)
    return out


def _attempt(fn, *args):
    try:
        return fn(*args)
    except CertificateError:
        return "refused"


def observed():
    out = {}
    for family in FAMILY_IDS:
        if family.startswith("gamma1"):
            for gamma, r in GAMMA_R_POINTS:
                out[f"{family} gamma={gamma} r={r}"] = digest(
                    expand_family(family, FAMILY_ORDER, gamma=gamma, r=r))
        elif family.startswith("gamma2"):
            for gamma, _ in GAMMA_R_POINTS:
                out[f"{family} gamma={gamma}"] = digest(
                    expand_family(family, FAMILY_ORDER, gamma=gamma))
        else:
            out[family] = digest(expand_family(family, FAMILY_ORDER))
    for order in (6, 8):
        out[f"prop12-lhs@{order}"] = digest(expand_family("prop12-lhs", order))
        out[f"prop12-rhs@{order}"] = digest(expand_family("prop12-rhs", order))
    for k, a, b in ROOT_POINTS:
        ctx = RootContext(k, a, b, ROOT_ORDER)
        for expr in ROOT_EXPRS:
            series = _attempt(expand_at_root, expr, ctx)
            out[f"expand {expr} at k={k} a={a} b={b}"] = (
                series if isinstance(series, str) else digest(series))
        for side in ("mid", "right"):
            out[f"q-only {side} at k={k} b={b}"] = digest(expand_q_only(side, ctx))
    for p, q in RATIONAL_POINTS:
        for expr in TERMINATING_EXPRS:
            value = _attempt(evaluate_terminating, expr, Fraction(p), Fraction(q))
            out[f"{expr} at p={p} q={q}"] = str(value)
    for k, a, b in CYCLOTOMIC_POINTS:
        field = get_field(k)
        for expr in TERMINATING_EXPRS:
            value = _attempt(evaluate_terminating, expr, field.zeta(a), field.zeta(b))
            out[f"{expr} at p=zeta_{k}^{a} q=zeta_{k}^{b}"] = str(value)
    for n in SEQUENCE_ORDERS:
        out[f"fishburn_numbers({n})"] = _hash(fishburn_numbers(n))
        out[f"row_fishburn_numbers({n})"] = _hash(row_fishburn_numbers(n))
    entries = partition_parity_table(12, 60).entries
    out["partition_parity_table(12, 60)"] = _hash(sorted(entries.items()))
    for name, series in _pochhammers().items():
        out[f"q_pochhammer {name}"] = digest(series)
    return out


EXPECTED = {
    "F1": "1581d9adc2e03e57",
    "F2": "1581d9adc2e03e57",
    "F3": "1581d9adc2e03e57",
    "F3-KR-first-form": "1581d9adc2e03e57",
    "G1": "5e758c9c579b608c",
    "G2": "5e758c9c579b608c",
    "G3": "5e758c9c579b608c",
    "comp1-left at p=-1 q=-1": "3",
    "comp1-left at p=1 q=-1": "1",
    "comp1-left at p=1 q=1": "1",
    "comp1-left at p=1 q=5/7": "1",
    "comp1-left at p=2 q=1/2": "3/2",
    "comp1-left at p=3 q=1/2": "refused",
    "comp1-left at p=4 q=1/2": "17/8",
    "comp1-left at p=8 q=1/2": "183/64",
    "comp1-left at p=81/16 q=2/3": "164479/59049",
    "comp1-left at p=9 q=1/3": "67/27",
    "comp1-left at p=zeta_12^4 q=zeta_12^2": "(16 + -3*z^2 : k=12)",
    "comp1-left at p=zeta_3^1 q=zeta_3^1": "(6 + z : k=3)",
    "comp1-left at p=zeta_4^1 q=zeta_4^2": "refused",
    "comp1-left at p=zeta_4^2 q=zeta_4^1": "(5 + -2*z : k=4)",
    "comp1-left at p=zeta_6^2 q=zeta_6^2": "(5 + z : k=6)",
    "comp1-left at p=zeta_6^3 q=zeta_6^3": "(3 : k=6)",
    "comp1-mid at p=-1 q=-1": "3",
    "comp1-mid at p=1 q=-1": "1",
    "comp1-mid at p=1 q=1": "1",
    "comp1-mid at p=1 q=5/7": "1",
    "comp1-mid at p=2 q=1/2": "3/2",
    "comp1-mid at p=3 q=1/2": "refused",
    "comp1-mid at p=4 q=1/2": "17/8",
    "comp1-mid at p=8 q=1/2": "183/64",
    "comp1-mid at p=81/16 q=2/3": "164479/59049",
    "comp1-mid at p=9 q=1/3": "67/27",
    "comp1-mid at p=zeta_12^4 q=zeta_12^2": "(16 + -3*z^2 : k=12)",
    "comp1-mid at p=zeta_3^1 q=zeta_3^1": "(6 + z : k=3)",
    "comp1-mid at p=zeta_4^1 q=zeta_4^2": "(-2 + -1*z : k=4)",
    "comp1-mid at p=zeta_4^2 q=zeta_4^1": "(5 + -2*z : k=4)",
    "comp1-mid at p=zeta_6^2 q=zeta_6^2": "(5 + z : k=6)",
    "comp1-mid at p=zeta_6^3 q=zeta_6^3": "(3 : k=6)",
    "comp2-first at p=-1 q=-1": "-1",
    "comp2-first at p=1 q=-1": "1",
    "comp2-first at p=1 q=1": "1",
    "comp2-first at p=1 q=5/7": "1",
    "comp2-first at p=2 q=1/2": "1/2",
    "comp2-first at p=3 q=1/2": "refused",
    "comp2-first at p=4 q=1/2": "5/8",
    "comp2-first at p=8 q=1/2": "29/64",
    "comp2-first at p=81/16 q=2/3": "32659/59049",
    "comp2-first at p=9 q=1/3": "19/27",
    "comp2-first at p=zeta_12^4 q=zeta_12^2": "(2 + -5*z^2 : k=12)",
    "comp2-first at p=zeta_3^1 q=zeta_3^1": "(2 + -1*z : k=3)",
    "comp2-first at p=zeta_4^1 q=zeta_4^2": "refused",
    "comp2-first at p=zeta_4^2 q=zeta_4^1": "(1 + -2*z : k=4)",
    "comp2-first at p=zeta_6^2 q=zeta_6^2": "(3 + -1*z : k=6)",
    "comp2-first at p=zeta_6^3 q=zeta_6^3": "(-1 : k=6)",
    "comp2-mid at p=-1 q=-1": "-1",
    "comp2-mid at p=1 q=-1": "1",
    "comp2-mid at p=1 q=1": "1",
    "comp2-mid at p=1 q=5/7": "1",
    "comp2-mid at p=2 q=1/2": "1/2",
    "comp2-mid at p=3 q=1/2": "refused",
    "comp2-mid at p=4 q=1/2": "5/8",
    "comp2-mid at p=8 q=1/2": "29/64",
    "comp2-mid at p=81/16 q=2/3": "32659/59049",
    "comp2-mid at p=9 q=1/3": "19/27",
    "comp2-mid at p=zeta_12^4 q=zeta_12^2": "(2 + -5*z^2 : k=12)",
    "comp2-mid at p=zeta_3^1 q=zeta_3^1": "(2 + -1*z : k=3)",
    "comp2-mid at p=zeta_4^1 q=zeta_4^2": "(z : k=4)",
    "comp2-mid at p=zeta_4^2 q=zeta_4^1": "(1 + -2*z : k=4)",
    "comp2-mid at p=zeta_6^2 q=zeta_6^2": "(3 + -1*z : k=6)",
    "comp2-mid at p=zeta_6^3 q=zeta_6^3": "(-1 : k=6)",
    "comp2-right at p=-1 q=-1": "refused",
    "comp2-right at p=1 q=-1": "1",
    "comp2-right at p=1 q=1": "1",
    "comp2-right at p=1 q=5/7": "1",
    "comp2-right at p=2 q=1/2": "refused",
    "comp2-right at p=3 q=1/2": "refused",
    "comp2-right at p=4 q=1/2": "5/8",
    "comp2-right at p=8 q=1/2": "refused",
    "comp2-right at p=81/16 q=2/3": "32659/59049",
    "comp2-right at p=9 q=1/3": "19/27",
    "comp2-right at p=zeta_12^4 q=zeta_12^2": "(2 + -5*z^2 : k=12)",
    "comp2-right at p=zeta_3^1 q=zeta_3^1": "(2 + -1*z : k=3)",
    "comp2-right at p=zeta_4^1 q=zeta_4^2": "refused",
    "comp2-right at p=zeta_4^2 q=zeta_4^1": "(1 + -2*z : k=4)",
    "comp2-right at p=zeta_6^2 q=zeta_6^2": "(3 + -1*z : k=6)",
    "comp2-right at p=zeta_6^3 q=zeta_6^3": "refused",
    "expand comp1-left at k=1 a=0 b=0": "c5286ad0e33d0d17",
    "expand comp1-left at k=12 a=0 b=1": "268f02d805264d3e",
    "expand comp1-left at k=12 a=5 b=7": "44ba9c24dca7a8a8",
    "expand comp1-left at k=2 a=1 b=1": "fc039c50f55061a6",
    "expand comp1-left at k=3 a=1 b=1": "aa70b14db39e9d3a",
    "expand comp1-left at k=4 a=1 b=2": "refused",
    "expand comp1-left at k=4 a=2 b=1": "c73f2349f86ac41f",
    "expand comp1-left at k=6 a=1 b=3": "refused",
    "expand comp1-left at k=6 a=2 b=2": "c40a51b713591d73",
    "expand comp1-right at k=1 a=0 b=0": "c5286ad0e33d0d17",
    "expand comp1-right at k=12 a=0 b=1": "268f02d805264d3e",
    "expand comp1-right at k=12 a=5 b=7": "44ba9c24dca7a8a8",
    "expand comp1-right at k=2 a=1 b=1": "fc039c50f55061a6",
    "expand comp1-right at k=3 a=1 b=1": "aa70b14db39e9d3a",
    "expand comp1-right at k=4 a=1 b=2": "3a9ab9e46ad46b9c",
    "expand comp1-right at k=4 a=2 b=1": "c73f2349f86ac41f",
    "expand comp1-right at k=6 a=1 b=3": "d76176c495fac545",
    "expand comp1-right at k=6 a=2 b=2": "c40a51b713591d73",
    "expand comp2-first at k=1 a=0 b=0": "fcf0429e77d58276",
    "expand comp2-first at k=12 a=0 b=1": "80d4db4a98ee6f2f",
    "expand comp2-first at k=12 a=5 b=7": "fbcd4c3ad096cec4",
    "expand comp2-first at k=2 a=1 b=1": "e31b3acfba719942",
    "expand comp2-first at k=3 a=1 b=1": "80d1bb9cfddce765",
    "expand comp2-first at k=4 a=1 b=2": "refused",
    "expand comp2-first at k=4 a=2 b=1": "d006b4c5c47c8698",
    "expand comp2-first at k=6 a=1 b=3": "refused",
    "expand comp2-first at k=6 a=2 b=2": "56a47f9347574dc6",
    "expand comp2-mid at k=1 a=0 b=0": "fcf0429e77d58276",
    "expand comp2-mid at k=12 a=0 b=1": "80d4db4a98ee6f2f",
    "expand comp2-mid at k=12 a=5 b=7": "fbcd4c3ad096cec4",
    "expand comp2-mid at k=2 a=1 b=1": "e31b3acfba719942",
    "expand comp2-mid at k=3 a=1 b=1": "80d1bb9cfddce765",
    "expand comp2-mid at k=4 a=1 b=2": "49a801483994c618",
    "expand comp2-mid at k=4 a=2 b=1": "d006b4c5c47c8698",
    "expand comp2-mid at k=6 a=1 b=3": "16ff00a0a33f6e43",
    "expand comp2-mid at k=6 a=2 b=2": "56a47f9347574dc6",
    "expand comp2-right at k=1 a=0 b=0": "fcf0429e77d58276",
    "expand comp2-right at k=12 a=0 b=1": "80d4db4a98ee6f2f",
    "expand comp2-right at k=12 a=5 b=7": "refused",
    "expand comp2-right at k=2 a=1 b=1": "refused",
    "expand comp2-right at k=3 a=1 b=1": "80d1bb9cfddce765",
    "expand comp2-right at k=4 a=1 b=2": "refused",
    "expand comp2-right at k=4 a=2 b=1": "d006b4c5c47c8698",
    "expand comp2-right at k=6 a=1 b=3": "refused",
    "expand comp2-right at k=6 a=2 b=2": "56a47f9347574dc6",
    "fishburn_numbers(0)": "080a9ed428559ef6",
    "fishburn_numbers(1)": "e718fe8edf8a7c29",
    "fishburn_numbers(120)": "0126d0080c2d04ab",
    "fishburn_numbers(20)": "23a7fc0331f65e7e",
    "gamma1-lhs gamma=-4/3 r=1/2": "23aa4df80b2d74d7",
    "gamma1-lhs gamma=0 r=-1": "d34a8d625a201bd6",
    "gamma1-lhs gamma=2/3 r=-3/5": "28557faa483ec26c",
    "gamma1-rhs gamma=-4/3 r=1/2": "23aa4df80b2d74d7",
    "gamma1-rhs gamma=0 r=-1": "d34a8d625a201bd6",
    "gamma1-rhs gamma=2/3 r=-3/5": "28557faa483ec26c",
    "gamma2-lhs gamma=-4/3": "010dbf0f91d6e735",
    "gamma2-lhs gamma=0": "d34a8d625a201bd6",
    "gamma2-lhs gamma=2/3": "738adae756935b4c",
    "gamma2-rhs gamma=-4/3": "010dbf0f91d6e735",
    "gamma2-rhs gamma=0": "d34a8d625a201bd6",
    "gamma2-rhs gamma=2/3": "738adae756935b4c",
    "partition_parity_table(12, 60)": "b52a84e7ded5a28f",
    "pentagonal-product": "3f499973e357807a",
    "pentagonal-sum": "43747891eece9ba9",
    "pentagonal-theta": "3f499973e357807a",
    "prop12-lhs": "092511125f1b9f3f",
    "prop12-rhs": "092511125f1b9f3f",
    "prop12-lhs@6": "6a450af36b056c54",
    "prop12-lhs@8": "b83ee11b39b41cec",
    "prop12-rhs@6": "6a450af36b056c54",
    "prop12-rhs@8": "b83ee11b39b41cec",
    "q-only mid at k=1 b=0": "43951d493e7e2660",
    "q-only mid at k=12 b=1": "702e7e99cbc03a4b",
    "q-only mid at k=12 b=7": "2ecc85a1dd01ec6e",
    "q-only mid at k=2 b=1": "d14e2915d0464985",
    "q-only mid at k=3 b=1": "47069519cae0b07f",
    "q-only mid at k=4 b=1": "cf4fddc3603ea0a6",
    "q-only mid at k=4 b=2": "195a35e1c182ea81",
    "q-only mid at k=6 b=2": "8c2ba90d376dfd4a",
    "q-only mid at k=6 b=3": "618666b3e3dc217b",
    "q-only right at k=1 b=0": "43951d493e7e2660",
    "q-only right at k=12 b=1": "702e7e99cbc03a4b",
    "q-only right at k=12 b=7": "2ecc85a1dd01ec6e",
    "q-only right at k=2 b=1": "d14e2915d0464985",
    "q-only right at k=3 b=1": "47069519cae0b07f",
    "q-only right at k=4 b=1": "cf4fddc3603ea0a6",
    "q-only right at k=4 b=2": "195a35e1c182ea81",
    "q-only right at k=6 b=2": "8c2ba90d376dfd4a",
    "q-only right at k=6 b=3": "618666b3e3dc217b",
    "q_pochhammer (1-x; 1-x)_0": "3996c8f4f48ab654",
    "q_pochhammer (1-x; 1-x)_1": "593bcf940ce8d95c",
    "q_pochhammer (1-x; 1-x)_10": "34115ac17f0a681b",
    "q_pochhammer (1-x; 1-x)_11": "4791710e962b65fe",
    "q_pochhammer (1-x; 1-x)_12": "3621ff6c747613da",
    "q_pochhammer (1-x; 1-x)_13": "489ae8951a47a9d7",
    "q_pochhammer (1-x; 1-x)_2": "695831daba7f538b",
    "q_pochhammer (1-x; 1-x)_3": "ff126002f6b698c6",
    "q_pochhammer (1-x; 1-x)_4": "ae99f9cb33cf7e39",
    "q_pochhammer (1-x; 1-x)_5": "9b632f081dad548f",
    "q_pochhammer (1-x; 1-x)_6": "0e703bfe38abbede",
    "q_pochhammer (1-x; 1-x)_7": "97b96f6c721270fd",
    "q_pochhammer (1-x; 1-x)_8": "1257794fa9ef7cc7",
    "q_pochhammer (1-x; 1-x)_9": "87a4837ff007d1df",
    "q_pochhammer (1-y; 1-x)_0": "3996c8f4f48ab654",
    "q_pochhammer (1-y; 1-x)_1": "42959ddaebc792f3",
    "q_pochhammer (1-y; 1-x)_10": "32e59b6c8fc23f44",
    "q_pochhammer (1-y; 1-x)_11": "cffde08e4c38c00e",
    "q_pochhammer (1-y; 1-x)_12": "e37009d9de77aa04",
    "q_pochhammer (1-y; 1-x)_13": "489ae8951a47a9d7",
    "q_pochhammer (1-y; 1-x)_2": "449d9ee607c20f38",
    "q_pochhammer (1-y; 1-x)_3": "b3f98d3cb703325b",
    "q_pochhammer (1-y; 1-x)_4": "fc45643f411cae3c",
    "q_pochhammer (1-y; 1-x)_5": "86e814172bdaceab",
    "q_pochhammer (1-y; 1-x)_6": "89ce9a112a4ddfc4",
    "q_pochhammer (1-y; 1-x)_7": "aeebde57e539ddf3",
    "q_pochhammer (1-y; 1-x)_8": "a573ad529e069f78",
    "q_pochhammer (1-y; 1-x)_9": "0cbd3aca81ca31e7",
    "q_pochhammer (w; w)_15@30": "8eb60b1f4abe7b67",
    "q_pochhammer (w; w)_7@15": "38cfce94e79fa08d",
    "q_pochhammer (w; w)_inf@15": "335193733ba89323",
    "q_pochhammer (w; w)_inf@30": "bbbe61d970828932",
    "row_fishburn_numbers(0)": "080a9ed428559ef6",
    "row_fishburn_numbers(1)": "e718fe8edf8a7c29",
    "row_fishburn_numbers(120)": "6648e5d8f06b59e6",
    "row_fishburn_numbers(20)": "bf003b6725f0b76c",
}


def test_every_sum_matches_its_recorded_output():
    got = observed()
    assert sorted(got) == sorted(EXPECTED)
    assert {key: value for key, value in got.items() if EXPECTED[key] != value} == {}


def _zeta(k, power):
    return get_field(k).zeta(power)


# The entries of EXPECTED that changed from "refused" to a value, grouped by
# family.  The comp2-first and comp2-mid sums vanish from an odd j with
# p*q^j = 1 on; at (zeta_4, zeta_4^2) the factor (q; q) of comp1-mid and the
# factor (-q; q) of comp2-mid vanish, while no other sum of either family
# terminates there.
NEWLY_TERMINATING = [
    (("comp2-first", "comp2-mid"), Fraction(2), Fraction(1, 2)),
    (("comp2-first", "comp2-mid"), Fraction(8), Fraction(1, 2)),
    (("comp2-first", "comp2-mid"), Fraction(-1), Fraction(-1)),
    (("comp2-first", "comp2-mid"), _zeta(6, 3), _zeta(6, 3)),
    (("comp1-mid",), _zeta(4, 1), _zeta(4, 2)),
    (("comp2-mid",), _zeta(4, 1), _zeta(4, 2)),
]


@pytest.mark.parametrize("exprs, p, q", NEWLY_TERMINATING)
def test_newly_terminating_values_have_zero_tails_and_agree(exprs, p, q):
    values = []
    for expr in exprs:
        value = evaluate_terminating(expr, p, q)
        spec = COMPACT_SUMS[expr](Point(p, q))
        # eight more terms add nothing: the tail past the vanishing factor is zero
        assert partial_sum(spec, termination_index(spec) + 9) == value
        values.append(value)
    assert all(v == values[0] for v in values)


def test_inside_out_sums_equal_the_sums_of_their_terms():
    # partial_sum sums a Fraction spec inside-out over its term ratios; the
    # term generator, summed one term at a time, is the reference at every
    # rational point pinned above with a value
    for p, q in RATIONAL_POINTS:
        for expr in TERMINATING_EXPRS:
            if EXPECTED[f"{expr} at p={p} q={q}"] == "refused":
                continue
            spec = COMPACT_SUMS[expr](Point(Fraction(p), Fraction(q)))
            count = termination_index(spec) + 1
            terms = list(islice(pochhammer_terms(spec), count))
            assert partial_sum(spec, count) == sum(terms[1:], terms[0]), (expr, p, q)


# At (12, 5, 7), order 12, the expansions' coordinates reach 105 bits, so
# their products run in slots of two and three 64-bit words; recorded from
# the kernel that packed and unpacked around every product
WIDE_POINT = (12, 5, 7, 12)
WIDE_EXPECTED = {
    "comp1-left": "145c6e97a3044f18",
    "comp1-right": "145c6e97a3044f18",
    "q-only mid": "6da2d05e28b8f291",
    "q-only right": "6da2d05e28b8f291",
    "explorer": "d5f10db1799da3dc",
}


def test_wide_slot_expansions_match_their_recorded_output():
    ctx = RootContext(*WIDE_POINT)
    got = {expr: digest(expand_at_root(expr, ctx)) for expr in ("comp1-left", "comp1-right")}
    for side in ("mid", "right"):
        got[f"q-only {side}"] = digest(expand_q_only(side, ctx))
    report = conjecture_explore(ctx).to_json_dict()
    for sub in ("conj1", "conj2"):
        del report[sub]["timing_ms"]
    got["explorer"] = _hash(report)
    assert got == WIDE_EXPECTED
