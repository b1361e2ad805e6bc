"""Pinned outputs of every Pochhammer sum, in every mode.

Each formal family, both sides of the formal-r proposition, every
root-of-unity expression and q-only side, and the terminating values are
reduced to a digest (or the exact value as a string) and compared against
figures recorded from the hand-written per-mode loops that the term-ratio
evaluator replaced.  A refusal is pinned as "refused", so the certificates
are pinned as well.
"""

import hashlib
import json
from fractions import Fraction

from fishburn.cyclotomic import get_field
from fishburn.errors import CertificateError
from fishburn.identities import (TERMINATING_EXPRS, evaluate_terminating,
                                 proposition_lhs, proposition_rhs)
from fishburn.qseries import FAMILY_IDS, expand_family
from fishburn.roots import ROOT_EXPRS, RootContext, expand_at_root, expand_q_only
from fishburn.serialize import series_to_payload

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


def digest(series):
    text = json.dumps(series_to_payload(series), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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
        out[f"prop12-lhs@{order}"] = digest(proposition_lhs(order))
        out[f"prop12-rhs@{order}"] = digest(proposition_rhs(order))
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
    "comp1-mid at p=zeta_4^1 q=zeta_4^2": "refused",
    "comp1-mid at p=zeta_4^2 q=zeta_4^1": "(5 + -2*z : k=4)",
    "comp1-mid at p=zeta_6^2 q=zeta_6^2": "(5 + z : k=6)",
    "comp1-mid at p=zeta_6^3 q=zeta_6^3": "(3 : k=6)",
    "comp2-first at p=-1 q=-1": "refused",
    "comp2-first at p=1 q=-1": "1",
    "comp2-first at p=1 q=1": "1",
    "comp2-first at p=1 q=5/7": "1",
    "comp2-first at p=2 q=1/2": "refused",
    "comp2-first at p=3 q=1/2": "refused",
    "comp2-first at p=4 q=1/2": "5/8",
    "comp2-first at p=8 q=1/2": "refused",
    "comp2-first at p=81/16 q=2/3": "32659/59049",
    "comp2-first at p=9 q=1/3": "19/27",
    "comp2-first at p=zeta_12^4 q=zeta_12^2": "(2 + -5*z^2 : k=12)",
    "comp2-first at p=zeta_3^1 q=zeta_3^1": "(2 + -1*z : k=3)",
    "comp2-first at p=zeta_4^1 q=zeta_4^2": "refused",
    "comp2-first at p=zeta_4^2 q=zeta_4^1": "(1 + -2*z : k=4)",
    "comp2-first at p=zeta_6^2 q=zeta_6^2": "(3 + -1*z : k=6)",
    "comp2-first at p=zeta_6^3 q=zeta_6^3": "refused",
    "comp2-mid at p=-1 q=-1": "refused",
    "comp2-mid at p=1 q=-1": "1",
    "comp2-mid at p=1 q=1": "1",
    "comp2-mid at p=1 q=5/7": "1",
    "comp2-mid at p=2 q=1/2": "refused",
    "comp2-mid at p=3 q=1/2": "refused",
    "comp2-mid at p=4 q=1/2": "5/8",
    "comp2-mid at p=8 q=1/2": "refused",
    "comp2-mid at p=81/16 q=2/3": "32659/59049",
    "comp2-mid at p=9 q=1/3": "19/27",
    "comp2-mid at p=zeta_12^4 q=zeta_12^2": "(2 + -5*z^2 : k=12)",
    "comp2-mid at p=zeta_3^1 q=zeta_3^1": "(2 + -1*z : k=3)",
    "comp2-mid at p=zeta_4^1 q=zeta_4^2": "refused",
    "comp2-mid at p=zeta_4^2 q=zeta_4^1": "(1 + -2*z : k=4)",
    "comp2-mid at p=zeta_6^2 q=zeta_6^2": "(3 + -1*z : k=6)",
    "comp2-mid at p=zeta_6^3 q=zeta_6^3": "refused",
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
    "pentagonal-product": "3f499973e357807a",
    "pentagonal-sum": "43747891eece9ba9",
    "pentagonal-theta": "3f499973e357807a",
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
}


def test_every_sum_matches_its_recorded_output():
    got = observed()
    assert sorted(got) == sorted(EXPECTED)
    assert {key: value for key, value in got.items() if EXPECTED[key] != value} == {}
