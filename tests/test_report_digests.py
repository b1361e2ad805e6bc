"""Pinned JSON of the verification reports, with their timings removed.

Every check of the package ends in a report, and every report reaches the
user as `to_json_dict()` or as the CLI's JSON.  This file pins those outputs
across the four modes: `verify all` with and without gamma and r, every
numeric checker (one of them inconclusive), the root explorer at four
points, the exact and cyclotomic terminating checks, Watson, a formal pair
made to mismatch, and eight CLI commands.  Each output is reduced to a
digest of its JSON with every `timing_ms` dropped, so any change to an
outcome, witness or detail shows here while the timings may vary.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from fishburn import identities
from fishburn.cli import main
from fishburn.cyclotomic import get_field
from fishburn.hypergeom import (NumericEvalParams, generalized_rf_check,
                                grf_degeneration_check, rogers_fine_check,
                                watson_exact, watson_limit_check)
from fishburn.identities import (verify, verify_coefficient_oracle,
                                 verify_proposition,
                                 verify_proposition_specializations,
                                 verify_terminating)
from fishburn.roots import RootContext, conjecture_explore, root_terminating_check

RF = {"a": 0.3, "b": 0.2 + 0.1j, "t": 0.4, "q": 0.5 - 0.2j}
GRF = {"alpha": 0.4, "beta": 0.3 + 0.2j, "gamma": 0.5, "t": 0.3, "q": 0.4j}
WATSON_LIMIT = {"a": 0.2, "b": 0.5, "c": 0.6 + 0.1j, "e": 0.95, "q": 0.3}


def _without_timing(value):
    if isinstance(value, dict):
        return {k: _without_timing(v) for k, v in value.items() if k != "timing_ms"}
    if isinstance(value, list):
        return [_without_timing(v) for v in value]
    return value


def _json(out):
    """The JSON form of a report, a list of reports or a ConjectureReport."""
    if isinstance(out, list):
        return [r.to_json_dict() for r in out]
    return out.to_json_dict()


def _mismatched_pair(monkeypatch):
    # F2 shifted by x^2 y, so that F1=F2 fails at index (2, 1)
    real = identities.expand_family

    def shifted(family, order, **params):
        series = real(family, order, **params)
        if family == "F2":
            series = series + series.variable(series.ring, 2, order, 0, series.names) ** 2 \
                * series.variable(series.ring, 2, order, 1, series.names)
        return series
    monkeypatch.setattr(identities, "expand_family", shifted)
    return verify("F1=F2", order=6)


def _root_check(family, k, p_exp, q_exp):
    field = get_field(k)
    return root_terminating_check(family, field.zeta(p_exp), field.zeta(q_exp))


CASES = {
    "verify all": lambda mp: verify("all"),
    "verify all gamma r": lambda mp: verify("all", gamma=Fraction(1, 4), r=Fraction(2, 7)),
    "verify thm-main@6": lambda mp: verify("thm-main", order=6),
    "verify gamma1@6": lambda mp: verify("gamma1", order=6, gamma=Fraction(-2, 5),
                                         r=Fraction(3, 4)),
    "verify_proposition@4": lambda mp: verify_proposition(4),
    "verify_proposition_specializations@6": lambda mp: verify_proposition_specializations(6),
    "verify_coefficient_oracle G1@6": lambda mp: verify_coefficient_oracle("G1", 6),
    "F1=F2 mismatch": _mismatched_pair,
    "rogers_fine_check": lambda mp: rogers_fine_check(NumericEvalParams(values=RF)),
    "generalized_rf_check": lambda mp: generalized_rf_check(NumericEvalParams(values=GRF)),
    "watson_limit_check": lambda mp: watson_limit_check(
        NumericEvalParams(values=WATSON_LIMIT)),
    "grf_degeneration_check": lambda mp: grf_degeneration_check(
        NumericEvalParams(values=RF, dps=66)),
    "rogers_fine_check inconclusive": lambda mp: rogers_fine_check(
        NumericEvalParams(values=RF, max_terms=6)),
    "conjecture_explore 3,1,1": lambda mp: conjecture_explore(RootContext(3, 1, 1, 4)),
    "conjecture_explore 4,2,1": lambda mp: conjecture_explore(RootContext(4, 2, 1, 4)),
    "conjecture_explore 6,0,5": lambda mp: conjecture_explore(RootContext(6, 0, 5, 4)),
    "conjecture_explore 12,5,7": lambda mp: conjecture_explore(RootContext(12, 5, 7, 3)),
    "root_terminating_check comp1": lambda mp: _root_check("comp1-left-vs-mid", 6, 4, 1),
    "root_terminating_check comp2": lambda mp: _root_check("comp2-three-way", 4, 2, 1),
    "verify_terminating comp1": lambda mp: verify_terminating("comp1", 8, Fraction(1, 2)),
    "verify_terminating comp2": lambda mp: verify_terminating("comp2", 9, Fraction(1, 3)),
    "watson_exact": lambda mp: watson_exact(3, "1/3", "1/5", "1/7", "1/11", "1/2"),
}

CLI_CASES = {
    "cli verify thm-main": ["verify", "--id", "thm-main", "--order", "5"],
    "cli verify gamma2": ["verify", "--id", "gamma2", "--order", "5", "--gamma", "3/7"],
    "cli terminating comp2": ["terminating", "--expr", "comp2", "--p", "4", "--q", "1/2"],
    "cli terminating comp1-left": ["terminating", "--expr", "comp1-left", "--p", "8",
                                   "--q", "1/2"],
    "cli numeric grf": ["numeric", "--id", "grf", "--draws", "2", "--seed", "7"],
    "cli watson": ["watson", "--n", "2", "--a", "2/3", "--b=-1/5", "--c", "3/7",
                   "--e", "5/11", "--q", "1/3"],
    "cli roots explore": ["roots", "explore", "--k", "4", "--a", "1", "--b", "1",
                          "--order", "3"],
    "cli roots check": ["roots", "check", "--k", "3", "--family", "comp2-three-way",
                        "--p-exp", "1", "--q-exp", "1"],
}

DIGESTS = {
    "F1=F2 mismatch": "0bf7b37c1a22dde7",
    "conjecture_explore 12,5,7": "abdcdc19ae3b3695",
    "conjecture_explore 3,1,1": "6db95ab792a1d3c4",
    "conjecture_explore 4,2,1": "239570f11b3a51be",
    "conjecture_explore 6,0,5": "6a82c0678d038042",
    "generalized_rf_check": "18e9fb798b1507b0",
    "grf_degeneration_check": "2668b188169d5f0a",
    "rogers_fine_check": "79e15f956b5d3b37",
    "rogers_fine_check inconclusive": "837f317d8a7e16b5",
    "root_terminating_check comp1": "adeebbfc90e154c0",
    "root_terminating_check comp2": "716fdfcbc0a344d6",
    "verify all": "76465aec4140f7d7",
    "verify all gamma r": "681c28c45ca83f44",
    "verify gamma1@6": "55a3ea2ad7794803",
    "verify thm-main@6": "068c231ceb284c9a",
    "verify_coefficient_oracle G1@6": "65cade214f2ebefe",
    "verify_proposition@4": "49f7907c0578f345",
    "verify_proposition_specializations@6": "1d577aec7ae20676",
    "verify_terminating comp1": "aedbdef4f5a9f60d",
    "verify_terminating comp2": "c5e84a8fa73cfdc5",
    "watson_exact": "c0024ffb2a03261f",
    "watson_limit_check": "2801b443438c394e",
    "cli numeric grf": "cbc544ee5546c3e7",
    "cli roots check": "11cb29b899d41570",
    "cli roots explore": "5732543811789199",
    "cli terminating comp1-left": "e316e87438a714ea",
    "cli terminating comp2": "e2ffc13f46b497a9",
    "cli verify gamma2": "2ab59207ca507dbb",
    "cli verify thm-main": "5a75a9c109d50a5d",
    "cli watson": "ce416fdf337e3214",
}


def _digest(payload):
    text = json.dumps(_without_timing(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_json(name, monkeypatch):
    assert _digest(_json(CASES[name](monkeypatch))) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_json(name, capsys):
    code = main(CLI_CASES[name] + ["--format", "json"])
    payload = {"exit": code, "out": json.loads(capsys.readouterr().out)}
    assert _digest(payload) == DIGESTS[name]
