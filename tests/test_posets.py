"""Interval orders, their characteristic key, ascent sequences."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from count_helpers import self_dual_count_by_full_size
from fishburn.enumeration import refined_counts
from fishburn import posets
from fishburn.errors import BoundExceededError, ParameterError
from fishburn.posets import (Poset, _characteristic_key, _extensions,
                             ascent_sequences, count_ascent_sequences,
                             interval_orders, interval_order_statistics)
from fishburn.qseries import SEQUENCE_N_CAP, fishburn_numbers
from poset_helpers import (_order_ideals, canonical_form, down_sets, dual,
                           extend, grow, is_interval_order, is_self_dual,
                           labelled_classes, less, naturally_labeled_orders,
                           relabel, unlabeled_posets)

FISHBURN = [1, 1, 2, 5, 15, 53, 217, 1014, 5335]
ALL_POSETS = [1, 1, 2, 5, 16, 63, 318]  # unlabeled posets on 0..6 elements


def key(p):
    return _characteristic_key(p.rel, down_sets(p))


@pytest.mark.parametrize("n", range(7))
def test_unlabeled_poset_counts(n):
    assert len(unlabeled_posets(n)) == ALL_POSETS[n]


@pytest.mark.parametrize("n", range(9))
def test_interval_order_counts(n):
    assert len(interval_orders(n)) == FISHBURN[n]


@pytest.mark.parametrize("n", range(7))
def test_extension_matches_labelled_enumeration(n):
    """One-point extension of class representatives gives exactly the
    classes that enumerating every labelled order and deduplicating gives."""
    assert (sorted(canonical_form(p) for p in interval_orders(n))
            == labelled_classes(n, is_interval_order))
    assert ([canonical_form(p) for p in unlabeled_posets(n)]
            == labelled_classes(n))


@pytest.mark.parametrize("n", range(8))
def test_key_classes_match_canonical_form_classes(n):
    """Deduplicating by the characteristic key keeps one order per class of
    the relabelling canonical form, none twice."""
    forms = [canonical_form(p) for p in interval_orders(n)]
    assert len(set(forms)) == len(forms)
    assert set(forms) == {canonical_form(q) for q in grow(n, is_interval_order)}


@pytest.mark.parametrize("n", range(7))
def test_key_is_relabeling_invariant(n):
    rng = random.Random(n)
    for p in interval_orders(n):
        for _ in range(20):
            perm = list(range(n))
            rng.shuffle(perm)
            assert key(relabel(p, perm)) == key(p), p


@pytest.mark.parametrize("n", range(7))
def test_key_intervals_rebuild_the_order(n):
    """The pairs are intervals [l, r] with x < y iff r(x) < l(y)."""
    for p in interval_orders(n):
        pairs = key(p)
        rebuilt = Poset(n, [sum(1 << y for y, (l, _) in enumerate(pairs) if r < l)
                            for _, r in pairs])
        assert canonical_form(rebuilt) == canonical_form(p)


@pytest.mark.parametrize("n", range(1, 8))
def test_chain_candidates_are_the_2_plus_2_free_extensions(n):
    """The ideals read off the down-set chain are exactly the order ideals
    whose extension is 2+2-free, each once."""
    for p in interval_orders(n - 1):
        exts = list(_extensions(p.rel, down_sets(p)))
        built = [ups for ups, _ in exts]
        assert len(set(built)) == len(built)
        assert all(is_interval_order(Poset(n, ups, validate=False))
                   for ups in built)
        reference = {extend(p, down).rel for down in _order_ideals(p)
                     if is_interval_order(extend(p, down))}
        assert set(built) == reference
        assert all(downs == down_sets(Poset(n, ups)) for ups, downs in exts)


def test_extension_candidates_at_six(monkeypatch):
    """interval_orders(6) keys only the 2+2-free one-point extensions: 517
    from the 53 classes on five elements (not all 53 * 2^5 subsets), 667 over
    all six levels."""
    calls = []
    characteristic_key = _characteristic_key

    def counted(ups, downs):
        calls.append(len(ups))
        return characteristic_key(ups, downs)

    monkeypatch.setattr("fishburn.posets._characteristic_key", counted)
    assert len(interval_orders(6)) == FISHBURN[6]
    assert [calls.count(n) for n in range(1, 7)] == [1, 2, 7, 27, 113, 517]


def test_exactly_one_non_interval_poset_on_four_elements():
    """The only 2+2-containing poset on 4 elements is the 2+2 itself."""
    assert len(unlabeled_posets(4)) - len(interval_orders(4)) == 1
    two_plus_two = Poset(4, [1 << 1, 0, 1 << 3, 0])  # 0<1, 2<3
    assert not is_interval_order(two_plus_two)


def reference_is_interval_order(p):
    """The literal 2+2 search the up-set chain test replaced: no disjoint
    chains a < b, c < d with all four cross pairs incomparable."""
    def incomparable(i, j):
        return not less(p, i, j) and not less(p, j, i)
    edges = [(i, j) for i in range(p.n) for j in range(p.n) if less(p, i, j)]
    return not any(len({a, b, c, d}) == 4
                   and incomparable(a, c) and incomparable(a, d)
                   and incomparable(b, c) and incomparable(b, d)
                   for a, b in edges for c, d in edges)


@pytest.mark.parametrize("n", range(1, 7))
def test_interval_order_test_matches_the_literal_2_plus_2_search(n):
    rng = random.Random(n)
    for p in naturally_labeled_orders(n):
        assert is_interval_order(p) == reference_is_interval_order(p), p
    # the test must not depend on the labelling either
    for p in naturally_labeled_orders(min(n, 5)):
        perm = list(range(p.n))
        rng.shuffle(perm)
        q = relabel(p, perm)
        assert is_interval_order(q) == reference_is_interval_order(q), q


def test_bound_is_enforced():
    with pytest.raises(BoundExceededError, match="8"):
        interval_orders(9)
    with pytest.raises(ParameterError):
        interval_orders(-1)


def test_chain_and_antichain_are_interval_orders():
    chain = Poset(4, [0b1110, 0b1100, 0b1000, 0])
    antichain = Poset(4, [0, 0, 0, 0])
    assert is_interval_order(chain)
    assert is_interval_order(antichain)
    assert chain.minimal_count == 1 and chain.maximal_count == 1
    assert antichain.minimal_count == 4


@pytest.mark.parametrize("n, rel, message", [
    (1, [0b1], "irreflexive"),
    (2, [0b10, 0b1], "antisymmetry"),
    (3, [0b10, 0b100, 0], "transitivity"),
    (2, [0], "row count"),
    (2, [0b100, 0], r"row 0 mask 4 is outside \[0, 2\^2\)"),
    (2, [0, -2], r"row 1 mask -2 is outside \[0, 2\^2\)"),
])
def test_a_relation_that_is_not_a_strict_order_is_refused(n, rel, message):
    with pytest.raises(ParameterError, match=message):
        Poset(n, rel)


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(5150)
    for p in interval_orders(5):
        for _ in range(5):
            perm = list(range(p.n))
            rng.shuffle(perm)
            q = relabel(p, perm)
            assert canonical_form(q) == canonical_form(p)


def test_dual_poset():
    chain = Poset(3, [0b110, 0b100, 0])
    d = dual(chain)
    assert less(d, 2, 1) and less(d, 1, 0) and less(d, 2, 0)
    assert is_self_dual(chain)  # a chain is isomorphic to its dual
    v_shape = Poset(3, [0b110, 0, 0])  # one element below two
    assert not is_self_dual(v_shape)


@pytest.mark.parametrize("n", range(1, 6))
def test_maximal_distribution_matches_last_column(n):
    stats = interval_order_statistics(n)
    matrix_table = refined_counts("fishburn", n)
    by_ell = {}
    for (r, ell), c in matrix_table.counts.items():
        by_ell[ell] = by_ell.get(ell, 0) + c
    assert stats["maximal"] == by_ell


@pytest.mark.parametrize("n", range(1, 6))
def test_min_max_joint_swap_symmetric(n):
    joint = interval_order_statistics(n)["joint"]
    for (a, b), c in joint.items():
        assert joint.get((b, a), 0) == c


@pytest.mark.parametrize("n", range(1, 6))
def test_min_max_joint_matches_matrix_joint(n):
    joint = interval_order_statistics(n)["joint"]
    assert joint == refined_counts("fishburn", n).counts


@pytest.mark.parametrize("n", range(1, 7))
def test_self_dual_interval_orders_match_self_dual_matrices(n):
    sd_posets = sum(1 for p in interval_orders(n) if is_self_dual(p))
    assert sd_posets == self_dual_count_by_full_size(n)


def test_ascent_sequences_length_three():
    assert list(ascent_sequences(3)) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]


def test_ascent_sequences_are_valid():
    for seq in ascent_sequences(6):
        assert seq[0] == 0
        ascents = 0
        for i in range(1, len(seq)):
            assert seq[i] <= ascents + 1
            if seq[i] > seq[i - 1]:
                ascents += 1


@pytest.mark.parametrize("n", range(9))
def test_ascent_sequence_counts(n):
    expected = [1, 1, 2, 5, 15, 53, 217, 1014, 5335][n]
    assert count_ascent_sequences(n) == expected
    if n <= 6:
        assert sum(1 for _ in ascent_sequences(n)) == expected


def test_ascent_sequence_counts_match_the_series_to_sixty():
    # the loop over (ascents, last entry) against the q-series Fishburn numbers
    assert [count_ascent_sequences(n) for n in range(61)] == fishburn_numbers(60)


def test_ascent_sequences_stop_at_the_sequence_cap():
    # refused when called: the generator is not started, nor anything counted
    too_long = SEQUENCE_N_CAP + 1
    message = f"^ascent sequence length capped at {SEQUENCE_N_CAP} \\(got {too_long}\\)$"
    with pytest.raises(BoundExceededError, match=message):
        count_ascent_sequences(too_long)
    with pytest.raises(BoundExceededError, match=message):
        ascent_sequences(too_long)
    with pytest.raises(ParameterError, match="nonnegative"):
        ascent_sequences(-1)


def test_ascent_sequence_count_needs_no_recursion():
    # at a recursion limit of 120 a recursion over positions fails long
    # before n = 150
    script = ("import sys\nfrom fishburn.posets import count_ascent_sequences\n"
              "sys.setrecursionlimit(120)\nprint(count_ascent_sequences(150))")
    src = str(Path(posets.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) == fishburn_numbers(150)[150]
