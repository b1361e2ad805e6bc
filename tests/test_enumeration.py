"""Matrix enumeration oracles: counts, statistics, duality, facts."""

import hashlib
import json
import random
from collections import Counter
from math import comb

import pytest

from count_helpers import (anti_diagonal_is_zero, distinct_partition_parity,
                           is_fishburn, is_row_fishburn, is_self_dual,
                           reverse_transpose, self_dual_count_by_full_size)
from fishburn.enumeration import (MATRIX_SIZE_BOUNDS, FishburnMatrix, _count,
                                  _layouts, _refined_tables, _tree, _walk,
                                  fishburn_matrices, refined_counts,
                                  row_fishburn_matrices, self_dual_matrices,
                                  verify_facts)
from fishburn.errors import BoundExceededError, ParameterError
from fishburn.identities import verify_coefficient_oracle
from fishburn.qseries import (expand_family, fishburn_numbers,
                              row_fishburn_numbers)


def reference_fill_cells(cells, budget, conditions, kind_overlap):
    """An independent recursive generator of the vectors `_walk` yields,
    the reference for the differential tests: it tracks which conditions
    are satisfied cell by cell instead of reading the memoised tree, and
    its last cell loops over 0..left like every other."""
    ncells = len(cells)
    kinds = sorted(kind_overlap)
    cond_kind = [k for k, _ in conditions]
    cond_cells = [sorted(members) for _, members in conditions]
    if any(not members for members in cond_cells):
        return
    cell_conds = [[] for _ in range(ncells)]
    for ci, members in enumerate(cond_cells):
        for idx in members:
            cell_conds[idx].append(ci)
    freeze_at = [[] for _ in range(ncells)]
    for ci, members in enumerate(cond_cells):
        freeze_at[max(members)].append(ci)
    values = [0] * ncells
    satisfied = [False] * len(cond_cells)
    unsat = {k: sum(1 for ck in cond_kind if ck == k) for k in kinds}

    def rec(pos, left):
        if pos == ncells:
            if left == 0 and not any(unsat.values()):
                yield tuple(values)
            return
        need = 0
        for k in kinds:
            u = unsat[k]
            if u:
                need = max(need, -(-u // kind_overlap[k]))
        if left < need:
            return
        frozen = freeze_at[pos]
        for v in range(left + 1):
            values[pos] = v
            touched = []
            if v > 0:
                for ci in cell_conds[pos]:
                    if not satisfied[ci]:
                        satisfied[ci] = True
                        unsat[cond_kind[ci]] -= 1
                        touched.append(ci)
            if all(satisfied[ci] for ci in frozen):
                yield from rec(pos + 1, left - v)
            for ci in touched:
                satisfied[ci] = False
                unsat[cond_kind[ci]] += 1
        values[pos] = 0

    yield from rec(0, budget)


@pytest.mark.parametrize("family,sizes", [("fishburn", range(7)),
                                          ("rowFishburn", range(7)),
                                          ("selfDual", range(6))])
def test_walk_matches_reference_on_every_layout(family, sizes):
    for size in sizes:
        for _dim, cells, conditions, overlap in _layouts(family, size):
            assert list(_walk(cells, size, conditions, overlap)) == \
                list(reference_fill_cells(cells, size, conditions, overlap))


def random_layouts(rng):
    """300 random (cells, budget, conditions, overlap).  A condition may have
    no cells, and an overlap bound need not hold, so the bound can prune
    admissible vectors too: the walk's exact pruning is under test."""
    for _ in range(300):
        ncells = rng.randint(1, 6)
        overlap = {"a": rng.randint(1, 3), "b": rng.randint(1, 2)}
        conditions = [(rng.choice("ab"), {c for c in range(ncells) if rng.random() < 0.4})
                      for _ in range(rng.randint(0, 4))]
        yield list(range(ncells)), rng.randint(0, 5), conditions, overlap


def test_walk_matches_reference_on_random_conditions():
    for cells, budget, conditions, overlap in random_layouts(random.Random(2024)):
        assert list(_walk(cells, budget, conditions, overlap)) == \
            list(reference_fill_cells(cells, budget, conditions, overlap))


def test_count_matches_reference_on_random_conditions():
    # one tree, built for the largest budget, read at every budget below it
    rng = random.Random(7)
    for cells, budget, conditions, overlap in random_layouts(random.Random(2024)):
        statistics = [({c for c in cells if rng.random() < 0.5}, rng.random() < 0.3)
                      for _ in range(rng.randint(0, 3))]

        def key(values):
            sums = (sum(values[c] for c in members) for members, _ in statistics)
            return tuple(min(1, total) if saturates else total
                         for total, (_, saturates) in zip(sums, statistics))

        budgets = range(budget + 1)
        want = [Counter(map(key, reference_fill_cells(cells, b, conditions, overlap)))
                for b in budgets]
        assert _count(cells, budgets, conditions, overlap, statistics) == want


@pytest.mark.parametrize("ncells,budget", [(2, 14), (3, 4), (5, 9), (12, 6)])
def test_counts_at_the_slot_bound_leave_the_next_slot_intact(ncells, budget):
    # with no conditions every vector counts, so the root of the largest
    # budget holds the binomial bound itself (15 = 0b1111 at (2, 14) and
    # (3, 4), a full slot): a carry out of it would show as a key (1,)
    cells = list(range(ncells))
    budgets = range(budget + 1)
    assert _count(cells, budgets, [], {}, [(set(), False)]) == \
        [{(0,): comb(b + ncells - 1, ncells - 1)} for b in budgets]
    # the last cell's value puts the counts in neighbouring slots
    assert _count(cells, budgets, [], {}, [({ncells - 1}, False)]) == \
        [{(e,): comb(b - e + ncells - 2, ncells - 2) for e in range(b + 1)}
         for b in budgets]


def test_free_empties_both_memos():
    _dim, cells, conditions, overlap = list(_layouts("fishburn", 5))[-1]
    tree = _tree(cells, 5, conditions, overlap, [({0, 1}, False), ({4}, True)])
    assert tree.count(0, 5, 0)
    assert tree.count.cache_info().currsize and tree.positive.cache_info().currsize
    tree.free()
    assert tree.count.cache_info().currsize == tree.positive.cache_info().currsize == 0


@pytest.mark.parametrize("family,top", [("fishburn", 8), ("rowFishburn", 8),
                                        ("selfDual", 6)])
def test_one_tree_read_at_every_size_matches_fresh_tables(family, top):
    tables = _refined_tables(family, range(top + 1))
    assert [t.size for t in tables] == list(range(top + 1))
    for m, table in enumerate(tables):
        assert table == refined_counts(family, m)


# sha256 of the sorted (key, count) pairs of refined_counts, recorded from
# the recursive-generator enumeration that the walk replaced
REFINED_DIGESTS = {
    "fishburn": ["0a826aeef9d89834", "c3d67ed486d506e7", "0d6c13283c3d4b67",
                 "309a4dbaf8c9f5ad", "bfd28d4b310ab315", "db0f194a02fd05fc",
                 "f69c50aa30e8425d", "6f9dba2f2365aefa", "7a305df16c389f61"],
    "rowFishburn": ["4c7ea68ad825a11b", "aead728784f07a0a", "e4d00a5d40939709",
                    "4d79f4aa434785ba", "da2d5d48a855893d", "3e3f962a3c1c6bc8",
                    "e506510df516a5de", "8c01f3e56aba0926"],
    "selfDual": ["be1fb18382a16aee", "89e18acf43c7b2e5", "6acc9e1a991b9102",
                 "e9d95fc25e6287bb", "f5289a9eefedeb7d", "5f5c12c600e528c2",
                 "9a4b819e04c8a631"],
}


@pytest.mark.parametrize("family, generator", [("fishburn", fishburn_matrices),
                                               ("rowFishburn", row_fishburn_matrices),
                                               ("selfDual", self_dual_matrices)])
def test_size_above_the_bound_is_refused(family, generator):
    # the counts and the generators both refuse before the tree is built
    bound = MATRIX_SIZE_BOUNDS[family]
    message = f"{family} enumeration is configured for size <= {bound}, got {bound + 1}"
    with pytest.raises(BoundExceededError, match=message):
        refined_counts(family, bound + 1)
    with pytest.raises(BoundExceededError, match=message):
        next(generator(bound + 1))


def table_digest(table):
    items = sorted([list(key), count] for key, count in table.counts.items())
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]


@pytest.mark.parametrize("family", sorted(REFINED_DIGESTS))
def test_refined_tables_are_frozen(family):
    got = [table_digest(refined_counts(family, size))
           for size in range(len(REFINED_DIGESTS[family]))]
    assert got == REFINED_DIGESTS[family]


def object_table(family, size):
    """The refined table of `size` >= 1 rebuilt from the generator objects,
    each keyed by the statistics the object itself reports."""
    if family == "fishburn":
        keys = ((m.first_row_sum, m.last_column_sum) for m in fishburn_matrices(size))
    elif family == "rowFishburn":
        keys = ((m.last_column_sum,) for m in row_fishburn_matrices(size))
    else:
        keys = ((m.last_column_sum, anti_diagonal_is_zero(m.rows))
                for m in self_dual_matrices(size))
    return Counter(keys)


@pytest.mark.parametrize("family,top", [("fishburn", 7), ("rowFishburn", 6),
                                        ("selfDual", 5)])
def test_refined_counts_match_generator_objects(family, top):
    for size in range(1, top + 1):
        assert refined_counts(family, size).counts == object_table(family, size)


def test_counts_reach_sizes_the_walk_cannot():
    # the series route: 6,271,362,282 and 10,886,503 objects, counted
    # without visiting one
    assert refined_counts("rowFishburn", 12).total == \
        row_fishburn_numbers(12)[12] == 6_271_362_282
    assert refined_counts("fishburn", 12).total == \
        fishburn_numbers(12)[12] == 10_886_503


def test_size_one():
    assert [m.rows for m in fishburn_matrices(1)] == [((1,),)]


def test_size_two():
    got = [m.rows for m in fishburn_matrices(2)]
    assert got == [((2,),), ((1, 0), (0, 1))]


def test_size_three_statistics():
    mats = list(fishburn_matrices(3))
    assert len(mats) == 5
    by_ell = {}
    for m in mats:
        by_ell[m.last_column_sum] = by_ell.get(m.last_column_sum, 0) + 1
    assert by_ell == {1: 2, 2: 2, 3: 1}


def test_size_zero_is_empty_stream():
    assert list(fishburn_matrices(0)) == []
    assert refined_counts("fishburn", 0).counts == {(0, 0): 1}


def test_unrefined_totals():
    assert [sum(1 for _ in fishburn_matrices(m)) for m in range(1, 8)] == \
        [1, 2, 5, 15, 53, 217, 1014]
    assert [sum(1 for _ in row_fishburn_matrices(m)) for m in range(1, 7)] == \
        [1, 3, 12, 61, 380, 2815]
    assert [sum(1 for _ in self_dual_matrices(m)) for m in range(1, 6)] == \
        [2, 6, 24, 122, 760]


def test_all_generated_matrices_are_valid():
    for m in fishburn_matrices(4):
        assert is_fishburn(m.rows) and sum(map(sum, m.rows)) == 4
    for m in row_fishburn_matrices(4):
        assert is_row_fishburn(m.rows) and sum(map(sum, m.rows)) == 4
    for m in self_dual_matrices(3):
        assert is_fishburn(m.rows)
        assert is_self_dual(m.rows)
        # the reduced size sums the entries on and below the anti-diagonal
        assert sum(v for i, row in enumerate(m.rows) for j, v in enumerate(row)
                   if i + j >= m.dim - 1) == 3


@pytest.mark.parametrize("m,count", [(1, 2), (2, 6), (3, 24), (4, 122)])
def test_self_dual_matrices_are_the_filtered_fishburn_matrices(m, count):
    # a self-dual matrix of reduced size m and anti-diagonal sum d has full
    # size n = 2m - d, so m <= n <= 2m
    want = set()
    for n in range(m, 2 * m + 1):
        for mat in fishburn_matrices(n):
            diagonal = sum(mat.rows[i][mat.dim - 1 - i] for i in range(mat.dim))
            if n + diagonal == 2 * m and is_self_dual(mat.rows):
                want.add(mat.rows)
    got = [mat.rows for mat in self_dual_matrices(m)]
    assert len(got) == len(set(got)) == count
    assert set(got) == want


def test_deterministic_order():
    first = [m.rows for m in fishburn_matrices(4)]
    second = [m.rows for m in fishburn_matrices(4)]
    assert first == second
    dims = [m.dim for m in fishburn_matrices(4)]
    assert dims == sorted(dims)


def test_refined_fishburn_m2():
    assert refined_counts("fishburn", 2).counts == {(2, 2): 1, (1, 1): 1}


def test_marginals():
    table = refined_counts("fishburn", 3)
    assert table.marginal(1) == {1: 2, 2: 2, 3: 1}   # by last-column sum
    assert table.marginal(0) == {1: 2, 2: 2, 3: 1}   # by first-row sum
    assert table.total == 5


def test_coefficient_oracle_cap():
    with pytest.raises(ParameterError, match="capped at size 12"):
        verify_coefficient_oracle("F1", 13)


def test_coefficient_oracle_at_the_cap():
    # the joint table of Fishburn matrices of size 12 and its last-column
    # marginal, recorded from the walk over all 10,886,503 of them; F1 must
    # carry the marginal at total degree 12
    by_ell = {1: 1422074, 2: 3351901, 3: 3294744, 4: 1868825, 5: 706580,
              6: 193732, 7: 40740, 8: 6840, 9: 945, 10: 110, 11: 11, 12: 1}
    table = refined_counts("fishburn", 12)
    assert table_digest(table) == "62b991a28344b1be"
    assert table.marginal(1) == by_ell
    series = expand_family("F1", 12)
    assert {ell: series.coefficient((12 - ell, ell)) for ell in by_ell} == by_ell
    for family in ("F1", "G1"):
        rep = verify_coefficient_oracle(family, 12)
        assert rep.outcome == "verified"
        assert rep.detail["coefficients_checked"] == 91


def test_refined_row_fishburn_m2():
    got = refined_counts("rowFishburn", 2)
    assert got.counts == {(1,): 1, (2,): 2}
    mats = [m.rows for m in row_fishburn_matrices(2)]
    assert ((2,),) in mats
    assert ((1, 0), (0, 1)) in mats
    assert ((0, 1), (0, 1)) in mats


def test_refined_self_dual_m1():
    got = refined_counts("selfDual", 1)
    assert got.counts == {(1, False): 1, (1, True): 1}
    mats = list(self_dual_matrices(1))
    dims = sorted(m.dim for m in mats)
    assert dims == [1, 2]
    two = next(m for m in mats if m.dim == 2)
    assert two.rows == ((1, 0), (0, 1))
    assert anti_diagonal_is_zero(two.rows)   # the anti-diagonal is the corner 0


def test_reverse_transpose_involution_swaps_statistics():
    for m in fishburn_matrices(5):
        rt = FishburnMatrix(reverse_transpose(m.rows))
        assert is_fishburn(rt.rows)
        assert reverse_transpose(rt.rows) == m.rows
        assert rt.first_row_sum == m.last_column_sum
        assert rt.last_column_sum == m.first_row_sum


@pytest.mark.parametrize("m", range(1, 8))
def test_joint_table_swap_symmetric(m):
    table = refined_counts("fishburn", m).counts
    for (r, ell), c in table.items():
        assert table.get((ell, r), 0) == c


def test_self_dual_completion_is_fixed_point():
    for m in self_dual_matrices(3):
        assert m.rows == reverse_transpose(m.rows)


def test_verify_facts():
    report = verify_facts(5)
    assert report.ok
    assert (1, 1) in report.checked
    assert report.m_max == 5


def test_verify_facts_empty():
    report = verify_facts(0)
    assert report.ok and report.checked == []


def test_self_dual_by_full_size():
    assert [self_dual_count_by_full_size(n) for n in range(1, 6)] == \
        [1, 2, 3, 7, 13]


def test_partition_parity_examples():
    assert distinct_partition_parity(1, 1) == 1
    assert distinct_partition_parity(2, 3) == -1
    assert distinct_partition_parity(3, 6) == 1
    assert distinct_partition_parity(5, 3) == 0  # weight below largest part


def test_partition_parity_rejects_bad_args():
    with pytest.raises(ParameterError):
        distinct_partition_parity(0, 3)


def test_dump_format():
    m = FishburnMatrix(((1, 1), (0, 1)))
    assert m.dump() == "n=2\n1 1\n0 1"
