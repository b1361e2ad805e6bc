"""Brute-force enumeration of Fishburn-type matrices.

These generators are the independent oracle for every series coefficient:
they know nothing about q-series and work only on matrix entries.  One walk,
a single loop over an explicit stack, fills the cells in row-major order,
prunes a branch whose budget cannot cover the rows (and columns) still
empty, and yields each admissible entry vector in lexicographic order; the
matrix generators build their objects from those vectors.  `refined_counts`
visits no object: `_count` goes down the same tree with the same pruning,
memoised on the state that fixes a subtree (cell, budget left, and which
open conditions are met), so each distinct subtree is counted once.

Counting costs grow with the number of distinct subtrees, not of objects.
On a 2-vCPU Xeon VM with Python 3.11, fishburn at size 12 (10,886,503
matrices) takes about 0.2 s, rowFishburn at 12 (6,271,362,282) about 0.03 s
and selfDual at reduced size 8 (474,696) about 0.3 s.  The walk, and so the
generators, still visit every object: about a second for fishburn at 10,
rowFishburn at 8 or selfDual at 7.

Conventions: matrices are 0-indexed internally; `size` is the sum of all
entries; the empty matrix is the unique object of size 0 and is counted in
refined tables but not emitted by the generators.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class FishburnMatrix:
    """Upper-triangular nonnegative integer matrix (full square storage)."""

    rows: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def size(self) -> int:
        return sum(map(sum, self.rows))

    @property
    def first_row_sum(self) -> int:
        return sum(self.rows[0])

    @property
    def last_column_sum(self) -> int:
        return sum(row[-1] for row in self.rows)

    def is_upper_triangular(self) -> bool:
        return all(self.rows[i][j] == 0
                   for i in range(self.dim) for j in range(i))

    def rows_all_positive(self) -> bool:
        return all(any(v > 0 for v in row) for row in self.rows)

    def columns_all_positive(self) -> bool:
        return all(any(self.rows[i][j] > 0 for i in range(self.dim))
                   for j in range(self.dim))

    def is_row_fishburn(self) -> bool:
        return self.is_upper_triangular() and self.rows_all_positive()

    def is_fishburn(self) -> bool:
        return self.is_row_fishburn() and self.columns_all_positive()

    def reverse_transpose(self) -> "FishburnMatrix":
        """Reflection through the north-east diagonal: (i,j) -> (n-1-j, n-1-i).

        An involution on Fishburn matrices that swaps first-row and
        last-column sums.
        """
        n = self.dim
        return FishburnMatrix(tuple(
            tuple(self.rows[n - 1 - j][n - 1 - i] for j in range(n))
            for i in range(n)))

    def is_self_dual(self) -> bool:
        return self.rows == self.reverse_transpose().rows

    def dump(self) -> str:
        lines = [f"n={self.dim}"]
        lines.extend(" ".join(str(v) for v in row) for row in self.rows)
        return "\n".join(lines)


@dataclass(frozen=True)
class SelfDualMatrix:
    """Self-dual Fishburn matrix stored by its south-east entries.

    `southeast` maps 0-based (i, j) with i <= j and i + j >= dim - 1 to the
    entry; the full matrix is recovered via M[i][j] = M[n-1-j][n-1-i].
    The reduced size is the sum of the stored entries; the diagonal entries
    are those on the anti-diagonal i + j = dim - 1.
    """

    dim: int
    southeast: tuple  # sorted tuple of ((i, j), value), zero entries omitted

    @property
    def reduced_size(self) -> int:
        return sum(v for _, v in self.southeast)

    @property
    def diagonal_entries(self) -> tuple:
        n = self.dim
        se = dict(self.southeast)
        out = []
        for i in range(n):
            j = n - 1 - i
            if i <= j:
                out.append(se.get((i, j), 0))
        return tuple(out)

    def has_zero_diagonal(self) -> bool:
        return all(v == 0 for v in self.diagonal_entries)

    def completed(self) -> FishburnMatrix:
        n = self.dim
        se = dict(self.southeast)
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if j < i:
                    row.append(0)
                elif i + j >= n - 1:
                    row.append(se.get((i, j), 0))
                else:
                    row.append(se.get((n - 1 - j, n - 1 - i), 0))
            rows.append(tuple(row))
        return FishburnMatrix(tuple(rows))

    @property
    def last_column_sum(self) -> int:
        # the whole last column lies in the south-east region
        se = dict(self.southeast)
        return sum(se.get((i, self.dim - 1), 0) for i in range(self.dim))


# ---------------------------------------------------------------------------
# the walk over cell values


def _rules(ncells, conditions, kind_overlap):
    """The constraint tables the walk and the count share, or None when a
    condition has no cells and so can never be satisfied.

    Returns (cond_kind, cond_cells, cell_conds, freeze_at, need): the kind
    index and sorted cell indices of each condition, the conditions on each
    cell, the conditions whose last cell each cell is, and `need(unsat)`,
    the least budget that can still satisfy `unsat[k]` open conditions of
    each kind k when one cell satisfies at most `kind_overlap[kind]` of them.
    """
    kinds = sorted(kind_overlap)
    overlaps = [kind_overlap[kind] for kind in kinds]
    cond_kind = [kinds.index(k) for k, _ in conditions]
    cond_cells = [sorted(members) for _, members in conditions]
    if any(not members for members in cond_cells):
        return None
    cell_conds = [[] for _ in range(ncells)]
    freeze_at = [[] for _ in range(ncells)]
    for ci, members in enumerate(cond_cells):
        for idx in members:
            cell_conds[idx].append(ci)
        freeze_at[members[-1]].append(ci)

    def need(unsat):
        least = 0
        for u, o in zip(unsat, overlaps):
            u = -(-u // o)
            if u > least:
                least = u
        return least

    return cond_kind, cond_cells, cell_conds, freeze_at, need


def _walk(cells, budget, conditions, kind_overlap):
    """Yield every value vector for `cells` that sums to `budget` and gives
    every condition a positive entry somewhere in its cells.

    `conditions` is a list of (kind, cell-index set); `kind_overlap[kind]` is
    the maximum number of same-kind conditions one cell can satisfy.  The
    remaining budget must cover max over kinds of ceil(unsat/overlap), and a
    condition still unsatisfied at its last cell ends the branch.  Values go
    up from 0 and the last cell takes the whole remaining budget, so the
    vectors come in lexicographic order of the row-major entry vector.

    One loop over an explicit stack (each cell's value and the budget left
    before it) does the backtracking.  The vector yielded is the walk's own
    live list: read it before the next step, copy it to keep it.
    """
    ncells = len(cells)
    rules = _rules(ncells, conditions, kind_overlap)
    if rules is None:
        return
    cond_kind, _, cell_conds, freeze_at, need = rules
    unsat = [cond_kind.count(k) for k in range(len(kind_overlap))]
    cover = [0] * len(conditions)  # positive cells of each condition so far
    values = [0] * ncells
    lefts = [0] * ncells  # budget left before cell pos
    last = ncells - 1
    pos, left = 0, budget
    least = need(unsat)  # kept up to date wherever unsat changes
    while True:
        # descend: give cells pos, pos + 1, ... their least admissible values
        while True:
            if left < least:
                break
            v = left if pos == last else 0
            if not v:
                for ci in freeze_at[pos]:
                    if not cover[ci]:
                        v = 1
                        break
                if v and not left:
                    break
            if v:
                for ci in cell_conds[pos]:
                    if not cover[ci]:
                        unsat[cond_kind[ci]] -= 1
                    cover[ci] += 1
                least = need(unsat)
            values[pos] = v
            if pos == last:
                yield values
                break
            lefts[pos] = left
            left -= v
            pos += 1
        # retreat: clear cell pos, then raise the deepest earlier cell that can
        while True:
            if values[pos]:
                for ci in cell_conds[pos]:
                    cover[ci] -= 1
                    if not cover[ci]:
                        unsat[cond_kind[ci]] += 1
                values[pos] = 0
            pos -= 1
            if pos < 0:
                return
            v = values[pos]
            if v < lefts[pos]:
                if not v:
                    for ci in cell_conds[pos]:
                        if not cover[ci]:
                            unsat[cond_kind[ci]] -= 1
                        cover[ci] += 1
                values[pos] = v + 1
                left = lefts[pos] - v - 1
                least = need(unsat)
                pos += 1
                break


def _count(cells, budget, conditions, kind_overlap, statistics):
    """{statistic tuple: number of vectors} over the vectors `_walk` yields
    for the same arguments, found without visiting them.

    `statistics` is a list of (cell-index set, saturates): the statistic is
    the sum of the vector over its cells, or with `saturates` 1 if any of
    them is positive and 0 if none is.

    `count(pos, left, met)` is the table of statistic suffixes (the part
    cells pos.. contribute) over the completions from cell pos with `left`
    to spend.  `met` has a bit for each open condition that is satisfied:
    open means its first cell lies before pos and its last at or after it.  A
    condition not yet started is unsatisfied, and one already closed was
    checked at its last cell, so these three arguments fix the subtree, and
    `count` is memoised on them: each distinct subtree is counted once (the
    transfer-matrix method, Stanley, *EC1* 4.7).  Each suffix is one packed
    int, statistic s in the bits from s * width up.
    """
    ncells = len(cells)
    rules = _rules(ncells, conditions, kind_overlap)
    if rules is None:
        return {}
    cond_kind, cond_cells, cell_conds, freeze_at, need = rules
    kinds = range(len(kind_overlap))
    kind_bits = [sum(1 << ci for ci, k in enumerate(cond_kind) if k == kind)
                 for kind in kinds]
    # conditions of each kind not yet closed before cell pos
    still_open = [[sum(1 for ci, members in enumerate(cond_cells)
                       if cond_kind[ci] == kind and members[-1] >= pos)
                   for kind in kinds] for pos in range(ncells)]
    cell_bits = [sum(1 << ci for ci in conds) for conds in cell_conds]
    freeze_bits = [sum(1 << ci for ci in conds) for conds in freeze_at]
    width = budget.bit_length() or 1
    adds = [0] * ncells  # per unit of value: + adds, then | flags
    flags = [0] * ncells
    for s, (members, saturates) in enumerate(statistics):
        for idx in members:
            if saturates:
                flags[idx] |= 1 << (s * width)
            else:
                adds[idx] += 1 << (s * width)
    last = ncells - 1
    memo = {}

    def count(pos, left, met):
        state = (pos, left, met)
        table = memo.get(state)
        if table is not None:
            return table
        unsat = [open_ - (met & bits).bit_count()
                 for open_, bits in zip(still_open[pos], kind_bits)]
        closing = freeze_bits[pos]
        table = {}
        # a condition closing here and still unmet needs a positive value
        if left >= need(unsat) and (left or not closing & ~met):
            if pos == last:
                table[left * adds[pos] | (flags[pos] if left else 0)] = 1
            else:
                if not closing & ~met:
                    table.update(count(pos + 1, left, met & ~closing))
                add, flag = adds[pos], flags[pos]
                met = (met | cell_bits[pos]) & ~closing
                for v in range(1, left + 1):
                    shift = v * add
                    for suffix, n in count(pos + 1, left - v, met).items():
                        suffix = (suffix + shift) | flag
                        table[suffix] = table.get(suffix, 0) + n
        memo[state] = table
        return table

    packed = count(0, budget, 0)
    memo.clear()  # count refers to itself: free the tables now, not at gc
    mask = (1 << width) - 1
    return {tuple(suffix >> (s * width) & mask for s in range(len(statistics))): n
            for suffix, n in packed.items()}


def _layouts(family, size):
    """(dim, cells, conditions, kind overlap) for each dimension an object of
    `family` and the given size can have (reduced size for selfDual)."""
    if family == "selfDual":
        # south-east cells only; the completed matrix is Fishburn exactly when
        # every row is positive (columns are their mirror images), and one
        # cell lies in at most two rows of the completion
        for dim in range(1, 2 * size + 1):
            cells = [(i, j) for i in range(dim) for j in range(i, dim)
                     if i + j >= dim - 1]
            index = {cell: k for k, cell in enumerate(cells)}
            conditions = []
            for i in range(dim):
                members = {index[(i, j)] for j in range(max(i, dim - 1 - i), dim)}
                # mirrored part of row i: column dim-1-i, rows i+1..dim-1-i
                members.update(index[(a, dim - 1 - i)] for a in range(i + 1, dim - i)
                               if (a, dim - 1 - i) in index)
                conditions.append(("row", members))
            yield dim, cells, conditions, {"row": 2}
        return
    for dim in range(1, size + 1):
        cells = [(i, j) for i in range(dim) for j in range(i, dim)]
        index = {cell: k for k, cell in enumerate(cells)}
        conditions = [("row", [index[(i, j)] for j in range(i, dim)])
                      for i in range(dim)]
        overlap = {"row": 1}
        if family == "fishburn":
            conditions += [("col", [index[(i, j)] for i in range(j + 1)])
                           for j in range(dim)]
            overlap["col"] = 1
        yield dim, cells, conditions, overlap


def _triangular_matrices(family, size):
    for dim, cells, conditions, overlap in _layouts(family, size):
        for values in _walk(cells, size, conditions, overlap):
            rows = [[0] * dim for _ in range(dim)]
            for (i, j), v in zip(cells, values):
                rows[i][j] = v
            yield FishburnMatrix(tuple(tuple(r) for r in rows))


def fishburn_matrices(size: int):
    """All Fishburn matrices of the given size, by ascending dimension then
    row-major lexicographic entry order.  size 0 yields the empty stream."""
    if size < 0:
        raise ParameterError("size must be nonnegative")
    return _triangular_matrices("fishburn", size)


def row_fishburn_matrices(size: int):
    """All row-Fishburn matrices (rows positive, columns unconstrained)."""
    if size < 0:
        raise ParameterError("size must be nonnegative")
    return _triangular_matrices("rowFishburn", size)


def self_dual_matrices(reduced_size: int):
    """All self-dual Fishburn matrices of the given reduced size.

    Enumerates south-east entries; the completed matrix must be Fishburn,
    which for self-dual matrices reduces to the row conditions (columns are
    their mirror images).  Dimensions range over 1..2*reduced_size.
    """
    if reduced_size < 0:
        raise ParameterError("reduced size must be nonnegative")
    for dim, cells, conditions, overlap in _layouts("selfDual", reduced_size):
        for values in _walk(cells, reduced_size, conditions, overlap):
            stored = tuple(sorted(
                (cell, v) for cell, v in zip(cells, values) if v))
            yield SelfDualMatrix(dim, stored)


# ---------------------------------------------------------------------------
# refined counting


@dataclass
class CountTable:
    """Counts keyed by a statistic tuple; totals include the empty object."""

    family: str
    size: int
    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def marginal(self, axis: int) -> dict:
        out = {}
        for key, c in self.counts.items():
            k = key[axis]
            out[k] = out.get(k, 0) + c
        return out


_EMPTY_KEYS = {"fishburn": (0, 0), "rowFishburn": (0,), "selfDual": (0, True)}


def _statistics(family, dim, cells):
    """The (cell-index set, saturates) statistics of `_count` that key the
    refined table of `family` at dimension `dim`."""
    last = {k for k, (_, j) in enumerate(cells) if j == dim - 1}
    if family == "rowFishburn":
        return [(last, False)]
    if family == "fishburn":
        return [(set(range(dim)), False), (last, False)]  # row 0: first dim cells
    diagonal = {k for k, (i, j) in enumerate(cells) if i + j == dim - 1}
    return [(last, False), (diagonal, True)]


def refined_counts(family: str, size: int) -> CountTable:
    """Statistic tables: fishburn -> (firstRowSum, lastColumnSum) joint;
    rowFishburn -> (lastColumnSum,); selfDual (keyed by REDUCED size)
    -> (lastColumnSum, allDiagonalZero).

    Each layout's objects are counted by `_count`, which walks the tree of
    `_walk` with the same pruning but counts each distinct subtree once, so
    the cost grows with the number of subtrees, not of objects."""
    if size < 0:
        raise ParameterError("size must be nonnegative")
    if family not in _EMPTY_KEYS:
        raise ParameterError(
            f"unknown matrix family {family!r}; use fishburn, rowFishburn or selfDual")
    counts = Counter()
    if size == 0:
        counts[_EMPTY_KEYS[family]] = 1
    for dim, cells, conditions, overlap in _layouts(family, size):
        table = _count(cells, size, conditions, overlap,
                       _statistics(family, dim, cells))
        for key, n in table.items():
            if family == "selfDual":
                key = (key[0], not key[1])
            counts[key] += n
    return CountTable(family, size, dict(counts))


@dataclass
class FactsReport:
    """Outcome of the zero-diagonal / row-Fishburn halving checks."""

    m_max: int
    checked: list
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_facts(m_max: int) -> FactsReport:
    """For 1 <= m <= m_max and every last-column sum l, check that self-dual
    matrices of reduced size m split evenly by zero diagonal, and that the
    zero-diagonal half equals the row-Fishburn count r_{m,l}."""
    if m_max < 0:
        raise ParameterError("m_max must be nonnegative")
    checked, failures = [], []
    for m in range(1, m_max + 1):
        sd = refined_counts("selfDual", m)
        rf = refined_counts("rowFishburn", m)
        ells = {key[0] for key in sd.counts} | {key[0] for key in rf.counts}
        for ell in sorted(ells):
            zero_diag = sd.counts.get((ell, True), 0)
            nonzero_diag = sd.counts.get((ell, False), 0)
            s_total = zero_diag + nonzero_diag
            r_count = rf.counts.get((ell,), 0)
            checked.append((m, ell))
            if not (2 * zero_diag == s_total and 2 * r_count == s_total):
                failures.append({
                    "m": m, "ell": ell, "zero_diagonal": zero_diag,
                    "self_dual_total": s_total, "row_fishburn": r_count,
                })
    return FactsReport(m_max, checked, failures)


def distinct_partition_parity(largest: int, weight: int) -> int:
    """(#odd - #even) part counts over partitions of `weight` into distinct
    parts with largest part exactly `largest`, by literal enumeration."""
    if largest < 1 or weight < 1:
        raise ParameterError("arguments must be >= 1")
    rest = weight - largest
    if rest < 0:
        return 0
    total = 0
    pool = range(1, largest)
    for k in range(0, largest):
        for combo in itertools.combinations(pool, k):
            if sum(combo) == rest:
                # part count is k + 1; odd count means k even
                total += 1 if k % 2 == 0 else -1
    return total
