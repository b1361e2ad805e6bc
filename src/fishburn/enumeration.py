"""Brute-force enumeration of Fishburn-type matrices.

These generators are the independent oracle for every series coefficient:
they know nothing about q-series and work only on matrix entries.  One tree,
built by `_tree`, fills the cells in row-major order: a node is the cell, the
budget left and which open conditions (rows, and columns) already have a
positive entry, and its subtree is counted once, memoised on the node.  A
subtree's table is one packed int, the generating polynomial of its
statistics, so merging two tables is one addition and raising their
statistics is one shift.  It is read two ways.  `refined_counts` reads the
count at the root (`_count`) and visits no object; a subtree does not
depend on the total size, so `_refined_tables` builds each dimension's tree
once and reads it at every size a caller needs (`verify_facts` and the
coefficient oracle).  The matrix generators walk the tree (`_walk`), which
yields each admissible entry vector in lexicographic order, entering a branch
only when its count shows a completion, so it never visits a dead subtree.
One generator, `_matrices`, turns the vectors of all three families into
full square matrices; a self-dual matrix is walked by its south-east cells
and its other entries are read from their mirror cells.

Counting costs grow with the number of distinct subtrees, not of objects.
On a 2-vCPU Xeon VM with Python 3.11, fishburn at size 12 (10,886,503
matrices) takes about 0.06 s, rowFishburn at 12 (6,271,362,282) about
0.006 s and selfDual at reduced size 8 (474,696) about 0.075 s; all the
sizes up to 12 of fishburn together take about 1.1 times what 12 alone
does.  The generators pay for each object they yield, about two thirds of
it in the walk:
fishburn at 9 (31,240 matrices) takes about 0.25 s, rowFishburn at 8
(237,348) about 1.8 s and selfDual at 6 (5,630) about 0.06 s.

Conventions: matrices are 0-indexed internally; `size` is the sum of all
entries; the empty matrix is the unique object of size 0 and is counted in
refined tables but not emitted by the generators.

Every count and generator goes through `_layouts`, which refuses a size above
its family's `MATRIX_SIZE_BOUNDS` entry with BoundExceededError.  The tree
recurses once per cell, so the bounds keep the recursion below Python's
default limit and the memo within a few hundred MB: on the VM above,
fishburn at 16 takes about 1.2 s and 76 MB and needs a recursion depth of
311, rowFishburn at 24 a depth of 655, and selfDual at reduced size 12 about
5.2 s and 142 MB (depth 343).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb
from operator import itemgetter
from typing import Callable, NamedTuple

from .errors import BoundExceededError, ParameterError

# the largest size (reduced size for selfDual) that each family enumerates
MATRIX_SIZE_BOUNDS = {"fishburn": 16, "rowFishburn": 24, "selfDual": 12}


@dataclass(frozen=True)
class FishburnMatrix:
    """Upper-triangular nonnegative integer matrix (full square storage)."""

    rows: tuple

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def first_row_sum(self) -> int:
        return sum(self.rows[0])

    @property
    def last_column_sum(self) -> int:
        return sum(row[-1] for row in self.rows)

    def dump(self) -> str:
        lines = [f"n={self.dim}"]
        lines.extend(" ".join(str(v) for v in row) for row in self.rows)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the tree of cell values


class _Tree(NamedTuple):
    """The functions of one tree, as `_tree` describes them."""

    child: Callable
    count: Callable
    positive: Callable
    unpack: Callable

    def free(self):
        """Clear the memos of `count` and `positive`: they refer to each
        other, so their tables would otherwise live until a collection."""
        self.count.cache_clear()
        self.positive.cache_clear()


def _tree(cells, budget, conditions, kind_overlap, statistics=()):
    """The tree of value vectors for `cells` that give every condition a
    positive entry somewhere in its cells, for every root budget (the sum of
    the vector) up to `budget`, as a `_Tree`.

    `conditions` is a list of (kind, cell-index set); `kind_overlap[kind]` is
    the maximum number of same-kind conditions one cell can satisfy.  A node
    is (pos, left, met): cells before pos are filled, `left` is the budget
    still to spend, and `met` has a bit for each open condition that is
    satisfied.  Open means its first cell lies before pos and its last at or
    after it; a condition not yet started is unsatisfied, and one already
    closed was checked at its last cell, so these three fix the subtree.  It
    does not depend on the root budget, so `count(0, m, 0)` reads the
    vectors that sum to m off the same tree for every m <= `budget`.

    `child(pos, met, v)` is the `met` of the node below once cell pos takes
    value v, or None when a condition closing at pos is left unmet.

    `count(pos, left, met)` is the generating polynomial of the statistic
    suffixes (the part cells pos.. contribute) over the completions of the
    node, packed into one int; 0 means the node has none.  `statistics` is a
    list of (cell-index set, saturates): the statistic is the sum of the
    vector over its cells, or with `saturates` 1 if any of them is positive
    and 0 if none is.  A suffix e is one int, statistic s in the digit from
    bit s * width up, and the number of completions with suffix e sits in
    bits e * slot to (e + 1) * slot.  `slot` is the bit length of the number
    of all vectors of the cells that sum to `budget`, which bounds every
    count of the tree, so no slot overflows: raising the suffixes by v at a
    cell is one shift, merging is one addition, and a saturating statistic
    moves the slots whose digit is 0 up by one in that digit (a mask and a
    shift).  `unpack` reads a root polynomial as {statistic tuple: number}.

    `positive(pos, left, below)` is the positive branch of cell pos: over
    v = 1..left, count(pos + 1, left - v, below) raised by v at cell pos.
    It is memoised beside `count` and built from its value one unit of
    budget lower, so the branch costs one addition and one shift per node;
    saturation is linear, so `count` applies it once, to the sum.

    A node is cut when its budget cannot cover, for some kind, the open
    conditions still unmet with `kind_overlap[kind]` of them per cell.
    `count` is memoised on its node, so each distinct subtree is counted
    once (the transfer-matrix method, Stanley, *EC1* 4.7, with generating
    polynomials as the transfer entries); call `free()` to release the
    memos.
    """
    ncells = len(cells)
    kinds = sorted(kind_overlap)
    overlaps = [kind_overlap[kind] for kind in kinds]
    cond_kind = [kinds.index(k) for k, _ in conditions]
    # a condition with no cells closes, unmet, at cell 0
    ends = [max(members, default=0) for _, members in conditions]
    kind_bits = [sum(1 << ci for ci, k in enumerate(cond_kind) if k == kind)
                 for kind in range(len(kinds))]
    # conditions of each kind not yet closed before cell pos
    still_open = [[sum(1 for ci, end in enumerate(ends)
                       if cond_kind[ci] == kind and end >= pos)
                   for kind in range(len(kinds))] for pos in range(ncells)]
    cell_bits = [0] * ncells
    freeze_bits = [0] * ncells
    for ci, (_, members) in enumerate(conditions):
        for idx in members:
            cell_bits[idx] |= 1 << ci
        freeze_bits[ends[ci]] |= 1 << ci
    width = budget.bit_length() or 1
    digit = (1 << width) - 1
    slot = comb(budget + ncells - 1, ncells - 1).bit_length()
    ones = (1 << slot) - 1
    steps = [0] * ncells  # the shift that raises the suffixes by one unit
    saturations = [[] for _ in range(ncells)]  # (mask, shift) pairs
    for s, (members, saturates) in enumerate(statistics):
        if saturates:
            # the slots whose digit s is 0, moved to digit 1
            mask = sum(ones << (e * slot)
                       for e in range(1 << (len(statistics) * width))
                       if not e >> (s * width) & digit)
            for idx in members:
                saturations[idx].append((mask, slot << (s * width)))
        else:
            for idx in members:
                steps[idx] += slot << (s * width)
    last = ncells - 1

    def child(pos, met, v):
        if v:
            met |= cell_bits[pos]
        closing = freeze_bits[pos]
        return None if closing & ~met else met & ~closing

    cuts = [[(open_, bits, overlap)
             for open_, bits, overlap in zip(still_open[pos], kind_bits, overlaps)
             if open_] for pos in range(ncells)]

    @cache
    def count(pos, left, met):
        for open_, bits, overlap in cuts[pos]:
            if open_ - (met & bits).bit_count() > left * overlap:
                return 0
        # the two children of `child`, written out: calling it twice per
        # node costs about a quarter of the count
        closing = freeze_bits[pos]
        if pos == last:
            if left:
                met |= cell_bits[pos]
            if closing & ~met:
                return 0
            if not left:
                return 1
            total, raised = 0, 1 << left * steps[pos]
        else:
            total = 0 if closing & ~met else count(pos + 1, left, met & ~closing)
            met |= cell_bits[pos]  # the same child for every positive value
            if closing & ~met or not left:
                return total
            raised = positive(pos, left, met & ~closing)
        for mask, shift in saturations[pos]:
            moved = raised & mask
            raised += (moved << shift) - moved
        return total + raised

    @cache
    def positive(pos, left, below):
        if not left:
            return 0
        return (count(pos + 1, left - 1, below)
                + positive(pos, left - 1, below)) << steps[pos]

    def unpack(packed):
        table = {}
        e = 0
        while packed:
            n = packed & ones
            if n:
                table[tuple(e >> (s * width) & digit
                            for s in range(len(statistics)))] = n
            packed >>= slot
            e += 1
        return table

    return _Tree(child, count, positive, unpack)


def _walk(cells, budget, conditions, kind_overlap):
    """Yield, as tuples, the value vectors of the tree of `_tree` in
    lexicographic order: values go up from 0, and a branch is entered only
    when `count` finds a completion below it, so no dead subtree is visited.
    """
    tree = _tree(cells, budget, conditions, kind_overlap)
    child, count = tree.child, tree.count
    last = len(cells) - 1
    values = [0] * len(cells)

    def walk(pos, left, met):
        if pos == last:
            values[pos] = left
            yield tuple(values)
            return
        for v in range(left + 1):
            below = child(pos, met, v)
            if below is not None and count(pos + 1, left - v, below):
                values[pos] = v
                yield from walk(pos + 1, left - v, below)

    try:
        if count(0, budget, 0):
            yield from walk(0, budget, 0)
    finally:
        tree.free()


def _count(cells, budgets, conditions, kind_overlap, statistics):
    """For each budget in `budgets`, {statistic tuple: number of vectors}
    over the vectors `_walk` yields for that budget and the same other
    arguments, read off the root of one tree, built for the largest budget,
    without visiting them; `statistics` is as in `_tree`."""
    tree = _tree(cells, max(budgets), conditions, kind_overlap, statistics)
    try:
        return [tree.unpack(tree.count(0, budget, 0)) for budget in budgets]
    finally:
        tree.free()


def _layouts(family, size):
    """(dim, cells, conditions, kind overlap) for each dimension an object of
    `family` and the given size can have (reduced size for selfDual).
    BoundExceededError above the family's MATRIX_SIZE_BOUNDS entry."""
    if size > MATRIX_SIZE_BOUNDS[family]:
        raise BoundExceededError(f"{family} enumeration is configured for size <= "
                                 f"{MATRIX_SIZE_BOUNDS[family]}, got {size}")
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


def _matrices(family, size):
    """The matrices of `family` whose vectors `_walk` yields, in its order.

    Entry (i, j) of a matrix is read from its cell, else, for selfDual, from
    the mirror cell (dim-1-j, dim-1-i), else it is 0: each row is one gather
    from the vector padded with that 0."""
    for dim, cells, conditions, overlap in _layouts(family, size):
        index = {cell: k for k, cell in enumerate(cells)}
        zero = len(cells)
        sources = [[index.get((i, j), index.get((dim - 1 - j, dim - 1 - i), zero)
                              if family == "selfDual" else zero)
                    for j in range(dim)] for i in range(dim)]
        # itemgetter of one index returns the entry, not a 1-tuple
        rows = [itemgetter(*source) if dim > 1 else itemgetter(slice(0, 1))
                for source in sources]
        for values in _walk(cells, size, conditions, overlap):
            values += (0,)
            yield FishburnMatrix(tuple([row(values) for row in rows]))


def fishburn_matrices(size: int):
    """All Fishburn matrices of the given size, by ascending dimension then
    row-major lexicographic entry order.  size 0 yields the empty stream."""
    if size < 0:
        raise ParameterError("size must be nonnegative")
    return _matrices("fishburn", size)


def row_fishburn_matrices(size: int):
    """All row-Fishburn matrices (rows positive, columns unconstrained)."""
    if size < 0:
        raise ParameterError("size must be nonnegative")
    return _matrices("rowFishburn", size)


def self_dual_matrices(reduced_size: int):
    """All self-dual Fishburn matrices of the given reduced size (the sum of
    the entries on and below the anti-diagonal), completed.

    The walk fills the south-east cells only; the completed matrix must be
    Fishburn, which for self-dual matrices reduces to the row conditions
    (columns are their mirror images).  Dimensions range over
    1..2*reduced_size.
    """
    if reduced_size < 0:
        raise ParameterError("reduced size must be nonnegative")
    return _matrices("selfDual", reduced_size)


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


def _refined_tables(family, sizes):
    """The `refined_counts` tables of `family` at each of `sizes`, in order.

    Each layout's tree is built once, for the largest size, and read at
    every size, since a subtree does not depend on the root budget; so all
    the sizes up to m cost about what m alone does."""
    if any(size < 0 for size in sizes):
        raise ParameterError("size must be nonnegative")
    if family not in _EMPTY_KEYS:
        raise ParameterError(
            f"unknown matrix family {family!r}; use fishburn, rowFishburn or selfDual")
    counts = [Counter({_EMPTY_KEYS[family]: 1} if size == 0 else {})
              for size in sizes]
    for dim, cells, conditions, overlap in _layouts(family, max(sizes, default=0)):
        tables = _count(cells, sizes, conditions, overlap,
                        _statistics(family, dim, cells))
        for total, table in zip(counts, tables):
            for key, n in table.items():
                if family == "selfDual":
                    key = (key[0], not key[1])
                total[key] += n
    return [CountTable(family, size, dict(total))
            for size, total in zip(sizes, counts)]


def refined_counts(family: str, size: int) -> CountTable:
    """Statistic tables: fishburn -> (firstRowSum, lastColumnSum) joint;
    rowFishburn -> (lastColumnSum,); selfDual (keyed by REDUCED size)
    -> (lastColumnSum, allDiagonalZero).

    Each layout's objects are counted by `_count`, which reads the count at
    the root of the tree the generators walk; each distinct subtree is
    counted once, so the cost grows with the number of subtrees, not of
    objects."""
    return _refined_tables(family, (size,))[0]


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
    sizes = range(1, m_max + 1)
    for m, sd, rf in zip(sizes, _refined_tables("selfDual", sizes),
                         _refined_tables("rowFishburn", sizes)):
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
