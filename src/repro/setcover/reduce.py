"""Covering-table reduction: essentiality and dominance (Section 3.2).

The two classic rules (McCluskey [17]), iterated to a fixed point:

* **Essentiality** — a column covered by exactly one row makes that row
  *necessary*: it joins the solution, and the columns it covers leave
  the table.
* **Row dominance** — a row whose column set is a subset of another
  row's is *dominated* and leaves the table (the dominating row does
  everything it does).
* **Column dominance** — a column whose covering-row set is a superset
  of another column's is implied by it (covering the weaker column
  necessarily covers the stronger one) and leaves the table.

The paper's definitions cover essentiality and row dominance explicitly;
column dominance is part of the standard reduction toolbox the paper
cites and accelerates closure without changing the optimum.

All three rules run on the packed words of :class:`CoverMatrix`:

* essential columns are the live columns whose covering count is 1,
  and their rows come from one lowest-set-bit pass over the transpose;
* row ``a`` is dominated by row ``b`` when ``a & ~b`` has no live
  column set, tested only against the rows covering ``a``'s pivot
  column (any dominator covers it);
* column ``c`` is dominated by column ``d`` when ``d``'s covering rows
  have no live row outside ``c``'s, tested against the columns of
  ``c``'s pivot row.

A pivot is the candidate with the fewest live cells, ties broken on
the smaller id, so what is removed never depends on an iteration
order.
Removals only clear mask bits and update the live counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.setcover.matrix import (
    CoverMatrix,
    bit_positions,
    disjoint_rows,
    first_set_bits,
)


@dataclass
class ReductionResult:
    """Outcome of reduction.

    ``essential_rows`` are committed to any optimal solution;
    ``core`` is the residual cyclic matrix (possibly empty);
    the removed row/column lists document why each disappeared.
    """

    essential_rows: list[int]
    core: CoverMatrix
    dominated_rows: list[int] = field(default_factory=list)
    dominated_columns: list[int] = field(default_factory=list)
    iterations: int = 0

    @property
    def closed(self) -> bool:
        """True when reduction alone solved the instance (empty core) —
        the paper's "the reseeding solution only contains necessary
        triplets" case."""
        return self.core.is_empty()


def reduce_matrix(
    matrix: CoverMatrix, costs: dict[int, float] | None = None
) -> ReductionResult:
    """Reduce a covering matrix to its cyclic core.

    With ``costs`` (weighted covering), row dominance additionally
    requires the dominating row to be no more expensive — otherwise a
    cheap subset row could be part of the cost optimum.  Essentiality
    and column dominance are cost-independent.

    The input matrix is not modified.  Raises :class:`ValueError` when
    some column is uncoverable (infeasible instance).
    """
    work = matrix.copy()
    if not work.is_feasible():
        raise ValueError(
            f"infeasible covering instance: columns {work.uncoverable_columns()[:5]} "
            "have no covering row"
        )
    essential: list[int] = []
    dominated_rows: list[int] = []
    dominated_columns: list[int] = []
    iterations = 0
    changed = True
    while changed and not work.is_empty():
        changed = False
        iterations += 1
        # --- essentiality ------------------------------------------------
        picks = _essential_rows(work)
        if picks:
            essential.extend(picks)
            work.select_rows_at(np.searchsorted(work.row_ids, picks))
            changed = True
        if work.is_empty():
            break
        # --- row dominance -----------------------------------------------
        removed = _remove_dominated_rows(work, costs)
        if removed:
            dominated_rows.extend(removed)
            changed = True
        # --- column dominance ---------------------------------------------
        removed_cols = _remove_dominated_columns(work)
        if removed_cols:
            dominated_columns.extend(removed_cols)
            changed = True
    return ReductionResult(
        essential_rows=essential,
        core=work,
        dominated_rows=dominated_rows,
        dominated_columns=dominated_columns,
        iterations=iterations,
    )


def _essential_rows(work: CoverMatrix) -> list[int]:
    """Ids of the rows that alone cover some live column.

    Deduplicated through a set filled in ascending column order and
    listed in its iteration order: the order a set-based reducer gives
    ``essential_rows`` (the differential oracle in
    ``tests/test_setcover_packed.py`` checks it).
    """
    columns = work.live_column_positions()
    single = columns[work.column_counts[columns] == 1]
    rows = first_set_bits(work.bits_t[single] & work.live_rows)
    return list(set(work.row_ids[rows].tolist()))


def _remove_dominated_rows(
    work: CoverMatrix, costs: dict[int, float] | None = None
) -> list[int]:
    """Remove rows whose cover is a subset of another surviving row's
    (and, under weighted covering, whose cost is no lower).

    Rows are visited by (cover size, id).  Ties (equal cover sets and
    costs) keep the smallest row id, so reduction is deterministic.
    """
    removed: list[int] = []
    rows = work.live_row_positions()
    n_rows, n_columns = len(work.row_ids), len(work.column_ids)
    for row in rows[np.lexsort((rows, work.row_counts[rows]))].tolist():
        if not work.row_is_live(row):
            continue
        if work.row_counts[row] == 0:
            work.drop_row_at(row)
            removed.append(row)
            continue
        # Any dominator covers every column of this row, so it is among
        # the rows covering its pivot: the column with the fewest
        # covering rows, lowest id first.
        cover = work.bits[row] & work.live_columns
        covered = bit_positions(cover, n_columns)
        pivot = covered[np.argmin(work.column_counts[covered])]
        others = bit_positions(work.bits_t[pivot] & work.live_rows, n_rows)
        others = others[others != row]
        supersets = others[disjoint_rows(~work.bits[others], cover)]
        if _row_dominated(work, row, supersets, costs):
            work.drop_row_at(row)
            removed.append(row)
    return work.row_ids[removed].tolist()


def _row_dominated(
    work: CoverMatrix,
    row: int,
    supersets: np.ndarray,
    costs: dict[int, float] | None,
) -> bool:
    """Does one of ``supersets`` (rows whose cover contains ``row``'s)
    dominate ``row``?"""
    larger = work.row_counts[supersets] > work.row_counts[row]
    if costs is None:
        return bool(np.any(larger | (supersets < row)))
    cost = costs[int(work.row_ids[row])]
    for other, strict in zip(supersets.tolist(), larger.tolist()):
        other_cost = costs[int(work.row_ids[other])]
        if other_cost > cost:
            continue  # the bigger row is dearer; keep both
        if strict or other_cost != cost or other < row:
            return True
    return False


def _remove_dominated_columns(work: CoverMatrix) -> list[int]:
    """Remove columns whose covering-row set contains another column's.

    If rows(c1) <= rows(c2), covering c1 forces covering c2, so c2 is
    redundant.  Columns are visited by (-covering rows, id), and the
    candidates c1 are the columns of the pivot row: the covering row
    with the fewest live columns, lowest id first.  Ties keep the
    smallest column id.
    """
    removed: list[int] = []
    columns = work.live_column_positions()
    n_rows, n_columns = len(work.row_ids), len(work.column_ids)
    order = np.lexsort((columns, -work.column_counts[columns]))
    for column in columns[order].tolist():
        if not work.column_is_live(column):
            continue
        covering = work.bits_t[column] & work.live_rows
        rows = bit_positions(covering, n_rows)
        pivot = rows[np.argmin(work.row_counts[rows])]
        others = bit_positions(work.bits[pivot] & work.live_columns, n_columns)
        others = others[others != column]
        subsets = others[disjoint_rows(work.bits_t[others], work.live_rows & ~covering)]
        smaller = work.column_counts[subsets] < work.column_counts[column]
        if np.any(smaller | (subsets < column)):
            work.drop_column_at(column)
            removed.append(column)
    return work.column_ids[removed].tolist()
