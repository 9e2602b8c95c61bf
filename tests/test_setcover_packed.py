"""The packed covering core against a set-based oracle.

``reduce_matrix`` runs essentiality, row dominance and column dominance
on packed words.  ``_set_reduce`` below is the reduction as it was
written on dicts of Python sets, with the dominance pivots broken on
(count, id); it is kept here only as the oracle the packed reducer must
match exactly: same lists in the same order, same core, same number of
iterations.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import load_circuit
from repro.faults.model import full_fault_list
from repro.setcover import CoverMatrix, reduce_matrix, solve_cover
from repro.sim.fault import FaultSimulator
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream


def _set_reduce(matrix: CoverMatrix, costs: dict[int, float] | None = None):
    """Section 3.2 reduction on two dicts of sets (the oracle)."""
    rows = {r: set(cols) for r, cols in matrix.rows.items()}
    columns = {c: set(rws) for c, rws in matrix.columns.items()}

    def remove_row(row_id):
        for column_id in rows.pop(row_id):
            columns[column_id].discard(row_id)

    def remove_column(column_id):
        for row_id in columns.pop(column_id):
            rows[row_id].discard(column_id)

    def select_row(row_id):
        for column_id in set(rows[row_id]):
            for other in columns.pop(column_id):
                if other != row_id:
                    rows[other].discard(column_id)
        rows.pop(row_id)

    essential, dominated_rows, dominated_columns = [], [], []
    iterations = 0
    changed = True
    while changed and columns:
        changed = False
        iterations += 1
        essential_now = set()
        for covering in columns.values():
            if len(covering) == 1:
                essential_now.add(next(iter(covering)))
        for row_id in essential_now:
            essential.append(row_id)
            select_row(row_id)
            changed = True
        if not columns:
            break
        for row_id in sorted(rows, key=lambda r: (len(rows[r]), r)):
            covered = rows.get(row_id)
            if covered is None:
                continue
            if not covered:
                remove_row(row_id)
                dominated_rows.append(row_id)
                changed = True
                continue
            pivot = min(covered, key=lambda c: (len(columns[c]), c))
            for other_id in columns[pivot]:
                if other_id == row_id:
                    continue
                other_covered = rows[other_id]
                if len(other_covered) < len(covered):
                    continue
                if costs is not None and costs[other_id] > costs[row_id]:
                    continue
                equal_cover = covered == other_covered
                equal_cost = costs is None or costs[other_id] == costs[row_id]
                if (covered < other_covered) or (
                    equal_cover and (not equal_cost or other_id < row_id)
                ):
                    remove_row(row_id)
                    dominated_rows.append(row_id)
                    changed = True
                    break
        for column_id in sorted(columns, key=lambda c: (-len(columns[c]), c)):
            covering = columns.get(column_id)
            if covering is None:
                continue
            pivot = min(covering, key=lambda r: (len(rows[r]), r))
            for other_id in rows[pivot]:
                if other_id == column_id:
                    continue
                other_covering = columns[other_id]
                if len(other_covering) > len(covering):
                    continue
                if other_covering < covering or (
                    other_covering == covering and other_id < column_id
                ):
                    remove_column(column_id)
                    dominated_columns.append(column_id)
                    changed = True
                    break
    return essential, dominated_rows, dominated_columns, iterations, rows, columns


def _assert_matches_oracle(matrix, costs=None):
    essential, dom_rows, dom_cols, iterations, rows, columns = _set_reduce(
        matrix, costs
    )
    result = reduce_matrix(matrix, costs=costs)
    assert result.essential_rows == essential
    assert result.dominated_rows == dom_rows
    assert result.dominated_columns == dom_cols
    assert result.iterations == iterations
    assert result.core.rows == rows
    assert result.core.columns == columns
    assert result.core.shape == (len(rows), len(columns))


@st.composite
def covering_instances(draw):
    """Feasible instances with empty rows, duplicate rows and columns,
    single-row columns, sparse ids and (sometimes) row costs."""
    n_rows = draw(st.integers(min_value=1, max_value=12))
    n_columns = draw(st.integers(min_value=1, max_value=14))
    density = draw(st.sampled_from([0.15, 0.35, 0.6]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    gen = np.random.default_rng(seed)
    array = gen.random((n_rows, n_columns)) < density
    # duplicates: repeat some rows and some columns verbatim
    array = np.vstack([array, array[gen.integers(0, n_rows, draw(st.integers(0, 3)))]])
    array = np.hstack(
        [array, array[:, gen.integers(0, n_columns, draw(st.integers(0, 3)))]]
    )
    if draw(st.booleans()):
        array[gen.integers(0, array.shape[0])] = False  # an empty row
    for column in np.flatnonzero(~array.any(axis=0)):
        array[gen.integers(0, array.shape[0]), column] = True
    n_rows, n_columns = array.shape
    row_ids = np.sort(gen.choice(4 * n_rows, n_rows, replace=False))
    column_ids = np.sort(gen.choice(4 * n_columns, n_columns, replace=False))
    matrix = CoverMatrix(array, row_ids, column_ids)
    costs = None
    if draw(st.booleans()):
        costs = {int(r): float(gen.integers(1, 4)) for r in row_ids}
    return matrix, costs


@settings(max_examples=400, deadline=None)
@given(instance=covering_instances())
def test_packed_reduction_matches_set_oracle(instance):
    matrix, costs = instance
    _assert_matches_oracle(matrix, costs)


def test_packed_reduction_matches_set_oracle_on_a_detection_matrix():
    """Fault-simulation structure: many columns share a covering set."""
    circuit = load_circuit("c880")
    rng = RngStream(2001, "golden", "c880")
    patterns = [BitVector.random(circuit.n_inputs, rng) for _ in range(128)]
    table = FaultSimulator(circuit).detection_matrix(
        patterns, full_fault_list(circuit)
    )
    matrix = CoverMatrix.from_bool_array(table[:, table.any(axis=0)])
    _assert_matches_oracle(matrix)


def test_column_pivot_ties_break_on_row_id():
    """Column 3 is covered by rows {6, 8}, both with two live columns.
    A set of those rows iterates 8 before 6; the pivot must be row 6
    (the smaller id), whose columns {0, 3} hold no subset of column 3's
    covering rows, so nothing is dominated."""
    matrix = CoverMatrix.from_row_sets(
        {0: {2}, 1: {1}, 2: set(), 3: set(), 4: set(), 5: set(),
         6: {0, 3}, 7: {0, 2}, 8: {1, 3}}
    )
    result = reduce_matrix(matrix)
    assert result.dominated_columns == []
    _assert_matches_oracle(matrix)


def test_solve_cover_memory_stays_packed():
    """131 x 1749 at density 0.75 (the s1238@1.0 Detection Matrix
    shape): the covering stage must not blow the table up into Python
    sets (about 50 MB when it did).  Nothing in a random table this
    dense reduces, so the exact solvers would spend minutes proving
    the optimum of the whole table; greedy keeps the test about the
    construction, the reduction and a solver pass over the words."""
    gen = np.random.default_rng(1238)
    array = gen.random((131, 1749)) < 0.75
    for column in np.flatnonzero(~array.any(axis=0)):
        array[gen.integers(0, 131), column] = True
    solve_cover(CoverMatrix.from_row_sets({0: {0}}), method="greedy")
    tracemalloc.start()
    try:
        solution = solve_cover(CoverMatrix.from_bool_array(array), method="greedy")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert CoverMatrix.from_bool_array(array).validate_solution(solution.selected)
    assert peak <= 4 * 2**20


class TestPackedMatrix:
    def test_copy_shares_bits_not_masks(self):
        matrix = CoverMatrix.from_row_sets({0: {0, 1}, 1: {1, 2}, 2: {2}})
        clone = matrix.copy()
        assert clone.bits is matrix.bits and clone.bits_t is matrix.bits_t
        clone.select_row(1)
        assert matrix.shape == (3, 3)
        assert clone.shape == (2, 1)
        assert clone.rows == {0: {0}, 2: set()}

    def test_views_are_read_only_snapshots(self):
        matrix = CoverMatrix.from_row_sets({3: {5, 7}, 1: {7}})
        assert list(matrix.rows) == [1, 3]
        assert matrix.columns == {5: {3}, 7: {1, 3}}
        with pytest.raises(TypeError):
            matrix.rows[1] = frozenset()
        matrix.remove_column(7)
        assert matrix.rows == {1: set(), 3: {5}}

    def test_dense_core_follows_ids(self):
        matrix = CoverMatrix.from_row_sets({4: {10, 11}, 2: {11}, 9: {12}})
        matrix.remove_row(2)
        assert matrix.alive_row_ids() == [4, 9]
        assert matrix.alive_column_ids() == [10, 11, 12]
        assert matrix.to_bool_array().tolist() == [
            [True, True, False],
            [False, False, True],
        ]

    def test_removed_ids_raise(self):
        matrix = CoverMatrix.from_row_sets({0: {0}, 1: {0, 1}})
        matrix.remove_row(0)
        with pytest.raises(KeyError):
            matrix.remove_row(0)
        assert not matrix.validate_solution([0])
        assert matrix.validate_solution([1])
