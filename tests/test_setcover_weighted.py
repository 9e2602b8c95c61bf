"""Tests for cost-weighted set covering (the minimum-test-length
objective extension)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.setcover import (
    CoverMatrix,
    branch_and_bound,
    greedy_cover,
    ilp_cover,
    reduce_matrix,
    solve_cover,
)


def _weighted_instance():
    """Columns {0,1,2}; a big expensive row vs two cheap small ones."""
    matrix = CoverMatrix.from_row_sets(
        {
            0: {0, 1, 2},  # covers everything
            1: {0, 1},
            2: {2},
            3: {1, 2},
        }
    )
    costs = {0: 10.0, 1: 2.0, 2: 1.0, 3: 2.0}
    return matrix, costs


def _brute_optimum(matrix, costs):
    rows = sorted(matrix.rows)
    best = None
    for size in range(len(rows) + 1):
        for combo in itertools.combinations(rows, size):
            if matrix.validate_solution(combo):
                cost = sum(costs[r] for r in combo)
                if best is None or cost < best:
                    best = cost
    return best


class TestWeightedSolvers:
    def test_cardinality_vs_cost_optimum_differ(self):
        matrix, costs = _weighted_instance()
        cardinality = branch_and_bound(matrix)
        weighted = branch_and_bound(matrix, costs=costs)
        assert len(cardinality.selected) == 1  # the big row
        # cost optimum avoids the 10.0 row: {1, 2} costs 3.0
        assert sum(costs[r] for r in weighted.selected) == 3.0

    def test_ilp_weighted_matches_bnb(self):
        matrix, costs = _weighted_instance()
        ilp = ilp_cover(matrix, costs=costs)
        bnb = branch_and_bound(matrix, costs=costs)
        assert sum(costs[r] for r in ilp.selected) == sum(
            costs[r] for r in bnb.selected
        )
        assert ilp.optimal

    def test_greedy_weighted_is_valid(self):
        matrix, costs = _weighted_instance()
        selected = greedy_cover(matrix, costs)
        assert matrix.validate_solution(selected)

    def test_missing_costs_rejected(self):
        matrix, costs = _weighted_instance()
        del costs[3]
        with pytest.raises(ValueError, match="missing"):
            branch_and_bound(matrix, costs=costs)

    def test_nonpositive_costs_rejected(self):
        matrix, costs = _weighted_instance()
        costs[0] = 0.0
        with pytest.raises(ValueError):
            branch_and_bound(matrix, costs=costs)
        with pytest.raises(ValueError):
            ilp_cover(matrix, costs=costs)

    def test_solve_cover_weighted(self):
        matrix, costs = _weighted_instance()
        solution = solve_cover(matrix, costs=costs)
        assert sum(costs[r] for r in solution.selected) == 3.0
        assert solution.stats.optimal

    def test_grasp_rejects_costs(self):
        matrix, costs = _weighted_instance()
        with pytest.raises(ValueError, match="grasp"):
            solve_cover(matrix, method="grasp", costs=costs)


class TestWeightedReduction:
    def test_cheap_subset_row_survives(self):
        """Under costs, a subset row cheaper than its superset must NOT
        be removed by row dominance."""
        matrix = CoverMatrix.from_row_sets({0: {0, 1}, 1: {0, 1, 2}, 2: {2}})
        costs = {0: 1.0, 1: 5.0, 2: 1.0}
        reduction = reduce_matrix(matrix, costs=costs)
        survivors = set(reduction.core.rows) | set(reduction.essential_rows)
        assert 0 in survivors

    def test_equal_cost_subset_removed(self):
        matrix = CoverMatrix.from_row_sets({0: {0, 1}, 1: {0, 1, 2}, 2: {2}})
        costs = {0: 5.0, 1: 5.0, 2: 1.0}
        reduction = reduce_matrix(matrix, costs=costs)
        assert 0 in reduction.dominated_rows


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n_rows=st.integers(min_value=1, max_value=6),
    n_columns=st.integers(min_value=1, max_value=7),
)
def test_weighted_bnb_matches_brute_force(data, n_rows, n_columns):
    rows = {}
    for row_id in range(n_rows):
        rows[row_id] = set(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n_columns - 1),
                    max_size=n_columns,
                ),
                label=f"row{row_id}",
            )
        )
    for column in sorted(set(range(n_columns)).difference(*rows.values())):
        fixer = data.draw(
            st.integers(min_value=0, max_value=n_rows - 1), label=f"fix{column}"
        )
        rows[fixer].add(column)
    matrix = CoverMatrix.from_row_sets(rows, n_columns=n_columns)
    costs = {
        row_id: float(
            data.draw(st.integers(min_value=1, max_value=9), label=f"cost{row_id}")
        )
        for row_id in range(n_rows)
    }
    expected = _brute_optimum(matrix, costs)
    bnb = branch_and_bound(matrix, costs=costs)
    ilp = ilp_cover(matrix, costs=costs)
    assert sum(costs[r] for r in bnb.selected) == expected
    assert sum(costs[r] for r in ilp.selected) == pytest.approx(expected)
    assert matrix.validate_solution(bnb.selected)
    assert matrix.validate_solution(ilp.selected)
