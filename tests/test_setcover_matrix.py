"""Tests for the CoverMatrix structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.setcover.matrix import CoverMatrix


def _simple():
    # rows: 0 covers {0,1}, 1 covers {1,2}, 2 covers {2}
    return CoverMatrix.from_row_sets({0: {0, 1}, 1: {1, 2}, 2: {2}})


class TestConstruction:
    def test_from_bool_array(self):
        array = np.array([[True, False], [True, True]])
        matrix = CoverMatrix.from_bool_array(array)
        assert matrix.rows == {0: {0}, 1: {0, 1}}
        assert matrix.columns == {0: {0, 1}, 1: {1}}

    def test_from_bool_array_rejects_1d(self):
        with pytest.raises(ValueError):
            CoverMatrix.from_bool_array(np.array([True, False]))

    def test_from_row_sets_with_explicit_columns(self):
        matrix = CoverMatrix.from_row_sets({0: {0}}, n_columns=3)
        assert matrix.n_columns == 3
        assert not matrix.is_feasible()
        assert matrix.uncoverable_columns() == [1, 2]

    def test_views_consistent(self):
        matrix = _simple()
        for row_id, cols in matrix.rows.items():
            for column_id in cols:
                assert row_id in matrix.columns[column_id]
        for column_id, rows in matrix.columns.items():
            for row_id in rows:
                assert column_id in matrix.rows[row_id]


class TestQueries:
    def test_shape(self):
        assert _simple().shape == (3, 3)

    def test_is_empty(self):
        assert CoverMatrix.from_row_sets({}).is_empty()
        assert not _simple().is_empty()

    def test_validate_solution(self):
        matrix = _simple()
        assert matrix.validate_solution([0, 1])
        assert matrix.validate_solution([0, 2])
        assert not matrix.validate_solution([0])
        assert not matrix.validate_solution([99])

    def test_copy_independent(self):
        matrix = _simple()
        clone = matrix.copy()
        clone.remove_row(0)
        assert 0 in matrix.rows


class TestMutation:
    def test_remove_row_updates_columns(self):
        matrix = _simple()
        matrix.remove_row(1)
        assert 1 not in matrix.rows
        assert matrix.columns[1] == {0}
        assert matrix.columns[2] == {2}

    def test_remove_column_updates_rows(self):
        matrix = _simple()
        matrix.remove_column(1)
        assert matrix.rows[0] == {0}
        assert matrix.rows[1] == {2}

    def test_select_row_removes_covered_columns(self):
        matrix = _simple()
        covered = matrix.select_row(0)
        assert covered == {0, 1}
        assert 0 not in matrix.rows
        assert set(matrix.columns) == {2}
        assert matrix.rows[1] == {2}
