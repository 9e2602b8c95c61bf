"""Tests for the covering solvers (greedy, B&B, ILP, GRASP, orchestrator)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.setcover import (
    CoverMatrix,
    branch_and_bound,
    grasp_cover,
    greedy_cover,
    ilp_cover,
    solve_cover,
)
from repro.setcover.greedy import drop_redundant


def _cyclic3():
    """The smallest cyclic instance; optimum is 2."""
    return CoverMatrix.from_row_sets({0: {0, 1}, 1: {1, 2}, 2: {2, 0}})


def _with_optimum_3():
    """6 columns, optimum 3 rows, greedy can be misled."""
    return CoverMatrix.from_row_sets(
        {
            0: {0, 1},
            1: {2, 3},
            2: {4, 5},
            3: {0, 2, 4},
            4: {1, 3},
        }
    )


class TestGreedy:
    def test_produces_valid_cover(self):
        matrix = _with_optimum_3()
        assert matrix.validate_solution(greedy_cover(matrix))

    def test_deterministic(self):
        assert greedy_cover(_cyclic3()) == greedy_cover(_cyclic3())

    def test_infeasible_rejected(self):
        matrix = CoverMatrix.from_row_sets({0: {0}}, n_columns=2)
        with pytest.raises(ValueError):
            greedy_cover(matrix)

    def test_drop_redundant(self):
        matrix = _cyclic3()
        bloated = [0, 1, 2]  # any 2 suffice
        slim = drop_redundant(matrix, bloated)
        assert len(slim) == 2
        assert matrix.validate_solution(slim)


class TestBranchAndBound:
    def test_cyclic_optimum(self):
        result = branch_and_bound(_cyclic3())
        assert len(result.selected) == 2
        assert result.optimal

    def test_empty_matrix(self):
        result = branch_and_bound(CoverMatrix.from_row_sets({}))
        assert result.selected == []
        assert result.optimal

    def test_single_row_instance(self):
        matrix = CoverMatrix.from_row_sets({5: {0, 1, 2}})
        result = branch_and_bound(matrix)
        assert result.selected == [5]

    def test_beats_greedy_when_greedy_suboptimal(self):
        # classic greedy trap: a big row that forces 3 picks vs optimum 2
        matrix = CoverMatrix.from_row_sets(
            {
                0: {0, 1, 2, 3},
                1: {0, 1, 4},
                2: {2, 3, 5},
                3: {4, 5},
            }
        )
        greedy = drop_redundant(matrix, greedy_cover(matrix))
        exact = branch_and_bound(matrix)
        assert len(exact.selected) <= len(greedy)
        assert len(exact.selected) == 2  # rows 1+2 … check: 1 u 2 = {0,1,2,3,4,5}
        assert matrix.validate_solution(exact.selected)

    def test_infeasible_rejected(self):
        matrix = CoverMatrix.from_row_sets({0: {0}}, n_columns=2)
        with pytest.raises(ValueError):
            branch_and_bound(matrix)


class TestIlp:
    def test_matches_bnb_on_cyclic(self):
        assert len(ilp_cover(_cyclic3()).selected) == 2

    def test_root_bound_recorded(self):
        result = ilp_cover(_cyclic3())
        # LP relaxation of the 3-cycle is 1.5
        assert result.root_lp_bound == pytest.approx(1.5)
        assert result.optimal

    def test_empty_matrix(self):
        result = ilp_cover(CoverMatrix.from_row_sets({}))
        assert result.selected == []

    def test_infeasible_rejected(self):
        matrix = CoverMatrix.from_row_sets({0: {0}}, n_columns=2)
        with pytest.raises(ValueError):
            ilp_cover(matrix)

    def test_solution_is_cover(self):
        matrix = _with_optimum_3()
        result = ilp_cover(matrix)
        assert matrix.validate_solution(result.selected)

    @staticmethod
    def _scipy_loaded_after(code: str) -> bool:
        """Whether a fresh interpreter has scipy loaded after ``code``."""
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        probe = (
            f"{code}\nimport sys\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=repo_src),
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.stdout.split()[-1] == "True"

    def test_import_repro_leaves_scipy_unloaded(self):
        """scipy is imported when a solve may need the ILP, not by
        ``import repro``."""
        assert not self._scipy_loaded_after("import repro")

    @pytest.mark.parametrize("method,loaded", [("auto", True), ("greedy", False)])
    def test_solver_import_does_not_depend_on_the_core(self, method, loaded):
        """An ILP-capable method loads scipy even when reduction alone
        closes the instance, so a run's footprint does not depend on its
        data; a method that never reaches the ILP leaves it unloaded."""
        code = (
            "from repro.setcover import CoverMatrix, solve_cover\n"
            "solution = solve_cover(CoverMatrix.from_row_sets({0: {0}, 1: {1}}),"
            f" method={method!r})\n"
            "assert solution.stats.closed_by_reduction"
        )
        assert self._scipy_loaded_after(code) is loaded


class TestGrasp:
    def test_valid_cover(self):
        matrix = _with_optimum_3()
        result = grasp_cover(matrix, iterations=10)
        assert matrix.validate_solution(result.selected)

    def test_finds_optimum_on_small_instance(self):
        result = grasp_cover(_cyclic3(), iterations=10)
        assert len(result.selected) == 2

    def test_deterministic_given_seed(self):
        a = grasp_cover(_with_optimum_3(), seed=9, iterations=5)
        b = grasp_cover(_with_optimum_3(), seed=9, iterations=5)
        assert a.selected == b.selected

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            grasp_cover(_cyclic3(), alpha=1.5)

    def test_empty_matrix(self):
        assert grasp_cover(CoverMatrix.from_row_sets({})).selected == []


class TestSolveCover:
    def test_auto_solves_to_optimum(self):
        solution = solve_cover(_cyclic3())
        assert solution.n_selected == 2
        assert solution.stats.optimal

    def test_stats_fields(self):
        solution = solve_cover(_cyclic3())
        stats = solution.stats
        assert stats.initial_shape == (3, 3)
        assert stats.n_essential == 0
        assert stats.reduced_shape == (3, 3)
        assert stats.n_solver_selected == 2
        assert stats.solver == "ilp"
        assert not stats.closed_by_reduction

    def test_closed_by_reduction_instance(self):
        matrix = CoverMatrix.from_row_sets({0: {0, 1, 2}, 1: {1}, 2: {2}})
        solution = solve_cover(matrix)
        assert solution.stats.closed_by_reduction
        assert solution.stats.solver == "none"
        assert solution.selected == solution.essential == [0]

    def test_essential_and_solver_parts_disjoint(self):
        matrix = CoverMatrix.from_row_sets(
            {0: {0}, 1: {1, 2}, 2: {2, 3}, 3: {3, 1}}
        )
        solution = solve_cover(matrix)
        assert not set(solution.essential) & set(solution.solver_selected)
        assert set(solution.selected) == set(solution.essential) | set(
            solution.solver_selected
        )

    @pytest.mark.parametrize("method", ["auto", "ilp", "bnb", "grasp", "greedy"])
    def test_all_methods_produce_valid_covers(self, method):
        matrix = _with_optimum_3()
        solution = solve_cover(matrix, method=method)
        assert matrix.validate_solution(solution.selected)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            solve_cover(_cyclic3(), method="magic")
