"""The set-covering orchestrator (the right half of Figure 1).

``solve_cover`` runs reduction, then dispatches the residual core to an
exact solver or the GRASP metaheuristic depending on size, and merges
essential rows with the core picks.  The returned statistics are exactly
what Table 2 reports per circuit/TPG: initial matrix size, necessary
(essential) triplet count, reduced matrix size, and the number of
triplets contributed by the exact solver.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.setcover.ilp import load_linprog
from repro.setcover.matrix import CoverMatrix
from repro.setcover.reduce import reduce_matrix
from repro.setcover.registry import SOLVER_REGISTRY, SolverOptions
from repro.utils.registry import UnknownComponentError

#: Core sizes (rows * columns) above which `auto` switches to GRASP.
AUTO_EXACT_CELL_LIMIT = 250_000


@dataclass
class SolveStats:
    """Covering statistics in Table 2's vocabulary."""

    initial_shape: tuple[int, int]
    n_essential: int
    reduced_shape: tuple[int, int]
    n_solver_selected: int
    solver: str
    optimal: bool
    reduction_iterations: int

    @property
    def closed_by_reduction(self) -> bool:
        """Reduction alone solved the instance (empty core)."""
        return self.reduced_shape == (0, 0)


@dataclass
class CoverSolution:
    """Selected row ids (essentials + solver picks) and statistics."""

    selected: list[int]
    essential: list[int]
    solver_selected: list[int]
    stats: SolveStats

    @property
    def n_selected(self) -> int:
        """Solution cardinality |N|."""
        return len(self.selected)


def prepare_solver(method: str) -> None:
    """Import the back-end ``method`` may dispatch to (scipy, tens of MB,
    for ``auto`` and ``ilp``) ahead of the solve.

    ``solve_cover`` calls this before reduction decides whether a core
    needs the ILP, so a run's footprint does not depend on its data; a
    flow calls it before its first stage, so scipy's long-lived objects
    sit below the flow's large transient arrays and repeated runs in one
    process reach the same peak.
    """
    if method in ("auto", "ilp"):
        load_linprog()


def solve_cover(
    matrix: CoverMatrix,
    method: str = "auto",
    seed: int = 2001,
    grasp_iterations: int = 30,
    costs: dict[int, float] | None = None,
) -> CoverSolution:
    """Solve a unate covering instance end to end.

    ``method``:

    * ``"auto"`` — reduce, then ILP on small cores, GRASP on huge ones;
    * ``"ilp"`` — always the LP-based exact solver (LINGO stand-in);
    * ``"bnb"`` — always the combinatorial branch & bound;
    * ``"grasp"`` — always the metaheuristic;
    * ``"greedy"`` — reduction + greedy (fast, approximate).

    ``costs`` switches the objective from minimum cardinality to minimum
    total row cost (the exact solvers and greedy honour it; GRASP is
    cardinality-only and rejects it).

    Solvers are looked up in :data:`~repro.setcover.registry.SOLVER_REGISTRY`;
    an unregistered ``method`` raises
    :class:`~repro.utils.registry.UnknownComponentError` (a ``ValueError``
    subclass) with "did you mean" suggestions.
    """
    if method != "auto" and method not in SOLVER_REGISTRY:
        raise UnknownComponentError(
            "cover method", method, ["auto", *SOLVER_REGISTRY.names()]
        )
    prepare_solver(method)
    initial_shape = matrix.shape
    reduction = reduce_matrix(matrix, costs=costs)
    core = reduction.core
    optimal = True
    solver = "none"
    core_selected: list[int] = []
    if not core.is_empty():
        cells = core.n_rows * core.n_columns
        chosen_method = method
        if method == "auto":
            chosen_method = "ilp" if cells <= AUTO_EXACT_CELL_LIMIT else "grasp"
        options = SolverOptions(
            seed=seed, grasp_iterations=grasp_iterations, costs=costs
        )
        outcome = SOLVER_REGISTRY.get(chosen_method)(core, options)
        core_selected = outcome.selected
        optimal = outcome.optimal
        solver = chosen_method
    selected = sorted(set(reduction.essential_rows) | set(core_selected))
    if not matrix.validate_solution(selected):
        raise AssertionError("solver produced a non-covering solution")
    stats = SolveStats(
        initial_shape=initial_shape,
        n_essential=len(reduction.essential_rows),
        reduced_shape=core.shape if not core.is_empty() else (0, 0),
        n_solver_selected=len(core_selected),
        solver=solver,
        optimal=optimal,
        reduction_iterations=reduction.iterations,
    )
    return CoverSolution(
        selected=selected,
        essential=sorted(reduction.essential_rows),
        solver_selected=sorted(core_selected),
        stats=stats,
    )
