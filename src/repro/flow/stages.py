"""The Figure-1 steps after ATPG, and the flow's progress events.

:meth:`repro.flow.session.Session.run_info` runs the paper's flow as
plain calls: the session's memoized ATPG, then :func:`build_matrix`
(the Initial Reseeding Builder), :func:`cover` (matrix reducer + exact
solver) and :func:`trim` (Section 4).  Each step returns its artefact
and the attrs of its ``done`` :class:`StageEvent`; the session times
it and emits the events.

``cover`` and ``trim`` call :func:`~repro.setcover.solve.solve_cover`
and :func:`~repro.reseeding.trim.trim_solution` through this module's
globals, so a profiler that wraps ``repro.flow.stages.solve_cover`` /
``trim_solution`` sees every call the flow makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.atpg.engine import AtpgResult
from repro.circuit.netlist import Circuit
from repro.reseeding.detection_matrix import TableMemo
from repro.reseeding.initial import InitialReseeding, InitialReseedingBuilder
from repro.reseeding.trim import TrimmedSolution, trim_solution
from repro.setcover.matrix import CoverMatrix
from repro.setcover.solve import CoverSolution, solve_cover
from repro.sim.fault import FaultSimulator
from repro.tpg.base import TestPatternGenerator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flow.pipeline import PipelineConfig


@dataclass(frozen=True)
class StageEvent:
    """One progress tick: a stage started, finished, or skipped.

    ``attrs`` is an optional structured payload (rows built, cache
    hit/skip reason, candidate counts); it is last and defaulted so the
    long-standing positional construction ``StageEvent(name, status,
    seconds, detail)`` keeps working.
    """

    stage: str
    status: str  # "start" | "done" | "skipped" | "cache-hit"
    seconds: float = 0.0
    detail: str = ""
    attrs: dict | None = None


#: Callback invoked with every :class:`StageEvent` of a flow run.
ProgressHook = Callable[[StageEvent], None]


def build_matrix(
    circuit: Circuit,
    tpg: TestPatternGenerator,
    atpg: AtpgResult,
    config: "PipelineConfig",
    simulator: FaultSimulator,
    evolve,
    tables: TableMemo | None = None,
) -> tuple[InitialReseeding, dict]:
    """Initial Reseeding Builder: candidate triplets + Detection Matrix.

    ``evolve`` is the batched-evolution provider
    (:data:`~repro.reseeding.triplet.EvolveBatch`), the session's
    :meth:`~repro.flow.session.Session.packed_evolution`, and ``tables``
    the session's first-detection memo, which serves the pool's table
    at another length.  ``reused_patterns`` in the attrs is the prefix
    of every row that memo served (0 for a fresh build).
    """
    builder = InitialReseedingBuilder(
        circuit, tpg, seed=config.seed, simulator=simulator
    )
    cells, words = simulator.detect_cells, simulator.words_simulated
    initial = builder.build_from_atpg(
        atpg,
        evolution_length=config.evolution_length,
        workers=config.matrix_workers,
        evolve=evolve,
        tables=tables,
    )
    return initial, dict(
        rows_built=len(initial.triplets),
        n_faults=initial.detection_matrix.matrix.shape[1],
        evolution_length=initial.evolution_length,
        detect_cells=simulator.detect_cells - cells,
        words_simulated=simulator.words_simulated - words,
        reused_patterns=initial.detection_matrix.reused_patterns,
    )


def cover(
    initial: InitialReseeding, config: "PipelineConfig"
) -> tuple[CoverSolution, dict]:
    """Matrix reduction + exact/heuristic covering (the LINGO stand-in)."""
    solution = solve_cover(
        CoverMatrix.from_bool_array(initial.detection_matrix.matrix),
        method=config.cover_method,
        seed=config.seed,
        grasp_iterations=config.grasp_iterations,
    )
    stats = solution.stats
    return solution, dict(
        n_essential=stats.n_essential,
        reduced_shape=stats.reduced_shape,
        reduction_iterations=stats.reduction_iterations,
        solver=stats.solver,
    )


def trim(
    initial: InitialReseeding, solution: CoverSolution
) -> tuple[TrimmedSolution, dict]:
    """Per-triplet test-length trimming (paper Section 4).

    The matrix build recorded every cell's first detecting pattern;
    trimming reads those offsets and simulates nothing.
    """
    trimmed = trim_solution(initial.detection_matrix, solution.selected)
    if trimmed.undetected:
        raise AssertionError(
            f"final reseeding misses {len(trimmed.undetected)} faults; "
            "the covering solution should be complete"
        )
    return trimmed, dict(
        n_triplets=len(trimmed.solution.triplets),
        test_length=trimmed.solution.test_length,
    )
