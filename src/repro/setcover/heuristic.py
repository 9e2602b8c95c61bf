"""GRASP metaheuristic for large covering cores.

The paper notes that "depending on the size of the matrix, either exact
approaches or local research and meta-heuristic techniques are applied".
This module implements GRASP (Greedy Randomized Adaptive Search
Procedure): repeated randomized-greedy construction followed by local
search (redundancy elimination and 1-for-1 row swaps), keeping the best
solution across restarts.  Not guaranteed optimal, but robust on
instances too large for branch & bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.setcover.greedy import drop_redundant
from repro.setcover.matrix import CoverMatrix, disjoint_rows, popcount_rows
from repro.utils.rng import RngStream


@dataclass
class GraspResult:
    """Best solution found and restart statistics."""

    selected: list[int]
    iterations: int
    best_iteration: int


def grasp_cover(
    matrix: CoverMatrix,
    seed: int = 2001,
    iterations: int = 30,
    alpha: float = 0.3,
) -> GraspResult:
    """Run GRASP on ``matrix``.

    ``alpha`` controls greediness: candidates within ``alpha`` of the
    best marginal gain form the restricted candidate list (RCL) a random
    member of which is chosen (alpha = 0 is pure greedy, 1 pure random).
    """
    if matrix.is_empty():
        return GraspResult([], 0, 0)
    if not matrix.is_feasible():
        raise ValueError("infeasible covering instance")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    rng = RngStream(seed, "grasp")
    best: list[int] | None = None
    best_iteration = 0
    for iteration in range(iterations):
        candidate = _randomized_greedy(matrix, rng.child(iteration), alpha)
        candidate = drop_redundant(matrix, candidate)
        candidate = _swap_local_search(matrix, candidate)
        if best is None or len(candidate) < len(best):
            best = candidate
            best_iteration = iteration
    return GraspResult(sorted(best or []), iterations, best_iteration)


def _randomized_greedy(
    matrix: CoverMatrix, rng: RngStream, alpha: float
) -> list[int]:
    rows = matrix.live_row_positions()
    row_ids = matrix.row_ids[rows]
    words = matrix.bits[rows]
    uncovered = matrix.live_columns.copy()
    selected: list[int] = []
    while uncovered.any():
        gains = popcount_rows(words & uncovered)
        best_gain = int(gains.max())
        if best_gain == 0:
            raise ValueError("greedy stalled on an infeasible instance")
        threshold = best_gain - alpha * best_gain
        rcl = row_ids[(gains >= threshold) & (gains > 0)].tolist()
        choice = rng.choice(rcl)
        selected.append(choice)
        uncovered &= ~matrix.bits[matrix.row_position(choice)]
    return selected


def _swap_local_search(matrix: CoverMatrix, solution: list[int]) -> list[int]:
    """Try replacing any two selected rows with one unselected row."""
    rows = matrix.live_row_positions()
    improved = True
    current = list(solution)
    while improved:
        improved = False
        unselected = rows[~np.isin(matrix.row_ids[rows], current)]
        for drop_a in range(len(current)):
            for drop_b in range(drop_a + 1, len(current)):
                kept = [
                    current[k]
                    for k in range(len(current))
                    if k not in (drop_a, drop_b)
                ]
                covered = np.bitwise_or.reduce(
                    matrix.bits[[matrix.row_position(r) for r in kept]], axis=0
                )
                missing = matrix.live_columns & ~covered
                if not missing.any():
                    current = kept
                    improved = True
                    break
                # the first unselected row (by id) covering every missing column
                fits = disjoint_rows(~matrix.bits[unselected], missing)
                if fits.any():
                    replacement = int(matrix.row_ids[unselected[np.argmax(fits)]])
                    current = kept + [replacement]
                    improved = True
                    break
            if improved:
                break
    return current
