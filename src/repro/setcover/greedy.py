"""Greedy set covering (Chvatal's ln-approximation), optionally weighted.

Used as the upper-bound seed for branch & bound and as the fallback for
very large instances.  With ``costs``, rows are ranked by marginal
coverage per unit cost (the weighted-greedy classic).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.setcover.matrix import CoverMatrix, popcount_rows


def greedy_cover(
    matrix: CoverMatrix, costs: Mapping[int, float] | None = None
) -> list[int]:
    """Select rows by maximum marginal coverage (per unit cost when
    ``costs`` is given) until all columns are covered.  Ties break on
    the smaller row id (deterministic).

    Raises :class:`ValueError` on infeasible instances.
    """
    if not matrix.is_feasible():
        raise ValueError("infeasible covering instance")
    rows = matrix.live_row_positions()
    row_ids = matrix.row_ids[rows]
    words = matrix.bits[rows]
    uncovered = matrix.live_columns.copy()
    selected: list[int] = []
    while uncovered.any():
        gains = popcount_rows(words & uncovered)
        useful = gains > 0
        if not useful.any():
            raise ValueError("greedy stalled on an infeasible instance")
        if costs is None:
            scores = gains.astype(float)
        else:
            cost = np.array([float(costs[r]) for r in row_ids[useful].tolist()])
            if (cost <= 0).any():
                bad = int(np.argmax(cost <= 0))
                raise ValueError(
                    f"row {row_ids[useful][bad]} has non-positive cost {cost[bad]}"
                )
            scores = np.zeros(len(rows))
            scores[useful] = gains[useful] / cost
        best = int(np.argmax(scores))  # first maximum: the smallest id
        selected.append(int(row_ids[best]))
        uncovered &= ~words[best]
    return selected


def drop_redundant(matrix: CoverMatrix, selected: list[int]) -> list[int]:
    """Remove rows that are redundant within a feasible solution
    (every column they uniquely covered is covered by another selected
    row).  Scans in reverse selection order, so late greedy picks are
    dropped first."""
    chosen = list(selected)
    for row_id in list(reversed(selected)):
        trial = [r for r in chosen if r != row_id]
        if trial and matrix.validate_solution(trial):
            chosen = trial
    return chosen
