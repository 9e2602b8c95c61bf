"""LP-relaxation-based exact ILP solver — the LINGO stand-in.

The paper post-processes the reduced matrix with LINGO, a commercial
linear/integer programming package.  This module provides the same
capability: branch & bound driven by the LP relaxation (solved with
``scipy.optimize.linprog``), branching on the most fractional variable.
The LP optimum is a valid lower bound and its ceiling frequently closes
the gap immediately; integral LP solutions end the search at the root,
which is what happens on most reseeding cores.

A pure-combinatorial fallback (:mod:`repro.setcover.exact`) is used when
scipy is unavailable; both give the same optimum (property-tested).
"""

from __future__ import annotations

import functools
import importlib.util
import math
from dataclasses import dataclass

import numpy as np

from repro.setcover.exact import branch_and_bound
from repro.setcover.greedy import drop_redundant, greedy_cover
from repro.setcover.matrix import CoverMatrix

_FRACTIONAL_EPS = 1e-6


@dataclass
class IlpResult:
    """Selected rows, optimality flag, and LP statistics."""

    selected: list[int]
    optimal: bool
    lp_nodes: int
    root_lp_bound: float


@functools.cache
def load_linprog():
    """``scipy.optimize.linprog``, or None when scipy is not installed.

    scipy is an install dependency, but importing it costs more than the
    rest of ``import repro``, so it is imported on the first call rather
    than with this module; the probe finds it without importing it.
    """
    if importlib.util.find_spec("scipy") is None:  # pragma: no cover
        return None
    from scipy.optimize import linprog

    return linprog


def ilp_cover(
    matrix: CoverMatrix,
    node_limit: int = 10_000,
    costs: dict[int, float] | None = None,
) -> IlpResult:
    """Minimum-cost cover via LP-based branch & bound (unit costs by
    default, i.e. minimum cardinality)."""
    if matrix.is_empty():
        return IlpResult([], True, 0, 0.0)
    if not matrix.is_feasible():
        raise ValueError("infeasible covering instance")
    linprog = load_linprog()
    if linprog is None:  # pragma: no cover
        result = branch_and_bound(matrix, costs=costs)
        return IlpResult(result.selected, result.optimal, result.nodes, 0.0)

    row_ids = matrix.alive_row_ids()
    column_ids = matrix.alive_column_ids()
    # constraint matrix A (columns x rows): A @ x >= 1
    a_matrix = matrix.to_bool_array().T.astype(float)
    if costs is None:
        cost = np.ones(len(row_ids))
    else:
        if any(costs.get(r, 0) <= 0 for r in row_ids):
            raise ValueError("all row costs must be present and positive")
        cost = np.array([float(costs[r]) for r in row_ids])

    def total_cost(rows: list[int]) -> float:
        if costs is None:
            return float(len(rows))
        return sum(costs[r] for r in rows)

    incumbent = drop_redundant(matrix, greedy_cover(matrix, costs))
    best = [total_cost(incumbent), sorted(incumbent)]
    nodes = 0
    root_bound = 0.0

    def solve_lp(fixed_one: frozenset[int], fixed_zero: frozenset[int]):
        bounds = []
        for row_id in row_ids:
            if row_id in fixed_one:
                bounds.append((1.0, 1.0))
            elif row_id in fixed_zero:
                bounds.append((0.0, 0.0))
            else:
                bounds.append((0.0, 1.0))
        result = linprog(
            cost,
            A_ub=-a_matrix,
            b_ub=-np.ones(len(column_ids)),
            bounds=bounds,
            method="highs",
        )
        return result

    stack: list[tuple[frozenset[int], frozenset[int]]] = [
        (frozenset(), frozenset())
    ]
    first = True
    while stack:
        fixed_one, fixed_zero = stack.pop()
        nodes += 1
        if nodes > node_limit:
            return IlpResult(best[1], False, nodes, root_bound)
        lp = solve_lp(fixed_one, fixed_zero)
        if not lp.success:
            continue  # infeasible subproblem (some column forced uncovered)
        if first:
            root_bound = float(lp.fun)
            first = False
        # With unit costs the optimum is integral, so the LP bound can be
        # rounded up; with general costs use the raw LP value.
        lp_bound = (
            math.ceil(lp.fun - _FRACTIONAL_EPS) if costs is None else lp.fun
        )
        if lp_bound >= best[0] - _FRACTIONAL_EPS:
            continue  # bound: cannot beat the incumbent
        x = lp.x
        fractional = [
            (abs(value - 0.5), index)
            for index, value in enumerate(x)
            if _FRACTIONAL_EPS < value < 1.0 - _FRACTIONAL_EPS
        ]
        if not fractional:
            selected = [
                row_ids[index]
                for index, value in enumerate(x)
                if value > 1.0 - _FRACTIONAL_EPS
            ]
            selected = drop_redundant(matrix, selected)
            if total_cost(selected) < best[0]:
                best[0] = total_cost(selected)
                best[1] = sorted(selected)
            continue
        # branch on the most fractional variable (closest to 0.5)
        _, branch_index = min(fractional)
        branch_row = row_ids[branch_index]
        stack.append((fixed_one, fixed_zero | {branch_row}))
        stack.append((fixed_one | {branch_row}, fixed_zero))
    return IlpResult(best[1], True, nodes, root_bound)
