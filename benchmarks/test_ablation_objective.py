"""Ablation: covering objective — minimum triplets vs minimum test length.

The paper minimises reseeding count (the area proxy).  The weighted
covering extension can instead minimise the summed useful evolution
length of the selected triplets (a test-time proxy).  This ablation runs
both objectives on the same Detection Matrix and checks the expected
dominance relations: each objective is at least as good as the other on
its own metric.
"""

from __future__ import annotations

import pytest

from repro.reseeding.initial import InitialReseedingBuilder
from repro.setcover.matrix import CoverMatrix
from repro.setcover.solve import solve_cover
from repro.tpg.registry import make_tpg


@pytest.fixture(scope="module")
def weighted_instance(sessions, bench_config):
    session = sessions["s1238"]
    tpg = make_tpg("adder", session.circuit.n_inputs)
    builder = InitialReseedingBuilder(
        session.circuit, tpg, seed=bench_config.seed, simulator=session.simulator
    )
    initial = builder.build_from_atpg(
        session.atpg_result, evolution_length=bench_config.evolution_length
    )
    matrix = CoverMatrix.from_bool_array(initial.detection_matrix.matrix)
    # Row cost: the triplet's useful evolution length in isolation
    # (1 + last first-detection index over the full fault list).
    costs: dict[int, float] = {}
    for row, triplet in enumerate(initial.triplets):
        patterns = triplet.test_set(tpg)
        hits = session.simulator.first_detection_index(
            patterns, session.atpg_result.target_faults
        )
        useful = [i for i in hits if i is not None]
        costs[row] = float(1 + max(useful)) if useful else 1.0
    return matrix, costs


def test_ablation_objective_cardinality(benchmark, weighted_instance):
    matrix, costs = weighted_instance
    solution = benchmark.pedantic(
        lambda: solve_cover(matrix, method="ilp"), rounds=1, iterations=1
    )
    assert solution.stats.optimal
    weighted = solve_cover(matrix, method="ilp", costs=costs)
    # cardinality objective picks the fewest triplets...
    assert solution.n_selected <= weighted.n_selected


def test_ablation_objective_weighted_length(benchmark, weighted_instance):
    matrix, costs = weighted_instance
    solution = benchmark.pedantic(
        lambda: solve_cover(matrix, method="ilp", costs=costs),
        rounds=1,
        iterations=1,
    )
    assert solution.stats.optimal
    cardinality = solve_cover(matrix, method="ilp")
    cost_of = lambda sel: sum(costs[r] for r in sel)  # noqa: E731
    # ...while the weighted objective wins on summed useful length.
    assert cost_of(solution.selected) <= cost_of(cardinality.selected)
