"""Ablation: solver choice on the reduced cores.

The paper picks LINGO (exact ILP) for the post-reduction core and notes
that "local research and meta-heuristic techniques" would serve for
larger matrices.  This ablation runs all four solvers on identical
cores: the two exact engines must agree, and the heuristics must stay
feasible and close.
"""

from __future__ import annotations

import pytest

from repro.reseeding.initial import InitialReseedingBuilder
from repro.setcover.exact import branch_and_bound
from repro.setcover.greedy import drop_redundant, greedy_cover
from repro.setcover.heuristic import grasp_cover
from repro.setcover.ilp import ilp_cover
from repro.setcover.matrix import CoverMatrix
from repro.setcover.reduce import reduce_matrix
from repro.tpg.registry import make_tpg


@pytest.fixture(scope="module")
def core_instance(sessions, bench_config):
    """A non-trivial cyclic core from a real Detection Matrix."""
    for circuit_name in ("c499", "s1238", "s420"):
        session = sessions[circuit_name]
        builder = InitialReseedingBuilder(
            session.circuit,
            make_tpg("adder", session.circuit.n_inputs),
            seed=bench_config.seed,
            simulator=session.simulator,
        )
        initial = builder.build_from_atpg(
            session.atpg_result, evolution_length=bench_config.evolution_length
        )
        matrix = CoverMatrix.from_bool_array(initial.detection_matrix.matrix)
        reduction = reduce_matrix(matrix)
        if not reduction.closed:
            return reduction.core
    pytest.skip("every benchmark instance closed under reduction")


def test_ablation_solver_ilp(benchmark, core_instance):
    result = benchmark.pedantic(
        lambda: ilp_cover(core_instance), rounds=1, iterations=1
    )
    assert result.optimal


def test_ablation_solver_bnb(benchmark, core_instance):
    result = benchmark.pedantic(
        lambda: branch_and_bound(core_instance), rounds=1, iterations=1
    )
    assert result.optimal
    # the two exact engines agree on the optimum
    assert len(result.selected) == len(ilp_cover(core_instance).selected)


def test_ablation_solver_grasp(benchmark, core_instance):
    result = benchmark.pedantic(
        lambda: grasp_cover(core_instance, iterations=15), rounds=1, iterations=1
    )
    optimum = len(ilp_cover(core_instance).selected)
    assert core_instance.validate_solution(result.selected)
    assert optimum <= len(result.selected) <= optimum + 2


def test_ablation_solver_greedy(benchmark, core_instance):
    selected = benchmark.pedantic(
        lambda: drop_redundant(core_instance, greedy_cover(core_instance)),
        rounds=1,
        iterations=1,
    )
    optimum = len(ilp_cover(core_instance).selected)
    assert core_instance.validate_solution(selected)
    assert optimum <= len(selected) <= 2 * optimum + 1
