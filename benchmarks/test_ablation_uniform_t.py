"""Ablation: per-triplet trimmed lengths vs one shared evolution length.

Paper Section 4: storing per-triplet evolution lengths minimises test
time; sharing one T ("the largest number of clock cycles among the ones
required by each triplet") saves the per-triplet length fields in ROM.
This ablation quantifies both sides of that trade on a real solution.
"""

from __future__ import annotations

import pytest

from repro.reseeding.uniform import storage_comparison, uniformize_solution
from repro.sim.fault import FaultSimulator
from repro.tpg.registry import make_tpg


@pytest.mark.parametrize("circuit_name", ["s420", "s1238"])
def test_ablation_uniform_t(benchmark, sessions, circuit_name):
    session = sessions[circuit_name]
    pipeline_result = session.run("adder")
    trimmed = pipeline_result.trimmed

    uniform = benchmark.pedantic(
        lambda: uniformize_solution(trimmed), rounds=1, iterations=1
    )

    comparison = storage_comparison(trimmed, uniform)
    # Section 4's trade, both directions:
    assert comparison["uniform_t_bits"] <= comparison["variable_t_bits"]
    assert (
        comparison["uniform_t_test_length"] >= comparison["variable_t_test_length"]
    )
    # the shared T is exactly the slowest trimmed triplet
    assert uniform.shared_length == max(
        t.length for t in trimmed.solution.triplets
    )
    # and coverage is intact (longer evolutions only add patterns)
    tpg = make_tpg("adder", session.circuit.n_inputs)
    simulator = FaultSimulator(session.circuit)
    coverage = simulator.fault_coverage(
        uniform.solution.patterns(tpg), session.atpg_result.target_faults
    )
    assert coverage == 1.0
