"""Tests for the uniform-T (shared evolution length) refinement."""

from __future__ import annotations


from repro.atpg.engine import AtpgEngine
from repro.circuits import load_circuit
from repro.reseeding import (
    ReseedingSolution,
    Triplet,
    TrimmedSolution,
    build_detection_matrix,
    storage_comparison,
    trim_solution,
    uniformize_solution,
)
from repro.sim.fault import FaultSimulator
from repro.tpg import AdderAccumulator
from repro.utils.bitvec import BitVector


def _trimmed(lengths):
    triplets = [
        Triplet(BitVector(i, 8), BitVector(1, 8), length)
        for i, length in enumerate(lengths)
    ]
    return TrimmedSolution(
        ReseedingSolution.from_list(triplets),
        tuple(1 for _ in lengths),
        (),
    )


class TestUniformize:
    def test_shared_length_is_max(self):
        uniform = uniformize_solution(_trimmed([3, 9, 5]))
        assert uniform.shared_length == 9
        assert all(t.length == 9 for t in uniform.solution.triplets)

    def test_test_length_product(self):
        uniform = uniformize_solution(_trimmed([3, 9, 5]))
        assert uniform.test_length == 3 * 9

    def test_empty_solution(self):
        uniform = uniformize_solution(_trimmed([]))
        assert uniform.n_triplets == 0
        assert uniform.test_length == 0

    def test_storage_bits_single_length_field(self):
        trimmed = _trimmed([3, 9, 5])
        uniform = uniformize_solution(trimmed)
        # per-triplet: 8 (delta) + 8 (sigma); one shared 4-bit field for 9
        assert uniform.storage_bits() == 3 * 16 + 4

    def test_area_saving_vs_variable_t(self):
        """Section 4's claim: dropping per-triplet length fields saves
        ROM bits whenever there is more than one triplet."""
        trimmed = _trimmed([3, 9, 5])
        uniform = uniformize_solution(trimmed)
        comparison = storage_comparison(trimmed, uniform)
        assert comparison["uniform_t_bits"] < comparison["variable_t_bits"]
        # paid for by a longer (or equal) global test
        assert (
            comparison["uniform_t_test_length"]
            >= comparison["variable_t_test_length"]
        )

    def test_coverage_preserved_end_to_end(self):
        """Running every triplet longer can only add patterns, so the
        uniform solution detects everything the trimmed one did."""
        circuit = load_circuit("c17")
        engine = AtpgEngine(circuit, seed=5)
        atpg = engine.run()
        tpg = AdderAccumulator(circuit.n_inputs)
        triplets = [Triplet(p, BitVector(1, 5), 8) for p in atpg.test_set]
        matrix = build_detection_matrix(
            circuit, tpg, triplets, atpg.target_faults, engine.simulator
        )
        trimmed = trim_solution(matrix, range(len(triplets)))
        uniform = uniformize_solution(trimmed)
        simulator = FaultSimulator(circuit)
        patterns = uniform.solution.patterns(tpg)
        assert simulator.fault_coverage(patterns, atpg.target_faults) == 1.0
