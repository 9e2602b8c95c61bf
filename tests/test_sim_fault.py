"""Tests for the PPSFP fault simulator."""

from __future__ import annotations

import pytest

from repro.faults.model import Fault, full_fault_list
from repro.sim.fault import FaultSimulator
from repro.utils.bitvec import BitVector

from oracles.reference import ReferenceSimulator


class TestDetection:
    def test_and_gate_classic(self, tiny_and):
        simulator = FaultSimulator(tiny_and)
        # pattern a=1,b=1 detects y/SA0; a=1,b=0 detects b/SA1 and y/SA1
        p11 = BitVector.from_bits([1, 1])
        p10 = BitVector.from_bits([1, 0])
        assert simulator.detected([p11], [Fault.stem("y", 0)]) == [True]
        assert simulator.detected([p11], [Fault.stem("y", 1)]) == [False]
        assert simulator.detected([p10], [Fault.stem("b", 1)]) == [True]
        assert simulator.detected([p10], [Fault.stem("a", 0)]) == [False]

    def test_undetectable_without_activation(self, tiny_and):
        simulator = FaultSimulator(tiny_and)
        # a=0,b=0: y is 0 with or without y/SA0
        assert simulator.detected([BitVector.zeros(2)], [Fault.stem("y", 0)]) == [False]

    def test_branch_fault_differs_from_stem(self, c17):
        """Branch 3->11 stuck differs from stem 3 stuck: stem affects both
        NAND(1,3) and NAND(3,6) readers."""
        simulator = FaultSimulator(c17)
        patterns = [BitVector(v, 5) for v in range(32)]
        stem = Fault.stem("3", 0)
        branch = Fault.branch("3", "11", 0, 0)
        stem_sig = simulator.detection_matrix(patterns, [stem])[:, 0]
        branch_sig = simulator.detection_matrix(patterns, [branch])[:, 0]
        assert stem_sig.any()
        assert branch_sig.any()
        assert (stem_sig != branch_sig).any()

    def test_redundant_fault_never_detected(self, redundant_circuit):
        simulator = FaultSimulator(redundant_circuit)
        patterns = [BitVector(v, 2) for v in range(4)]
        # y = a OR (a AND b): t/SA0 is redundant (y == a regardless)
        assert simulator.detected(patterns, [Fault.stem("t", 0)]) == [False]


class TestAgainstReference:
    @pytest.mark.parametrize("circuit_name", ["c17", "s27_scan", "mux_circuit"])
    def test_matrix_matches_reference(self, circuit_name, request, rng):
        circuit = request.getfixturevalue(circuit_name)
        faults = full_fault_list(circuit)
        patterns = [BitVector.random(circuit.n_inputs, rng) for _ in range(100)]
        fast = FaultSimulator(circuit)
        slow = ReferenceSimulator(circuit)
        matrix = fast.detection_matrix(patterns, faults)
        for fault_index, fault in enumerate(faults):
            for pattern_index, pattern in enumerate(patterns):
                assert matrix[pattern_index, fault_index] == slow.detects(
                    pattern, fault
                ), f"{fault} pattern {pattern_index}"


class TestAggregates:
    def test_matrix_shape(self, c17):
        simulator = FaultSimulator(c17)
        faults = full_fault_list(c17)
        patterns = [BitVector(v, 5) for v in range(5)]
        matrix = simulator.detection_matrix(patterns, faults)
        assert matrix.shape == (5, len(faults))

    def test_empty_patterns(self, c17):
        simulator = FaultSimulator(c17)
        faults = full_fault_list(c17)
        assert simulator.detection_matrix([], faults).shape == (0, len(faults))
        assert simulator.detected([], faults) == [False] * len(faults)
        assert simulator.first_detection_index([], faults) == [None] * len(faults)

    def test_first_detection_index(self, tiny_and):
        simulator = FaultSimulator(tiny_and)
        patterns = [
            BitVector.from_bits([0, 0]),
            BitVector.from_bits([1, 1]),
            BitVector.from_bits([1, 0]),
        ]
        fault = Fault.stem("y", 0)  # first detected by pattern 1 (a=b=1)
        assert simulator.first_detection_index(patterns, [fault]) == [1]

    def test_first_detection_index_none_when_undetected(self, redundant_circuit):
        simulator = FaultSimulator(redundant_circuit)
        patterns = [BitVector(v, 2) for v in range(4)]
        assert simulator.first_detection_index(patterns, [Fault.stem("t", 0)]) == [None]

    def test_first_detection_beyond_word_boundary(self, tiny_and):
        simulator = FaultSimulator(tiny_and)
        patterns = [BitVector.zeros(2)] * 100 + [BitVector.ones(2)]
        assert simulator.first_detection_index(patterns, [Fault.stem("y", 0)]) == [100]

    def test_fault_coverage_range(self, c17, rng):
        simulator = FaultSimulator(c17)
        faults = full_fault_list(c17)
        patterns = [BitVector.random(5, rng) for _ in range(8)]
        coverage = simulator.fault_coverage(patterns, faults)
        assert 0.0 < coverage <= 1.0

    def test_fault_coverage_empty_faults(self, c17):
        assert FaultSimulator(c17).fault_coverage([], []) == 1.0

    def test_tail_patterns_not_ghost_detected(self, tiny_and):
        """Pattern slots beyond len(patterns) are zero-filled in the last
        word; y/SA1 IS detected by the all-zero ghost patterns, so an
        unmasked simulator would report a spurious detection here."""
        simulator = FaultSimulator(tiny_and)
        p11 = BitVector.from_bits([1, 1])  # does not detect y/SA1
        assert simulator.detected([p11], [Fault.stem("y", 1)]) == [False]
        assert simulator.first_detection_index([p11], [Fault.stem("y", 1)]) == [None]
