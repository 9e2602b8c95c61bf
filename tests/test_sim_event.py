"""Tests for the reference simulator itself."""

from __future__ import annotations

import pytest

from repro.faults.model import Fault
from repro.utils.bitvec import BitVector

from oracles.reference import ReferenceSimulator


class TestReferenceSimulator:
    def test_sequential_rejected(self):
        from repro.circuit.gates import GateType
        from repro.circuit.netlist import Circuit, Gate

        circuit = Circuit("seq", ["a"], ["q"], [Gate("q", GateType.DFF, ("a",))])
        with pytest.raises(ValueError, match="sequential"):
            ReferenceSimulator(circuit)

    def test_pattern_width_checked(self, c17):
        simulator = ReferenceSimulator(c17)
        with pytest.raises(ValueError, match="width"):
            simulator.outputs(BitVector(0, 4))

    def test_node_values_complete(self, mux_circuit):
        simulator = ReferenceSimulator(mux_circuit)
        values = simulator.node_values(BitVector(0b101, 3))
        assert set(values) == set(mux_circuit.nodes)
        assert all(v in (0, 1) for v in values.values())

    def test_mux_semantics(self, mux_circuit):
        simulator = ReferenceSimulator(mux_circuit)
        for value in range(8):
            pattern = BitVector(value, 3)
            a, b, s = pattern.bit(0), pattern.bit(1), pattern.bit(2)
            assert simulator.outputs(pattern).bit(0) == (b if s else a)

    def test_stem_fault_injection(self, tiny_and):
        simulator = ReferenceSimulator(tiny_and)
        pattern = BitVector.from_bits([1, 1])
        assert simulator.outputs(pattern).bit(0) == 1
        assert simulator.outputs(pattern, Fault.stem("y", 0)).bit(0) == 0

    def test_branch_fault_only_affects_target_gate(self, c17):
        simulator = ReferenceSimulator(c17)
        pattern = BitVector.ones(5)
        fault = Fault.branch("3", "11", 0, 0)
        values = simulator.node_values(pattern, fault)
        # gate 10 = NAND(1, 3) still sees the true value of net 3
        assert values["10"] == 0  # NAND(1,1) = 0
        # gate 11 = NAND(3, 6) sees the stuck 0 on its pin 0
        assert values["11"] == 1  # NAND(0,1) = 1

    def test_fault_on_pi_net(self, tiny_and):
        simulator = ReferenceSimulator(tiny_and)
        pattern = BitVector.from_bits([0, 1])
        assert simulator.detects(pattern, Fault.stem("a", 1))

    def test_detects_requires_observation(self, mux_circuit):
        simulator = ReferenceSimulator(mux_circuit)
        # s=1 selects b; a's value is unobservable
        pattern = BitVector.from_bits([0, 1, 1])
        assert not simulator.detects(pattern, Fault.stem("a", 1))

    def test_detected_set(self, tiny_and):
        simulator = ReferenceSimulator(tiny_and)
        patterns = [BitVector(v, 2) for v in range(4)]
        faults = [Fault.stem("y", 0), Fault.stem("y", 1)]
        assert simulator.detected_set(patterns, faults) == set(faults)
