"""Tests for the PODEM deterministic test generator."""

from __future__ import annotations

import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, Gate
from repro.faults.model import Fault, full_fault_list

from repro.atpg.batch_podem import PodemStatus, TestCube

from oracles.podem import Podem
from oracles.reference import ReferenceSimulator


def _verify_cube(circuit, fault, cube, rng):
    """A returned cube must detect the fault for *any* X fill."""
    simulator = ReferenceSimulator(circuit)
    for _ in range(4):
        pattern = cube.to_pattern(circuit.inputs, rng)
        assert simulator.detects(pattern, fault), f"{fault} cube {cube} fill failed"


class TestCubeBehaviour:
    def test_to_pattern_respects_assignments(self, rng):
        cube = TestCube.from_dict({"a": 1, "c": 0})
        pattern = cube.to_pattern(["a", "b", "c"], rng)
        assert pattern.bit(0) == 1
        assert pattern.bit(2) == 0

    def test_as_dict_roundtrip(self):
        assignments = {"a": 1, "b": 0}
        assert TestCube.from_dict(assignments).as_dict() == assignments

    def test_n_assigned(self):
        assert TestCube.from_dict({"a": 1}).n_assigned == 1


class TestPodemOnKnownCircuits:
    def test_and_gate_all_faults(self, tiny_and, rng):
        podem = Podem(tiny_and)
        for fault in full_fault_list(tiny_and):
            result = podem.generate(fault)
            assert result.status is PodemStatus.DETECTED, str(fault)
            _verify_cube(tiny_and, fault, result.cube, rng)

    def test_c17_all_faults_detected(self, c17, rng):
        podem = Podem(c17)
        for fault in full_fault_list(c17):
            result = podem.generate(fault)
            assert result.status is PodemStatus.DETECTED, str(fault)
            _verify_cube(c17, fault, result.cube, rng)

    def test_mux_all_faults(self, mux_circuit, rng):
        podem = Podem(mux_circuit)
        for fault in full_fault_list(mux_circuit):
            result = podem.generate(fault)
            assert result.status is PodemStatus.DETECTED, str(fault)
            _verify_cube(mux_circuit, fault, result.cube, rng)

    def test_xor_tree_all_faults(self, xor_tree, rng):
        podem = Podem(xor_tree)
        for fault in full_fault_list(xor_tree):
            result = podem.generate(fault)
            assert result.status is PodemStatus.DETECTED, str(fault)
            _verify_cube(xor_tree, fault, result.cube, rng)

    def test_s27_scan_all_faults(self, s27_scan, rng):
        podem = Podem(s27_scan)
        for fault in full_fault_list(s27_scan):
            result = podem.generate(fault)
            assert result.status is PodemStatus.DETECTED, str(fault)
            _verify_cube(s27_scan, fault, result.cube, rng)


class TestRedundancy:
    def test_redundant_fault_proved_untestable(self, redundant_circuit):
        # y = a OR (a AND b): t/SA0 cannot change y
        podem = Podem(redundant_circuit)
        result = podem.generate(Fault.stem("t", 0))
        assert result.status is PodemStatus.UNTESTABLE

    def test_testable_faults_of_redundant_circuit(self, redundant_circuit, rng):
        # y = a OR (a AND b) simplifies to y = a, so only faults on the
        # a-to-y path are testable; all b faults are redundant.
        podem = Podem(redundant_circuit)
        for fault in [Fault.stem("y", 0), Fault.stem("y", 1), Fault.stem("a", 0)]:
            result = podem.generate(fault)
            assert result.status is PodemStatus.DETECTED, str(fault)
            _verify_cube(redundant_circuit, fault, result.cube, rng)

    def test_unobservable_gate_untestable(self):
        # dead-end logic: g drives nothing (circuit allows it here)
        circuit = Circuit(
            "deadend",
            ["a", "b"],
            ["y"],
            [
                Gate("g", GateType.AND, ("a", "b")),
                Gate("y", GateType.NOT, ("a",)),
            ],
        )
        result = Podem(circuit).generate(Fault.stem("g", 0))
        assert result.status is PodemStatus.UNTESTABLE

    def test_constant_node_stuck_at_same_value_untestable(self):
        circuit = Circuit(
            "const",
            ["a"],
            ["y"],
            [
                Gate("k", GateType.CONST0),
                Gate("y", GateType.OR, ("a", "k")),
            ],
        )
        result = Podem(circuit).generate(Fault.stem("k", 0))
        assert result.status is PodemStatus.UNTESTABLE


class TestBranchFaults:
    def test_branch_fault_detected(self, c17, rng):
        podem = Podem(c17)
        fault = Fault.branch("3", "11", 0, 0)
        result = podem.generate(fault)
        assert result.status is PodemStatus.DETECTED
        _verify_cube(c17, fault, result.cube, rng)

    def test_all_c17_branch_faults(self, c17, rng):
        podem = Podem(c17)
        for fault in full_fault_list(c17):
            if not fault.site.is_branch:
                continue
            result = podem.generate(fault)
            assert result.status is PodemStatus.DETECTED, str(fault)
            _verify_cube(c17, fault, result.cube, rng)


class TestErrorsAndLimits:
    def test_unknown_net_rejected(self, c17):
        with pytest.raises(KeyError):
            Podem(c17).generate(Fault.stem("ghost", 0))

    def test_bad_branch_site_rejected(self, c17):
        with pytest.raises(KeyError):
            Podem(c17).generate(Fault.branch("3", "22", 0, 0))

    def test_sequential_circuit_rejected(self):
        circuit = Circuit("seq", ["a"], ["q"], [Gate("q", GateType.DFF, ("a",))])
        with pytest.raises(ValueError, match="sequential"):
            Podem(circuit)

    def test_result_counters_populated(self, c17):
        result = Podem(c17).generate(Fault.stem("22", 0))
        assert result.decisions >= 1
        assert result.backtracks >= 0

    def test_generate_is_reusable(self, c17, rng):
        """One Podem instance must handle many faults back to back."""
        podem = Podem(c17)
        faults = full_fault_list(c17)
        first_pass = [podem.generate(f).status for f in faults]
        second_pass = [podem.generate(f).status for f in faults]
        assert first_pass == second_pass
