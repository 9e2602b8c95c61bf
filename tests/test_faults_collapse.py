"""Tests for structural equivalence fault collapsing."""

from __future__ import annotations

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, Gate
from repro.faults.collapse import collapse_faults, equivalence_classes
from repro.faults.model import Fault, full_fault_list
from repro.utils.bitvec import BitVector

from oracles.reference import ReferenceSimulator


class TestGateLocalRules:
    def test_and_gate_sa0_class(self):
        circuit = Circuit(
            "and2", ["a", "b"], ["y"], [Gate("y", GateType.AND, ("a", "b"))]
        )
        classes = equivalence_classes(circuit)
        # a/SA0 ~ b/SA0 ~ y/SA0 form one class of 3
        rep = next(r for r, members in classes.items() if Fault.stem("y", 0) in members)
        assert set(classes[rep]) == {
            Fault.stem("a", 0),
            Fault.stem("b", 0),
            Fault.stem("y", 0),
        }

    def test_nand_gate_mixed_class(self):
        circuit = Circuit(
            "nand2", ["a", "b"], ["y"], [Gate("y", GateType.NAND, ("a", "b"))]
        )
        classes = equivalence_classes(circuit)
        rep = next(r for r, members in classes.items() if Fault.stem("y", 1) in members)
        assert set(classes[rep]) == {
            Fault.stem("a", 0),
            Fault.stem("b", 0),
            Fault.stem("y", 1),
        }

    def test_inverter_chain_collapses_fully(self):
        circuit = Circuit(
            "chain",
            ["a"],
            ["y"],
            [Gate("m", GateType.NOT, ("a",)), Gate("y", GateType.NOT, ("m",))],
        )
        collapsed = collapse_faults(circuit)
        # 6 faults fall into 2 classes (one per polarity along the chain)
        assert len(collapsed) == 2

    def test_xor_gate_no_collapse(self):
        circuit = Circuit(
            "xor2", ["a", "b"], ["y"], [Gate("y", GateType.XOR, ("a", "b"))]
        )
        assert len(collapse_faults(circuit)) == 6

    def test_c17_collapses_to_known_count(self, c17):
        # c17's textbook collapsed fault count under stem+branch modelling
        assert len(collapse_faults(c17)) == 22

    def test_po_that_is_also_fanin_not_collapsed_into_gate(self):
        """Regression (found by hypothesis): a net that is both a primary
        output and a gate fanin is directly observable, so its stem
        fault must NOT be identified with the gate's input-pin fault —
        g4/SA0 here is detectable at the PO even though the AND output
        g5/SA0 masks it."""
        circuit = Circuit(
            "po_fanin",
            ["a", "b"],
            ["m", "y"],  # m is a PO *and* feeds y
            [
                Gate("m", GateType.OR, ("a", "b")),
                Gate("y", GateType.AND, ("m", "a")),
            ],
        )
        classes = equivalence_classes(circuit)
        stem_class = next(
            members
            for members in classes.values()
            if Fault.stem("m", 0) in members
        )
        assert Fault.stem("y", 0) not in stem_class
        # the pin fault exists as a separate branch fault in the universe
        assert Fault.branch("m", "y", 0, 0) in full_fault_list(circuit)


class TestCollapseProperties:
    def test_representatives_partition_universe(self, mux_circuit):
        universe = set(full_fault_list(mux_circuit))
        classes = equivalence_classes(mux_circuit)
        members = [f for cls in classes.values() for f in cls]
        assert len(members) == len(universe)
        assert set(members) == universe

    def test_representative_is_class_minimum(self, c17):
        for rep, members in equivalence_classes(c17).items():
            assert rep == min(members)

    def test_collapse_subset_of_universe(self, c17):
        universe = set(full_fault_list(c17))
        assert set(collapse_faults(c17)) <= universe

    def test_explicit_fault_list_respected(self, c17):
        subset = [Fault.stem("22", 0), Fault.stem("22", 1)]
        collapsed = collapse_faults(c17, subset)
        assert set(collapsed) == set(subset)

    def test_equivalence_is_semantic(self, c17):
        """Every pair in a class is detected by exactly the same patterns
        (exhaustive check over all 32 c17 input patterns)."""
        simulator = ReferenceSimulator(c17)
        patterns = [BitVector(v, 5) for v in range(32)]
        for members in equivalence_classes(c17).values():
            signatures = []
            for fault in members:
                signatures.append(
                    tuple(simulator.detects(p, fault) for p in patterns)
                )
            assert all(s == signatures[0] for s in signatures), members
