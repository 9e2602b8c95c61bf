"""Tests for the Gate/Circuit netlist model."""

from __future__ import annotations

import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, Gate


class TestGate:
    def test_fanin_arity_enforced_not(self):
        with pytest.raises(ValueError):
            Gate("g", GateType.NOT, ("a", "b"))

    def test_fanin_arity_enforced_and(self):
        with pytest.raises(ValueError):
            Gate("g", GateType.AND, ())

    def test_wide_and_allowed(self):
        gate = Gate("g", GateType.AND, tuple(f"i{k}" for k in range(8)))
        assert len(gate.fanins) == 8

    def test_gate_is_frozen(self):
        gate = Gate("g", GateType.AND, ("a", "b"))
        with pytest.raises(AttributeError):
            gate.name = "h"


class TestCircuitConstruction:
    def test_duplicate_gate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Circuit(
                "c",
                ["a"],
                ["y"],
                [Gate("y", GateType.BUF, ("a",)), Gate("y", GateType.NOT, ("a",))],
            )

    def test_duplicate_input_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Circuit("c", ["a", "a"], ["a"], [])

    def test_net_driven_twice_rejected(self):
        with pytest.raises(ValueError, match="input and gate output"):
            Circuit("c", ["a"], ["a"], [Gate("a", GateType.CONST0)])

    def test_input_gate_type_rejected_in_gates(self):
        with pytest.raises(ValueError, match="INPUT"):
            Circuit("c", [], ["y"], [Gate("y", GateType.INPUT)])

    def test_node_type_lookup(self, mux_circuit):
        assert mux_circuit.node_type("a") is GateType.INPUT
        assert mux_circuit.node_type("ns") is GateType.NOT
        with pytest.raises(KeyError):
            mux_circuit.node_type("nope")

    def test_counts(self, mux_circuit):
        assert mux_circuit.n_inputs == 3
        assert mux_circuit.n_outputs == 1
        assert mux_circuit.n_gates == 4


class TestTopology:
    def test_topo_order_respects_dependencies(self, mux_circuit):
        order = mux_circuit.topo_order()
        position = {name: i for i, name in enumerate(order)}
        for gate in mux_circuit.gates.values():
            for fanin in gate.fanins:
                assert position[fanin] < position[gate.name]

    def test_topo_order_complete(self, mux_circuit):
        assert sorted(mux_circuit.topo_order()) == sorted(mux_circuit.nodes)

    def test_cycle_detected(self):
        circuit = Circuit(
            "cyc",
            ["a"],
            ["x"],
            [
                Gate("x", GateType.AND, ("a", "y")),
                Gate("y", GateType.BUF, ("x",)),
            ],
        )
        with pytest.raises(ValueError, match="cycle"):
            circuit.topo_order()

    def test_dff_breaks_cycle(self):
        # A sequential loop through a DFF is legal.
        circuit = Circuit(
            "seq",
            ["a"],
            ["x"],
            [
                Gate("x", GateType.AND, ("a", "q")),
                Gate("q", GateType.DFF, ("x",)),
            ],
        )
        order = circuit.topo_order()
        assert set(order) == {"a", "x", "q"}

    def test_fanouts(self, mux_circuit):
        assert set(mux_circuit.fanouts("s")) == {"ns", "t1"}
        assert mux_circuit.fanouts("y") == ()

    def test_levels_and_depth(self, mux_circuit):
        levels = mux_circuit.levels()
        assert levels["a"] == 0
        assert levels["ns"] == 1
        assert levels["t0"] == 2
        assert levels["y"] == 3
        assert mux_circuit.depth() == 3

    def test_is_sequential(self, mux_circuit, s27_scan):
        assert not mux_circuit.is_sequential()
        assert not s27_scan.is_sequential()  # full-scan view is combinational


class TestStatsAndCopy:
    def test_stats_keys(self, c17):
        stats = c17.stats()
        assert stats["inputs"] == 5
        assert stats["outputs"] == 2
        assert stats["gates"] == 6
        assert stats["n_nand"] == 6
        assert stats["depth"] == 3

    def test_copy_is_structurally_equal_but_independent(self, mux_circuit):
        clone = mux_circuit.copy("clone")
        assert clone.name == "clone"
        assert clone.inputs == mux_circuit.inputs
        assert set(clone.gates) == set(mux_circuit.gates)
        clone.inputs.append("extra")
        assert "extra" not in mux_circuit.inputs

    def test_repr(self, c17):
        assert "c17" in repr(c17)
