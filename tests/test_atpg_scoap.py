"""Tests for SCOAP testability measures and the SCOAP-guided backtrace."""

from __future__ import annotations

import pytest

from repro.atpg.scoap import INF, compute_scoap
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, Gate
from repro.faults.model import full_fault_list

from repro.atpg.batch_podem import PodemStatus

from oracles.podem import Podem
from oracles.reference import ReferenceSimulator


class TestControllability:
    def test_primary_inputs_cost_one(self, c17):
        measures = compute_scoap(c17)
        for net in c17.inputs:
            assert measures.cc0[net] == 1
            assert measures.cc1[net] == 1

    def test_and_gate(self, tiny_and):
        measures = compute_scoap(tiny_and)
        # CC1(y) = CC1(a) + CC1(b) + 1 = 3; CC0(y) = min(CC0) + 1 = 2
        assert measures.cc1["y"] == 3
        assert measures.cc0["y"] == 2

    def test_not_gate_swaps(self):
        circuit = Circuit("inv", ["a"], ["y"], [Gate("y", GateType.NOT, ("a",))])
        measures = compute_scoap(circuit)
        assert measures.cc0["y"] == measures.cc1["a"] + 1
        assert measures.cc1["y"] == measures.cc0["a"] + 1

    def test_nand_gate(self):
        circuit = Circuit(
            "nand", ["a", "b"], ["y"], [Gate("y", GateType.NAND, ("a", "b"))]
        )
        measures = compute_scoap(circuit)
        assert measures.cc0["y"] == 3  # all inputs to 1
        assert measures.cc1["y"] == 2  # one input to 0

    def test_xor_gate(self):
        circuit = Circuit(
            "xor", ["a", "b"], ["y"], [Gate("y", GateType.XOR, ("a", "b"))]
        )
        measures = compute_scoap(circuit)
        # parity-0 needs (0,0) or (1,1): cost 2; parity-1 likewise 2
        assert measures.cc0["y"] == 3
        assert measures.cc1["y"] == 3

    def test_constants(self):
        circuit = Circuit(
            "const",
            ["a"],
            ["y"],
            [Gate("k", GateType.CONST1, ()), Gate("y", GateType.AND, ("a", "k"))],
        )
        measures = compute_scoap(circuit)
        assert measures.cc1["k"] == 1
        assert measures.cc0["k"] >= INF  # cannot drive a CONST1 to 0

    def test_deeper_nets_cost_more(self, c17):
        measures = compute_scoap(c17)
        # outputs sit behind two NAND levels: strictly costlier than PIs
        for output in c17.outputs:
            assert measures.cc0[output] > 1
            assert measures.cc1[output] > 1

    def test_sequential_rejected(self):
        circuit = Circuit("seq", ["a"], ["q"], [Gate("q", GateType.DFF, ("a",))])
        with pytest.raises(ValueError, match="sequential"):
            compute_scoap(circuit)


class TestObservability:
    def test_outputs_cost_zero(self, c17):
        measures = compute_scoap(c17)
        for output in c17.outputs:
            assert measures.co[output] == 0

    def test_and_side_input_cost(self, tiny_and):
        measures = compute_scoap(tiny_and)
        # observing a through AND(a,b): CO(y)=0 + CC1(b) + 1 = 2
        assert measures.co["a"] == 2
        assert measures.co["b"] == 2

    def test_mux_select_observability(self, mux_circuit):
        measures = compute_scoap(mux_circuit)
        # every internal net reaches the single output
        for net in mux_circuit.nodes:
            assert measures.co[net] < INF

    def test_unobservable_dangling_net(self):
        circuit = Circuit(
            "dangling",
            ["a", "b"],
            ["y"],
            [
                Gate("dead", GateType.AND, ("a", "b")),
                Gate("y", GateType.NOT, ("a",)),
            ],
        )
        measures = compute_scoap(circuit)
        assert measures.co["dead"] >= INF

    def test_stem_takes_cheapest_branch(self, c17):
        measures = compute_scoap(c17)
        # net 3 feeds gates 10 and 11; its CO is the min over both paths
        through_10 = measures.co["10"] + measures.cc1["1"] + 1
        through_11 = measures.co["11"] + measures.cc1["6"] + 1
        assert measures.co["3"] == min(through_10, through_11)


class TestScoapGuidedPodem:
    def test_heuristic_validated(self, c17):
        with pytest.raises(ValueError, match="heuristic"):
            Podem(c17, heuristic="magic")

    @pytest.mark.parametrize("circuit_name", ["c17", "s27_scan", "mux_circuit"])
    def test_scoap_backtrace_detects_everything(self, circuit_name, request, rng):

        circuit = request.getfixturevalue(circuit_name)
        podem = Podem(circuit, heuristic="scoap")
        reference = ReferenceSimulator(circuit)
        for fault in full_fault_list(circuit):
            result = podem.generate(fault)
            assert result.status is PodemStatus.DETECTED, str(fault)
            pattern = result.cube.to_pattern(circuit.inputs, rng)
            assert reference.detects(pattern, fault)

    def test_scoap_agrees_with_level_on_redundancy(self, redundant_circuit):
        from repro.faults.model import Fault

        level = Podem(redundant_circuit, heuristic="level")
        scoap = Podem(redundant_circuit, heuristic="scoap")
        fault = Fault.stem("t", 0)
        assert level.generate(fault).status is PodemStatus.UNTESTABLE
        assert scoap.generate(fault).status is PodemStatus.UNTESTABLE
