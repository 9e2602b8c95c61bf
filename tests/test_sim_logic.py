"""Tests for the packed true-value logic simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, Gate
from repro.sim.logic import CompiledCircuit, n_words_for, simulate_patterns, tail_mask
from repro.utils.bitvec import BitVector


class TestCompile:
    def test_sequential_rejected(self):
        circuit = Circuit("seq", ["a"], ["q"], [Gate("q", GateType.DFF, ("a",))])
        with pytest.raises(ValueError, match="sequential"):
            CompiledCircuit(circuit)

    def test_index_covers_all_nodes(self, c17):
        compiled = CompiledCircuit(c17)
        assert set(compiled.index) == set(c17.nodes)
        assert compiled.n_nodes == len(c17.nodes)

    def test_fanout_ids_consistent(self, mux_circuit):
        compiled = CompiledCircuit(mux_circuit)
        s_id = compiled.index["s"]
        fanout_names = {compiled.order[i] for i in compiled.fanout_ids[s_id]}
        assert fanout_names == {"ns", "t1"}


class TestSimulation:
    def test_mux_truth_table(self, mux_circuit):
        compiled = CompiledCircuit(mux_circuit)
        # pattern bits: a=bit0, b=bit1, s=bit2
        for value in range(8):
            pattern = BitVector(value, 3)
            out = compiled.simulate_patterns([pattern])[0]
            a, b, s = pattern.bit(0), pattern.bit(1), pattern.bit(2)
            assert out.bit(0) == (b if s else a), f"pattern {value:03b}"

    def test_c17_known_vector(self, c17):
        # All-ones input: 10 = NAND(1,3) = 0, 11 = NAND(3,6) = 0,
        # 16 = NAND(2,11) = 1, 19 = NAND(11,7) = 1,
        # 22 = NAND(10,16) = 1, 23 = NAND(16,19) = 0.
        out = simulate_patterns(c17, [BitVector.ones(5)])[0]
        assert out == BitVector.from_bits([1, 0])

    def test_xor_tree_parity(self, xor_tree):
        compiled = CompiledCircuit(xor_tree)
        for value in range(16):
            pattern = BitVector(value, 4)
            out = compiled.simulate_patterns([pattern])[0]
            assert out.bit(0) == pattern.popcount() % 2

    def test_constants(self):
        circuit = Circuit(
            "consts",
            ["a"],
            ["y0", "y1"],
            [
                Gate("k0", GateType.CONST0),
                Gate("k1", GateType.CONST1),
                Gate("y0", GateType.AND, ("a", "k0")),
                Gate("y1", GateType.OR, ("a", "k1")),
            ],
        )
        out = simulate_patterns(circuit, [BitVector(0, 1), BitVector(1, 1)])
        assert [o.bit(0) for o in out] == [0, 0]
        assert [o.bit(1) for o in out] == [1, 1]

    def test_many_patterns_cross_word_boundary(self, xor_tree):
        compiled = CompiledCircuit(xor_tree)
        patterns = [BitVector(v % 16, 4) for v in range(200)]
        outs = compiled.simulate_patterns(patterns)
        assert len(outs) == 200
        for pattern, out in zip(patterns, outs):
            assert out.bit(0) == pattern.popcount() % 2

    def test_empty_pattern_list(self, c17):
        assert CompiledCircuit(c17).simulate_patterns([]) == []

    def test_wrong_input_row_count(self, c17):
        compiled = CompiledCircuit(c17)
        with pytest.raises(ValueError, match="input rows"):
            compiled.simulate(np.zeros((3, 1), dtype=np.uint64))

    def test_simulate_words_returns_all_nodes(self, c17):
        compiled = CompiledCircuit(c17)
        words = np.zeros((5, 1), dtype=np.uint64)
        values = compiled.simulate(words)
        assert values.shape == (compiled.n_nodes, 1)


class TestCones:
    def test_output_cone_ids_sorted_topologically(self, c17):
        compiled = CompiledCircuit(c17)
        node = compiled.index["3"]  # a fanout stem in c17
        cone = compiled.output_cone_ids(node)
        assert cone == sorted(cone)
        assert node not in cone

    def test_po_cone_empty(self, c17):
        compiled = CompiledCircuit(c17)
        assert compiled.output_cone_ids(compiled.index["22"]) == []


class TestHelpers:
    def test_n_words_for(self):
        assert n_words_for(0) == 0
        assert n_words_for(1) == 1
        assert n_words_for(64) == 1
        assert n_words_for(65) == 2

    def test_tail_mask_partial_word(self):
        mask = tail_mask(3)
        assert int(mask[0]) == 0b111

    def test_tail_mask_full_word(self):
        mask = tail_mask(64)
        assert int(mask[0]) == (1 << 64) - 1

    def test_tail_mask_multi_word(self):
        mask = tail_mask(70)
        assert len(mask) == 2
        assert int(mask[1]) == 0b111111

    def test_tail_mask_zero_patterns(self):
        mask = tail_mask(0)
        assert mask.shape == (0,)
        assert mask.dtype == np.uint64

    def test_tail_mask_word_boundaries(self):
        # 64 patterns fill word 0 exactly; 65 spill a single bit into
        # word 1 — the classic off-by-one sites.
        assert int(tail_mask(64)[-1]) == (1 << 64) - 1
        mask65 = tail_mask(65)
        assert len(mask65) == 2
        assert int(mask65[1]) == 1
        assert int(tail_mask(128)[-1]) == (1 << 64) - 1
        assert int(tail_mask(129)[-1]) == 1

    def test_simulate_words_out_buffer_reuse(self, c17):
        compiled = CompiledCircuit(c17)
        words = np.ones((5, 2), dtype=np.uint64)
        buffer = np.zeros((compiled.n_nodes, 2), dtype=np.uint64)
        result = compiled.simulate(words, out=buffer)
        assert result is buffer
        np.testing.assert_array_equal(result, compiled.simulate(words))

    def test_simulate_words_out_buffer_shape_checked(self, c17):
        compiled = CompiledCircuit(c17)
        words = np.zeros((5, 1), dtype=np.uint64)
        with pytest.raises(ValueError, match="out buffer"):
            compiled.simulate(words, out=np.zeros((1, 1), dtype=np.uint64))
        # At m = 2 the buffer holds both planes side by side.
        planes = np.zeros((5, 2), dtype=np.uint64)
        with pytest.raises(ValueError, match="out buffer"):
            compiled.simulate(
                planes, 2, out=np.zeros((compiled.n_nodes, 1), dtype=np.uint64)
            )
        buffer = np.empty((compiled.n_nodes, 2), dtype=np.uint64)
        assert compiled.simulate(planes, 2, out=buffer) is buffer


class TestLevelization:
    def test_levels_increase_along_fanin(self, c17):
        compiled = CompiledCircuit(c17)
        for node_id, fanins in enumerate(compiled.gate_fanins):
            for fanin_id in fanins:
                assert compiled.node_levels[node_id] > compiled.node_levels[fanin_id]

    def test_sources_at_level_zero(self, c17):
        compiled = CompiledCircuit(c17)
        assert all(compiled.node_levels[i] == 0 for i in compiled.input_ids)

    def test_eval_groups_cover_all_gates(self, mux_circuit):
        compiled = CompiledCircuit(mux_circuit)
        grouped = sorted(
            int(node) for _, out_ids, _ in compiled.eval_groups for node in out_ids
        )
        gates = sorted(
            node_id
            for node_id, gtype in enumerate(compiled.gate_types)
            if gtype not in (GateType.INPUT, GateType.CONST0, GateType.CONST1)
        )
        assert grouped == gates

    def test_eval_groups_level_ordered(self, c17):
        compiled = CompiledCircuit(c17)
        levels = [
            int(compiled.node_levels[out_ids[0]])
            for _, out_ids, _ in compiled.eval_groups
        ]
        assert levels == sorted(levels)
