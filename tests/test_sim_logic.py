"""Tests for the packed true-value logic simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, Gate
from repro.sim.logic import (
    PAD_LIMIT,
    CompiledCircuit,
    n_words_for,
    simulate_patterns,
    tail_mask,
)
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
        # The buffer holds the node rows, then the two identity rows;
        # the result is a view of its node rows.
        compiled = CompiledCircuit(c17)
        words = np.ones((5, 2), dtype=np.uint64)
        buffer = np.zeros((compiled.n_rows, 2), dtype=np.uint64)
        result = compiled.simulate(words, out=buffer)
        assert result.base is buffer
        assert result.shape == (compiled.n_nodes, 2)
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
                planes, 2, out=np.zeros((compiled.n_rows, 1), dtype=np.uint64)
            )
        # Node rows alone leave no room for the identity rows.
        with pytest.raises(ValueError, match="out buffer"):
            compiled.simulate(
                planes, 2, out=np.zeros((compiled.n_nodes, 2), dtype=np.uint64)
            )
        buffer = np.empty((compiled.n_rows, 2), dtype=np.uint64)
        assert compiled.simulate(planes, 2, out=buffer).base is buffer


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
        # Every gate sits in exactly one fold bucket of the plan.
        compiled = CompiledCircuit(mux_circuit)
        grouped = sorted(
            int(node)
            for _, buckets in compiled.plan
            for _, _, out_ids, _ in buckets
            for node in out_ids
        )
        gates = sorted(
            node_id
            for node_id, gtype in enumerate(compiled.gate_types)
            if gtype not in (GateType.INPUT, GateType.CONST0, GateType.CONST1)
        )
        assert grouped == gates

    def test_eval_groups_level_ordered(self, c17):
        # Levels ascend, and every gate of a bucket sits on its level.
        compiled = CompiledCircuit(c17)
        levels = [level for level, _ in compiled.plan]
        assert levels == sorted(set(levels))
        for level, buckets in compiled.plan:
            for _, _, out_ids, _ in buckets:
                assert (compiled.node_levels[out_ids] == level).all()


def _assert_bucket_rule(compiled, cut) -> None:
    """``cut`` is ``fold_buckets`` output: per level at most one bucket
    per fold, except where :data:`PAD_LIMIT` splits a fold by arity —
    then the buckets cover disjoint arity ranges, widest first, and
    taking the next bucket's widest gates in would pad past the limit.
    A bucket's inverting gates come last."""
    ids, levels = cut
    for level, buckets in levels:
        parts: dict = {}
        for fold, lo, hi, width, invert in buckets:
            gates = ids[lo:hi]
            arity = compiled.arity[gates]
            assert (compiled.node_levels[gates] == level).all()
            assert (compiled.folds[gates] == fold).all()
            assert width == arity.max()
            assert width * gates.size <= PAD_LIMIT * arity.sum()
            flips = np.zeros(gates.size, dtype=bool)
            flips[invert if invert else slice(0)] = True
            assert (compiled.inverted[gates] == flips).all()
            parts.setdefault(fold, []).append(arity)
        assert len(parts) <= 3
        for arities in parts.values():
            for wide, narrow in zip(arities, arities[1:]):
                assert wide.min() > narrow.max()
                merged = np.concatenate([wide, narrow[narrow == narrow.max()]])
                assert merged.max() * merged.size > PAD_LIMIT * merged.sum()


class TestFoldCalls:
    """Deterministic kernel-call counts, no timing: every simulator sweep
    makes one fold call per bucket of the one bucketing rule, so at most
    three per level unless a ragged fold splits by arity; the batch
    PODEM's interval-rail sweep makes one per level and fold."""

    @pytest.mark.parametrize("name", ["c880", "s1238", "s5378"])
    def test_calls_per_level(self, name):
        from repro.atpg.batch_podem import BatchPodem
        from repro.circuits import load_circuit
        from repro.faults.collapse import collapse_faults
        from repro.sim.batch import BatchFaultSimulator

        circuit = load_circuit(name)
        simulator = BatchFaultSimulator(circuit)
        compiled = simulator.compiled
        cut = compiled.fold_buckets(np.flatnonzero(compiled.folds >= 0))
        _assert_bucket_rule(compiled, cut)
        ids, levels = cut
        # simulate: the compiled plan is those buckets.
        assert [
            (level, [(fold, out.tolist(), fanins.shape[1]) for fold, _, out, fanins in b])
            for level, b in compiled.plan
        ] == [
            (level, [(fold, ids[lo:hi].tolist(), width) for fold, lo, hi, width, _ in b])
            for level, b in levels
        ]
        # trace: the same buckets, highest level first.
        trace = simulator._tables.trace_buckets
        widths = [fanins.shape[1] for _, b in reversed(compiled.plan) for *_, fanins in b]
        assert [fanins.shape[1] for _, _, fanins, _ in trace] == widths
        # imply: one group per level and fold, never split by arity.
        podem = BatchPodem(circuit, simulator=simulator)
        assert [len(groups) for _, _, groups, _ in podem._plan] == [
            len({fold for fold, *_ in buckets}) for _, buckets in levels
        ]
        # detect: one stem-machine plan's cone union.
        _, _, roots = simulator._batches(collapse_faults(circuit))[0]
        union = np.unique(np.concatenate([simulator._cone(root) for root in roots]))
        union_cut = compiled.fold_buckets(union)
        _assert_bucket_rule(compiled, union_cut)
        plan = simulator._plan(roots)
        assert [len(b) for _, b in plan.levels] == [len(b) for _, b in union_cut[1]]
