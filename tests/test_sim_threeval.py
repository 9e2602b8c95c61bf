"""The three-valued differential-test lattice.

Every layer of the 0/1/X stack is pinned against something independent:

* **carrier** — :class:`PackedPlanes` round-trips (codes <-> planes,
  X-free planes <-> :class:`PackedPatterns`) over hypothesis-driven
  widths 1..130, plus the scalar packing oracle;
* **gate algebra** — one-gate circuits through the 3-valued simulator
  vs the scalar :func:`eval_gate_3v_scalar` oracle, exhaustively per
  gate type (the kernel-level differential lives in
  ``tests/test_circuit_gates.py``);
* **simulation** — 3-valued collapses *bit-identically* to the 2-valued
  engine on X-free input (every catalog circuit), matches the scalar 3V
  oracle with X, and is X-monotone: forcing inputs to X never flips a
  known output, it can only widen the unknown set;
* **fault simulation** — the one fault simulator fed
  :class:`PackedPlanes` (it runs 0/1/X at the carrier's ``m = 2``) vs
  the same simulator fed 2-valued patterns on X-free input (coverage,
  matrix, first detection, streamed rows), pessimism under X;
* **MISR** — X-masked signatures equal plain signatures on X-free
  streams at the 63/64/65 word boundaries, and masking is deterministic
  (same X-bank -> same signature) where unmasked X would corrupt.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, Gate, full_scan_view, partial_scan_view
from repro.circuit.gates import (
    X3,
    GateType,
    eval_gates,
    gate_form,
)
from repro.circuits import load_circuit
from repro.circuits.catalog import catalog_names
from repro.faults import collapse_faults
from repro.sim import (
    CompiledCircuit,
    FaultSimulator,
    Misr,
    golden_signature,
    logic_sim_3v,
    x_masked_signature,
)
from repro.utils.bitvec import (
    X_CODE,
    PackedPatterns,
    PackedPlanes,
    as_planes,
    unpack_words,
)

from oracles.scalar import (
    eval_gate_3v_scalar,
    logic_sim_3v_scalar,
    planes_from_codes_scalar,
)

#: Gate types with a plane-algebra form (everything combinational).
PLANE_GATES = (
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
)


def _random_codes(n_rows: int, n_patterns: int, seed: int, x_fraction: float = 0.3):
    gen = np.random.default_rng(seed)
    codes = gen.integers(0, 2, size=(n_rows, n_patterns)).astype(np.uint8)
    codes[gen.random(size=codes.shape) < x_fraction] = X_CODE
    return codes


# --------------------------------------------------------------------------
# carrier: PackedPlanes round-trips
# --------------------------------------------------------------------------


class TestPackedPlanes:
    @given(
        width=st.integers(min_value=1, max_value=9),
        n_patterns=st.integers(min_value=1, max_value=130),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_codes_round_trip(self, width, n_patterns, seed):
        codes = _random_codes(width, n_patterns, seed)
        planes = PackedPlanes.from_codes(codes)
        assert planes.width == width
        assert planes.n_patterns == n_patterns
        assert np.array_equal(planes.to_codes(), codes)

    @given(
        width=st.integers(min_value=1, max_value=9),
        n_patterns=st.integers(min_value=1, max_value=130),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_round_trip_lossless_for_x_free(self, width, n_patterns, seed):
        gen = np.random.default_rng(seed)
        n_words = (n_patterns + 63) // 64
        words = gen.integers(0, 2**63, size=(width, n_words), dtype=np.uint64)
        packed = PackedPatterns(words, n_patterns)
        planes = PackedPlanes.from_packed(packed)
        assert planes.x_count() == 0
        back = planes.to_packed()
        mask = packed.tail_mask()
        assert np.array_equal(back.words & mask, packed.words & mask)
        assert back.n_patterns == n_patterns

    def test_to_packed_rejects_x(self):
        codes = np.array([[0, 1, X_CODE]], dtype=np.uint8)
        planes = PackedPlanes.from_codes(codes)
        assert planes.x_count() == 1
        with pytest.raises(ValueError, match="X lanes present"):
            planes.to_packed()

    def test_invariant_enforced(self):
        value = np.array([[np.uint64(1)]], dtype=np.uint64)
        care = np.array([[np.uint64(0)]], dtype=np.uint64)
        with pytest.raises(ValueError, match="invariant"):
            PackedPlanes(value, care, 1)

    @given(
        width=st.integers(min_value=1, max_value=6),
        n_patterns=st.integers(min_value=1, max_value=70),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_from_codes_matches_scalar_packer(self, width, n_patterns, seed):
        codes = _random_codes(width, n_patterns, seed)
        planes = PackedPlanes.from_codes(codes)
        reference = planes_from_codes_scalar(codes)
        assert np.array_equal(planes.value, reference.value)
        assert np.array_equal(planes.care, reference.care)

    def test_as_planes_lifts_packed_to_all_care(self):
        words = np.array([[np.uint64(0b1011)]], dtype=np.uint64)
        planes = as_planes(PackedPatterns(words, 4), 1)
        assert planes.x_count() == 0
        assert np.array_equal(planes.to_codes(), [[1, 1, 0, 1]])


# --------------------------------------------------------------------------
# gate algebra: packed kernels vs the scalar oracle
# --------------------------------------------------------------------------


class TestPlaneAlgebra:
    """The ``m = 2`` gate algebra as the 3-valued simulator runs it.

    The exhaustive kernel-vs-oracle differential is in
    ``tests/test_circuit_gates.py``; these cases pin the simulator's use
    of it: one-gate circuits through :func:`logic_sim_3v`, group
    evaluation against single-gate evaluation, and the plane invariant.
    """

    @pytest.mark.parametrize("gtype", PLANE_GATES)
    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_eval_gate_planes_matches_scalar(self, gtype, arity):
        if gtype in (GateType.NOT, GateType.BUF) and arity != 1:
            pytest.skip("single-fanin gate")
        # Exhaustive over all 3^arity fanin code combinations, one
        # pattern each, through a one-gate circuit.
        combos = np.indices((3,) * arity).reshape(arity, -1).astype(np.uint8)
        inputs = [f"i{k}" for k in range(arity)]
        circuit = Circuit("one_gate", inputs, ["y"], [Gate("y", gtype, tuple(inputs))])
        got = logic_sim_3v(circuit, PackedPlanes.from_codes(combos)).to_codes()[0]
        want = [
            eval_gate_3v_scalar(gtype, list(combos[:, k]))
            for k in range(combos.shape[1])
        ]
        assert list(got) == want

    @pytest.mark.parametrize("gtype", PLANE_GATES)
    def test_reduce_matches_eval(self, gtype):
        arity = 1 if gtype in (GateType.NOT, GateType.BUF) else 3
        words = PackedPlanes.from_codes(_random_codes(arity, 130, seed=7)).words
        # Group form (gates, arity, words) as simulate gathers it, with
        # one gate; against the single-gate form.
        group = eval_gates(*gate_form(gtype), words[None].copy(), 2, axis=1)
        single = eval_gates(*gate_form(gtype), words.copy(), 2, axis=0)
        assert np.array_equal(group[0], single)

    def test_invariant_preserved(self):
        words = PackedPlanes.from_codes(_random_codes(3, 200, seed=11)).words
        n = words.shape[1] // 2
        for gtype in PLANE_GATES:
            arity = 1 if gtype in (GateType.NOT, GateType.BUF) else 3
            out = eval_gates(*gate_form(gtype), words[:arity].copy(), 2, axis=0)
            assert not np.any(out[:n] & ~out[n:]), gtype

    def test_scalar_oracle_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            eval_gate_3v_scalar(GateType.AND, [0, 3])


# --------------------------------------------------------------------------
# simulation: collapse, oracle, monotonicity
# --------------------------------------------------------------------------


class TestThreeValuedSimulation:
    @pytest.mark.parametrize("name", catalog_names())
    def test_collapses_to_two_valued_on_x_free_input(self, name):
        circuit = load_circuit(name, scale=0.15)
        compiled = CompiledCircuit(circuit)
        gen = np.random.default_rng(2001)
        n_patterns = 96
        n_words = (n_patterns + 63) // 64
        words = gen.integers(
            0, 2**63, size=(circuit.n_inputs, n_words), dtype=np.uint64
        )
        packed = PackedPatterns(words, n_patterns)
        mask = packed.tail_mask()
        good2 = compiled.simulate(packed.words)
        planes = as_planes(packed, circuit.n_inputs)
        state = compiled.simulate(planes.words, planes.m)
        v, c = state[:, :n_words], state[:, n_words:]
        assert np.array_equal(v & mask, good2 & mask)
        assert np.all((c & mask) == mask)

    @given(
        n_patterns=st.integers(min_value=1, max_value=130),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_oracle_with_x(self, n_patterns, seed):
        circuit = load_circuit("c17")
        codes = _random_codes(circuit.n_inputs, n_patterns, seed)
        packed_out = logic_sim_3v(circuit, PackedPlanes.from_codes(codes))
        scalar_out = logic_sim_3v_scalar(circuit, codes)
        assert np.array_equal(packed_out.to_codes(), scalar_out)

    def test_matches_scalar_oracle_on_s420(self):
        circuit = load_circuit("s420")
        codes = _random_codes(circuit.n_inputs, 65, seed=3)
        packed_out = logic_sim_3v(circuit, PackedPlanes.from_codes(codes))
        assert np.array_equal(
            packed_out.to_codes(), logic_sim_3v_scalar(circuit, codes)
        )

    def test_compiled_circuit_is_compiled_once(self, monkeypatch, x_bank):
        """A compiled circuit passed in is used as is: repeated
        simulations and signatures build no ``CompiledCircuit``, and
        their outputs equal the one-shot calls on the ``Circuit``."""
        circuit = load_circuit("s1238", scale=0.2)
        bank = x_bank(circuit.n_inputs, 130, 0.125, 11, "compile-once")
        one_shot = logic_sim_3v(circuit, bank)
        signature = x_masked_signature(circuit, bank)
        compiled = CompiledCircuit(circuit)
        built = []
        compile_circuit = CompiledCircuit.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            compile_circuit(self, *args, **kwargs)

        monkeypatch.setattr(CompiledCircuit, "__init__", counting_init)
        for _ in range(3):
            out = logic_sim_3v(compiled, bank)
            assert np.array_equal(out.value, one_shot.value)
            assert np.array_equal(out.care, one_shot.care)
            assert x_masked_signature(compiled, bank) == signature
        assert built == []
        logic_sim_3v(circuit, bank)
        assert built == [1]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_patterns=st.integers(min_value=1, max_value=70),
    )
    @settings(max_examples=25, deadline=None)
    def test_x_monotonicity(self, seed, n_patterns):
        """Forcing inputs to X never flips a known output bit — the
        3-valued result stays consistent with (is a widening of) the
        fully specified one."""
        circuit = load_circuit("c880", scale=0.15)
        gen = np.random.default_rng(seed)
        base = gen.integers(0, 2, size=(circuit.n_inputs, n_patterns)).astype(
            np.uint8
        )
        widened = base.copy()
        widened[gen.random(size=base.shape) < 0.25] = X_CODE
        out_base = logic_sim_3v(circuit, PackedPlanes.from_codes(base)).to_codes()
        out_wide = logic_sim_3v(
            circuit, PackedPlanes.from_codes(widened)
        ).to_codes()
        known = out_wide != X_CODE
        # Wherever the widened sim still claims a value, it must be the
        # value the fully specified sim computed.
        assert np.array_equal(out_wide[known], out_base[known])

    def test_partial_scan_unscanned_flops_as_x(self, partial_scan_s420):
        view, x_inputs = partial_scan_s420
        assert x_inputs, "expected unscanned flops"
        gen = np.random.default_rng(5)
        codes = gen.integers(0, 2, size=(view.n_inputs, 40)).astype(np.uint8)
        for name in x_inputs:
            codes[view.inputs.index(name), :] = X_CODE
        out = logic_sim_3v(view, PackedPlanes.from_codes(codes)).to_codes()
        # X power-up state must not poison everything: some outputs stay
        # known, and the result is the scalar oracle's.
        assert np.any(out != X_CODE)
        assert np.array_equal(out, logic_sim_3v_scalar(view, codes))

    def test_partial_scan_full_chain_equals_full_scan(self):
        seq = load_circuit("s420", full_scan=False)
        dffs = sorted(
            g.name for g in seq.gates.values() if g.gtype is GateType.DFF
        )
        view, x_inputs = partial_scan_view(seq, dffs)
        full = full_scan_view(seq)
        assert x_inputs == []
        assert set(view.inputs) == set(full.inputs)
        assert set(view.outputs) == set(full.outputs)

    def test_partial_scan_rejects_non_flop_names(self):
        seq = load_circuit("s420", full_scan=False)
        with pytest.raises(ValueError, match="not flip-flops"):
            partial_scan_view(seq, ["definitely_not_a_dff"])


# --------------------------------------------------------------------------
# fault simulation: planes (m = 2) vs 2-valued patterns (m = 1)
# --------------------------------------------------------------------------


class TestXFaultSimulator:
    """Fault simulation of X-carrying planes, on the one simulator."""

    @pytest.fixture(scope="class")
    def setup(self):
        circuit = load_circuit("c880", scale=0.2)
        faults = collapse_faults(circuit)
        gen = np.random.default_rng(99)
        n_patterns = 130
        words = gen.integers(
            0, 2**63, size=(circuit.n_inputs, 3), dtype=np.uint64
        )
        packed = PackedPatterns(words, n_patterns)
        return circuit, faults, packed

    def test_x_free_identity(self, setup):
        """On X-free planes every query matches 2-valued patterns."""
        circuit, faults, packed = setup
        planes = as_planes(packed, circuit.n_inputs)
        sim2 = FaultSimulator(circuit)
        sim3 = FaultSimulator(circuit)
        assert sim2.detected(packed, faults) == sim3.detected(planes, faults)
        assert sim2.first_detection_index(
            packed, faults
        ) == sim3.first_detection_index(planes, faults)
        assert sim2.fault_coverage(packed, faults) == sim3.fault_coverage(
            planes, faults
        )
        assert np.array_equal(
            sim2.detection_matrix(packed, faults),
            sim3.detection_matrix(planes, faults),
        )

    def test_x_free_identity_streamed_rows(self, setup):
        circuit, faults, packed = setup
        planes = as_planes(packed, circuit.n_inputs)
        sim2 = FaultSimulator(circuit)
        sim3 = FaultSimulator(circuit)
        rows2 = list(sim2.detection_matrix_rows([packed] * 3, faults))
        rows3 = list(sim3.detection_matrix_rows([planes] * 3, faults))
        assert len(rows2) == len(rows3) == 3
        for a, b in zip(rows2, rows3):
            assert np.array_equal(a, b)

    @settings(max_examples=15, deadline=None)
    @given(
        lengths=st.lists(
            st.sampled_from((0, 1, 63, 64, 65, 129, 512)), min_size=1, max_size=6
        ),
        budget=st.sampled_from((1, 2, 3, 64)),
        p_one=st.sampled_from((0.05, 0.5)),
        x_fraction=st.sampled_from((0.0, 0.1, 0.4)),
        seed=st.integers(0, 2**16),
    )
    def test_x_rows_match_matrix_oracle(
        self, lengths, budget, p_one, x_fraction, seed
    ):
        """The budgeted offset-major row scan over X-seeded planes of
        mixed lengths gives each row's any-pattern detection matrix."""
        circuit = load_circuit("s27")
        faults = collapse_faults(circuit)
        gen = np.random.default_rng(seed)
        rows = []
        for n in lengths:
            codes = (gen.random((circuit.n_inputs, n)) < p_one).astype(np.uint8)
            codes[gen.random(codes.shape) < x_fraction] = X_CODE
            rows.append(PackedPlanes.from_codes(codes) if n else [])
        oracle = FaultSimulator(circuit)
        expected = [
            oracle.detection_matrix(planes, faults).any(axis=0) for planes in rows
        ]
        scanned = FaultSimulator(circuit, batch_size=4).detection_matrix_rows(
            rows, faults, row_chunk_words=budget
        )
        for want, got in zip(expected, scanned, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_x_pessimism(self, setup):
        """X in the stimulus can only lose detections, never gain them,
        and coverage shrinks monotonically with the X fraction."""
        circuit, faults, packed = setup
        sim3 = FaultSimulator(circuit)
        full = sim3.detection_matrix(as_planes(packed, circuit.n_inputs), faults)
        codes = np.stack(
            [
                np.unpackbits(
                    np.ascontiguousarray(packed.words[i]).view(np.uint8),
                    bitorder="little",
                )[: packed.n_patterns]
                for i in range(circuit.n_inputs)
            ]
        ).astype(np.uint8)
        gen = np.random.default_rng(17)
        coverages = []
        for x_fraction in (0.0, 0.1, 0.3):
            widened = codes.copy()
            widened[gen.random(size=codes.shape) < x_fraction] = X_CODE
            planes = PackedPlanes.from_codes(widened)
            matrix = sim3.detection_matrix(planes, faults)
            assert not np.any(matrix & ~full), "X created a detection"
            coverages.append(sim3.fault_coverage(planes, faults))
        assert coverages[0] >= coverages[1] >= coverages[2]

    def test_x_detection_requires_both_machines_known(self, tiny_and):
        """An output that is X in the good machine never detects, even
        if the faulty machine drives a known value there."""
        from repro.faults.model import full_fault_list

        sim3 = FaultSimulator(tiny_and)
        faults = full_fault_list(tiny_and)
        codes = np.array([[X_CODE], [1]], dtype=np.uint8)  # a=X, b=1
        matrix = sim3.detection_matrix(PackedPlanes.from_codes(codes), faults)
        # Good output is X (X AND 1), so nothing is ever detected.
        assert not matrix.any()


# --------------------------------------------------------------------------
# MISR: X-masked signatures at word boundaries
# --------------------------------------------------------------------------


class TestXMaskedMisr:
    @pytest.mark.parametrize("n_patterns", [63, 64, 65])
    def test_x_free_masked_equals_plain(self, n_patterns):
        circuit = load_circuit("c499", scale=0.2)
        gen = np.random.default_rng(n_patterns)
        n_words = (n_patterns + 63) // 64
        words = gen.integers(
            0, 2**63, size=(circuit.n_inputs, n_words), dtype=np.uint64
        )
        packed = PackedPatterns(words, n_patterns)
        plain = golden_signature(circuit, unpack_words(packed.words, n_patterns))
        masked, n_masked = x_masked_signature(
            circuit, as_planes(packed, circuit.n_inputs)
        )
        assert n_masked == 0
        assert masked == plain

    @pytest.mark.parametrize("n_patterns", [63, 64, 65])
    def test_x_masked_signature_deterministic(self, n_patterns, x_bank):
        circuit = load_circuit("c499", scale=0.2)
        bank = x_bank(circuit.n_inputs, n_patterns, 0.25, 7, "misr")
        sig_a, masked_a = x_masked_signature(circuit, bank)
        sig_b, masked_b = x_masked_signature(circuit, bank)
        assert masked_a == masked_b > 0
        assert sig_a == sig_b

    def test_masked_step_forces_x_to_zero(self):
        from repro.utils.bitvec import BitVector

        misr = Misr(4, taps=(0, 3))
        state = BitVector(0b1010, 4)
        value = BitVector(0b1111, 4)
        care = BitVector(0b0110, 4)
        assert misr.masked_step(state, value, care) == misr.step(
            state, BitVector(0b0110, 4)
        )

    def test_masked_signature_counts_x_bits(self):
        from repro.utils.bitvec import BitVector

        misr = Misr(4, taps=(0, 3))
        responses = [
            (BitVector(0b1010, 4), BitVector(0b1111, 4)),  # no X
            (BitVector(0b0010, 4), BitVector(0b0011, 4)),  # two X bits
            (BitVector(0b0000, 4), BitVector(0b0000, 4)),  # all X
        ]
        _, n_masked = misr.masked_signature(responses)
        assert n_masked == 0 + 2 + 4

    def test_x3_and_x_code_agree(self):
        # One X encoding across the ATPG planes and the sim planes.
        assert X3 == X_CODE == 2
