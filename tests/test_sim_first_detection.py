"""Differential tests: first-detection offset rows.

:meth:`BatchFaultSimulator.first_detection_rows` records each (row,
fault) cell's first detecting pattern during the offset-major row scan,
with per-row fault dropping.  Every row must equal per-row
:meth:`~BatchFaultSimulator.first_detection_index` (a separate windowed
scan), at ``m = 1`` and ``m = 2``, under every word budget, with the
dtype's max as the "not detected" sentinel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.circuits import load_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault, full_fault_list
from repro.reseeding import Triplet, build_detection_matrix
from repro.sim.batch import BatchFaultSimulator, _low_bit_index, offset_dtype
from repro.tpg import make_tpg
from repro.utils.bitvec import X_CODE, BitVector, PackedPlanes
from repro.utils.rng import RngStream

#: Row lengths straddling the word boundary and the uint8/uint16 switch.
ROW_LENGTHS = (0, 1, 63, 64, 65, 130, 255, 256, 300)


@st.composite
def circuits(draw):
    """Random generated circuits; few inputs and many gates force
    reconvergent fanout."""
    seed = draw(st.integers(0, 10_000))
    n_inputs = draw(st.integers(3, 6))
    spec = GeneratorSpec(
        name=f"fd{seed}",
        n_inputs=n_inputs,
        n_outputs=draw(st.integers(1, 3)),
        n_gates=draw(st.integers(4, 8 * n_inputs)),
        seed=seed,
    )
    return generate_circuit(spec)


def _oracle(simulator, pattern_sets, faults) -> np.ndarray:
    """Per-row ``first_detection_index``, ``None`` -> the sentinel."""
    dtype = offset_dtype(max((len(p) for p in pattern_sets), default=0))
    sentinel = np.iinfo(dtype).max
    table = np.full((len(pattern_sets), len(faults)), sentinel, dtype=dtype)
    for row, patterns in enumerate(pattern_sets):
        for column, index in enumerate(
            simulator.first_detection_index(patterns, faults)
        ):
            if index is not None:
                table[row, column] = index
    return table


def _assert_rows_match(simulator, oracle, pattern_sets, faults, budget):
    expected = _oracle(oracle, pattern_sets, faults)
    rows = list(
        simulator.first_detection_rows(pattern_sets, faults, row_chunk_words=budget)
    )
    assert len(rows) == len(pattern_sets)
    want_dtype = np.uint16 if max(map(len, pattern_sets)) > 255 else np.uint8
    for got, want in zip(rows, expected):
        assert got.dtype == want_dtype
        np.testing.assert_array_equal(got, want)
    flags = list(
        simulator.detection_matrix_rows(pattern_sets, faults, row_chunk_words=budget)
    )
    np.testing.assert_array_equal(
        np.array(flags).reshape(expected.shape),
        expected != np.iinfo(want_dtype).max,
    )


def _random_patterns(circuit, n_patterns: int, seed: int) -> list[BitVector]:
    rng = RngStream(seed, "first-detection", circuit.name)
    return [BitVector.random(circuit.n_inputs, rng) for _ in range(n_patterns)]


class TestOffsetDifferential:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        circuit=circuits(),
        lengths=st.lists(st.sampled_from(ROW_LENGTHS), min_size=1, max_size=6),
        budget=st.sampled_from((1, 2, 64)),
        batch_size=st.sampled_from((1, 7, 32)),
        seed=st.integers(0, 1000),
    )
    def test_two_valued_rows(self, circuit, lengths, budget, batch_size, seed):
        faults = full_fault_list(circuit)
        pattern_sets = [
            _random_patterns(circuit, n, seed + index)
            for index, n in enumerate(lengths)
        ]
        simulator = BatchFaultSimulator(circuit, batch_size=batch_size)
        _assert_rows_match(
            simulator, BatchFaultSimulator(circuit), pattern_sets, faults, budget
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        circuit=circuits(),
        lengths=st.lists(st.sampled_from(ROW_LENGTHS), min_size=1, max_size=5),
        budget=st.sampled_from((1, 2, 64)),
        x_fraction=st.sampled_from((0.0, 0.1, 0.4)),
        seed=st.integers(0, 2**16),
    )
    def test_three_valued_rows(self, circuit, lengths, budget, x_fraction, seed):
        faults = full_fault_list(circuit)
        gen = np.random.default_rng(seed)
        pattern_sets = []
        for n in lengths:
            codes = gen.integers(0, 2, size=(circuit.n_inputs, n)).astype(np.uint8)
            codes[gen.random(codes.shape) < x_fraction] = X_CODE
            pattern_sets.append(PackedPlanes.from_codes(codes))
        simulator = BatchFaultSimulator(circuit, batch_size=4)
        _assert_rows_match(
            simulator, BatchFaultSimulator(circuit), pattern_sets, faults, budget
        )

    @pytest.mark.parametrize("name", ["c17", "s27"])
    @pytest.mark.parametrize("budget", [1, 2, 64])
    def test_reconvergent_catalog_circuits(self, name, budget):
        circuit = load_circuit(name)
        faults = full_fault_list(circuit)
        pattern_sets = [
            _random_patterns(circuit, n, seed=n) for n in (0, 1, 63, 64, 65, 300)
        ]
        _assert_rows_match(
            BatchFaultSimulator(circuit, batch_size=5),
            BatchFaultSimulator(circuit),
            pattern_sets,
            faults,
            budget,
        )


class TestSentinel:
    """y = a AND b: y stuck-at-0 is detected by pattern 11 only."""

    @staticmethod
    def _row(tiny_and, n_patterns):
        zeros = [BitVector(0, 2)] * (n_patterns - 1)
        patterns = zeros + [BitVector(0b11, 2)]
        faults = [Fault.stem("y", 0), Fault.stem("y", 1)]
        (row,) = BatchFaultSimulator(tiny_and).first_detection_rows([patterns], faults)
        return row

    def test_last_of_255_patterns_is_uint8(self, tiny_and):
        row = self._row(tiny_and, 255)
        assert row.dtype == np.uint8
        # s-a-1 is detected by the first all-zero pattern.
        assert row.tolist() == [254, 0]

    def test_256_patterns_switch_to_uint16(self, tiny_and):
        row = self._row(tiny_and, 256)
        assert row.dtype == np.uint16
        assert row.tolist() == [255, 0]

    def test_undetected_is_the_dtype_max(self, tiny_and):
        faults = [Fault.stem("y", 0)]
        simulator = BatchFaultSimulator(tiny_and)
        for n, sentinel in ((255, 255), (256, 65535)):
            (row,) = simulator.first_detection_rows([[BitVector(0, 2)] * n], faults)
            assert row.tolist() == [sentinel]

    def test_offset_dtype_rule(self):
        assert offset_dtype(0) == np.uint8
        assert offset_dtype(255) == np.uint8
        assert offset_dtype(256) == np.uint16
        assert offset_dtype(65535) == np.uint16
        assert offset_dtype(65536) == np.uint32

    def test_low_bit_index_exact(self):
        gen = np.random.default_rng(3)
        words = np.concatenate(
            [
                np.uint64(1) << np.arange(64, dtype=np.uint64),
                gen.integers(1, 2**63, size=200, dtype=np.uint64),
                np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
            ]
        )
        want = [(int(w) & -int(w)).bit_length() - 1 for w in words]
        assert _low_bit_index(words).tolist() == want


class TestWorkersTable:
    def test_two_workers_build_the_same_table(self):
        """``matrix_workers=2`` yields the serial build's offsets,
        dtype included, across the uint8/uint16 switch."""
        circuit = load_circuit("c880", scale=0.2)
        faults = collapse_faults(circuit)
        tpg = make_tpg("adder", circuit.n_inputs)
        rng = RngStream(4, "workers-table")
        triplets = [
            Triplet(
                BitVector.random(circuit.n_inputs, rng),
                BitVector.random(circuit.n_inputs, rng),
                length,
            )
            for length in (1, 40, 64, 65, 300, 7, 256)
        ]
        serial = build_detection_matrix(circuit, tpg, triplets, faults)
        parallel = build_detection_matrix(circuit, tpg, triplets, faults, workers=2)
        assert serial.offsets.dtype == parallel.offsets.dtype == np.uint16
        np.testing.assert_array_equal(parallel.offsets, serial.offsets)
        np.testing.assert_array_equal(parallel.matrix, serial.matrix)
