"""Differential tests: first-detection offset rows.

:meth:`BatchFaultSimulator.first_detection_rows` records each (row,
fault) cell's first detecting pattern during the offset-major row scan,
with per-row fault dropping.  Every row must equal per-row
:meth:`~BatchFaultSimulator.first_detection_index` (a separate windowed
scan), at ``m = 1`` and ``m = 2``, under every word budget, with the
dtype's max as the "not detected" sentinel.  A scan seeded with the
table of each row's first ``n`` patterns, and a table derived from a
longer one, must equal a fresh scan.
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
from repro.sim.batch import (
    BatchFaultSimulator,
    _low_bit_index,
    offset_dtype,
    parallel_detection_rows,
    prefix_offsets,
)
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


#: Prior lengths checked at every row length: word and dtype boundaries.
PRIOR_BOUNDARIES = (0, 1, 31, 63, 64, 65, 127, 128, 200, 255, 256, 257, 511, 512, 513, 599)
#: Row lengths of the prior-scan grid: unaligned, the uint8/uint16
#: switch, and past 512.
PRIOR_LENGTHS = (33, 100, 255, 256, 600)
#: Rows per table, and the longest sequence any row or prior reads.
PRIOR_ROWS = 4
PRIOR_MAX = 640


class TestPriorScan:
    """``first_detection_rows(prior=(n, table))`` starts each row at
    word ``n // 64`` from the table of its first ``n`` patterns; the
    rows must equal a fresh scan in values and dtype."""

    @pytest.fixture(scope="class")
    def circuit(self):
        # Random patterns detect its faults over hundreds of patterns,
        # and some never: priors settle a share of cells at every n.
        return load_circuit("c880", scale=0.2)

    @staticmethod
    def _codes(circuit, x_fraction: float) -> np.ndarray:
        """One long 0/1/X code sequence per row; rows of length ``n``
        are its first ``n`` columns."""
        gen = np.random.default_rng(17)
        codes = gen.integers(0, 2, size=(PRIOR_ROWS, circuit.n_inputs, PRIOR_MAX))
        codes = codes.astype(np.uint8)
        codes[gen.random(codes.shape) < x_fraction] = X_CODE
        return codes

    @staticmethod
    def _rows(codes: np.ndarray, n: int, planes: bool) -> list:
        rows = [PackedPlanes.from_codes(row[:, :n]) for row in codes]
        return rows if planes else [row.to_packed() for row in rows]

    @staticmethod
    def _table(simulator, rows, faults, budget=None, prior=None) -> np.ndarray:
        return np.array(
            list(simulator.first_detection_rows(rows, faults, budget, prior=prior))
        )

    @pytest.mark.parametrize("planes", [False, True], ids=["packed", "planes"])
    @pytest.mark.parametrize("length", PRIOR_LENGTHS)
    def test_every_prior_length(self, circuit, planes, length):
        """Every n <= T for the two shortest lengths, word and dtype
        boundaries for all, plus a prior longer than the rows; boundary
        priors under three word budgets."""
        faults = full_fault_list(circuit)
        codes = self._codes(circuit, 0.1 if planes else 0.0)
        simulator = BatchFaultSimulator(circuit, batch_size=5)
        rows = self._rows(codes, length, planes)
        fresh = {budget: self._table(simulator, rows, faults, budget) for budget in (1, 2, 64)}
        assert fresh[64].dtype == offset_dtype(length)
        every = range(length + 1) if length <= 100 else ()
        boundary = [n for n in PRIOR_BOUNDARIES if n <= length]
        for n in sorted({*every, *boundary, length + 37}):
            prior = (n, self._table(simulator, self._rows(codes, n, planes), faults))
            budgets = (1, 2, 64) if n in boundary else (64,)
            for budget in budgets:
                got = self._table(simulator, rows, faults, budget, prior)
                assert got.dtype == fresh[budget].dtype, (n, budget)
                np.testing.assert_array_equal(got, fresh[budget], err_msg=f"n={n}")

    @pytest.mark.parametrize("planes", [False, True], ids=["packed", "planes"])
    def test_two_workers(self, circuit, planes):
        """The pool hands each worker the prior rows of its jobs."""
        faults = full_fault_list(circuit)
        codes = self._codes(circuit, 0.1 if planes else 0.0)
        for length, n in ((300, 100), (600, 256)):
            rows = self._rows(codes, length, planes)
            shorter = self._rows(codes, n, planes)
            prior = (n, self._table(BatchFaultSimulator(circuit), shorter, faults))
            fresh = parallel_detection_rows(BatchFaultSimulator(circuit), rows, faults, 1)
            pooled = parallel_detection_rows(
                BatchFaultSimulator(circuit), rows, faults, 2, prior=prior
            )
            assert pooled.dtype == fresh.dtype
            np.testing.assert_array_equal(pooled, fresh)

    def test_settled_prefix_reaches_no_stem_machine(self, circuit):
        """A prior as long as the rows settles every cell: no word is
        simulated, and a longer row only pays for its new words."""
        faults = full_fault_list(circuit)
        codes = self._codes(circuit, 0.0)
        shorter = self._rows(codes, 128, False)
        prior = (128, self._table(BatchFaultSimulator(circuit), shorter, faults))
        simulator = BatchFaultSimulator(circuit)
        self._table(simulator, self._rows(codes, 128, False), faults, prior=prior)
        assert (simulator.detect_cells, simulator.words_simulated) == (0, 0)
        self._table(simulator, self._rows(codes, 256, False), faults, prior=prior)
        assert simulator.words_simulated == PRIOR_ROWS * 2

    def test_prefix_offsets_equal_a_shorter_scan(self, circuit):
        faults = full_fault_list(circuit)
        codes = self._codes(circuit, 0.0)
        simulator = BatchFaultSimulator(circuit)
        longest = self._table(simulator, self._rows(codes, 600, False), faults)
        for n in (0, 1, 7, 64, 100, 255, 256, 512, 600):
            want = self._table(simulator, self._rows(codes, n, False), faults)
            got = prefix_offsets(longest, n)
            assert got.dtype == want.dtype == offset_dtype(n)
            np.testing.assert_array_equal(got, want)

    def test_prior_shape_and_width_checked(self, circuit):
        faults = full_fault_list(circuit)
        rows = self._rows(self._codes(circuit, 0.0), 300, False)
        simulator = BatchFaultSimulator(circuit)
        with pytest.raises(ValueError, match="shape"):
            self._table(simulator, rows, faults, prior=(10, np.zeros((1, 1), np.uint8)))
        narrow = np.zeros((PRIOR_ROWS, len(faults)), np.uint8)
        with pytest.raises(ValueError, match="cannot cover"):
            self._table(simulator, rows, faults, prior=(256, narrow))
