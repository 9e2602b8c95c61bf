"""Tests for triplets, the Initial Reseeding Builder, the Detection
Matrix and test-length trimming."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atpg.engine import AtpgEngine
from repro.circuits import load_circuit
from repro.reseeding import (
    DetectionMatrix,
    InitialReseedingBuilder,
    ReseedingSolution,
    Triplet,
    build_detection_matrix,
    trim_solution,
)
from repro.tpg import AdderAccumulator, make_tpg
from repro.utils.bitvec import BitVector


@pytest.fixture(scope="module")
def c17_atpg():
    circuit = load_circuit("c17")
    engine = AtpgEngine(circuit, seed=5)
    return circuit, engine.run(), engine.simulator


class TestTriplet:
    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Triplet(BitVector(0, 4), BitVector(1, 4), -1)

    def test_test_set_delegates_to_tpg(self):
        triplet = Triplet(BitVector(2, 4), BitVector(1, 4), 3)
        patterns = triplet.test_set(AdderAccumulator(4))
        assert [p.value for p in patterns] == [2, 3, 4]

    def test_with_length(self):
        triplet = Triplet(BitVector(2, 4), BitVector(1, 4), 10)
        assert triplet.with_length(3).length == 3
        assert triplet.with_length(3).delta == triplet.delta

    def test_storage_bits(self):
        triplet = Triplet(BitVector(0, 8), BitVector(0, 8), 64)
        assert triplet.storage_bits() == 8 + 8 + 7  # 64 needs 7 bits

    def test_str_contains_fields(self):
        text = str(Triplet(BitVector(5, 4), BitVector(1, 4), 7))
        assert "0101" in text and "T=7" in text


class TestReseedingSolution:
    def test_aggregates(self):
        triplets = [
            Triplet(BitVector(0, 4), BitVector(1, 4), 5),
            Triplet(BitVector(1, 4), BitVector(1, 4), 7),
        ]
        solution = ReseedingSolution.from_list(triplets)
        assert solution.n_triplets == 2
        assert solution.test_length == 12
        assert len(solution) == 2

    def test_patterns_concatenate_in_order(self):
        tpg = AdderAccumulator(4)
        solution = ReseedingSolution.from_list(
            [
                Triplet(BitVector(0, 4), BitVector(1, 4), 2),
                Triplet(BitVector(8, 4), BitVector(1, 4), 2),
            ]
        )
        assert [p.value for p in solution.patterns(tpg)] == [0, 1, 8, 9]


class TestDetectionMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            DetectionMatrix([], [], np.zeros((1, 1), dtype=bool))

    def test_build_rows_match_triplet_coverage(self, c17_atpg):
        circuit, atpg, simulator = c17_atpg
        tpg = AdderAccumulator(circuit.n_inputs)
        triplets = [Triplet(p, BitVector(1, 5), 4) for p in atpg.test_set]
        matrix = build_detection_matrix(
            circuit, tpg, triplets, atpg.target_faults, simulator
        )
        # cross-check one row against a direct fault simulation
        row = 0
        expected = simulator.detected(triplets[row].test_set(tpg), atpg.target_faults)
        assert list(matrix.matrix[row]) == expected

    def test_covers_all_faults_detects_gaps(self, c17_atpg):
        circuit, atpg, _ = c17_atpg
        faults = atpg.target_faults
        good = DetectionMatrix(
            [Triplet(BitVector(0, 5), BitVector(1, 5), 1)] * 1,
            faults,
            np.ones((1, len(faults)), dtype=bool),
        )
        assert good.covers_all_faults()
        bad_matrix = np.ones((1, len(faults)), dtype=bool)
        bad_matrix[0, 0] = False
        bad = DetectionMatrix(good.triplets, faults, bad_matrix)
        assert not bad.covers_all_faults()
        assert bad.undetected_faults() == [faults[0]]

    def test_density(self):
        matrix = DetectionMatrix(
            [Triplet(BitVector(0, 2), BitVector(1, 2), 1)],
            [],
            np.zeros((1, 0), dtype=bool),
        )
        assert matrix.density() == 0.0

    def test_triplet_fault_sets(self, c17_atpg):
        circuit, atpg, simulator = c17_atpg
        tpg = AdderAccumulator(circuit.n_inputs)
        triplets = [Triplet(p, BitVector(1, 5), 2) for p in atpg.test_set[:3]]
        matrix = build_detection_matrix(
            circuit, tpg, triplets, atpg.target_faults, simulator
        )
        sets = matrix.triplet_fault_sets()
        assert len(sets) == 3
        for row, fault_set in enumerate(sets):
            assert fault_set == set(np.flatnonzero(matrix.matrix[row]))


class TestInitialReseedingBuilder:
    def test_width_mismatch_rejected(self, c17_atpg):
        circuit, _, _ = c17_atpg
        with pytest.raises(ValueError, match="width"):
            InitialReseedingBuilder(circuit, AdderAccumulator(circuit.n_inputs + 1))

    def test_one_triplet_per_pattern(self, c17_atpg):
        circuit, atpg, simulator = c17_atpg
        builder = InitialReseedingBuilder(
            circuit, AdderAccumulator(circuit.n_inputs), seed=5, simulator=simulator
        )
        initial = builder.build_from_atpg(atpg, evolution_length=8)
        assert initial.n_triplets == atpg.test_length
        for triplet, pattern in zip(initial.triplets, atpg.test_set):
            assert triplet.delta == pattern
            assert triplet.length == 8

    def test_initial_matrix_covers_all_faults(self, c17_atpg):
        """The construction invariant: pattern 0 = delta = ATPG pattern,
        so the candidate pool covers F completely."""
        circuit, atpg, simulator = c17_atpg
        for tpg_name in ("adder", "multiplier", "subtracter", "mp-lfsr"):
            builder = InitialReseedingBuilder(
                circuit, make_tpg(tpg_name, circuit.n_inputs), seed=5,
                simulator=simulator,
            )
            initial = builder.build_from_atpg(atpg, evolution_length=4)
            assert initial.detection_matrix.covers_all_faults(), tpg_name

    def test_deterministic_sigmas(self, c17_atpg):
        circuit, atpg, simulator = c17_atpg
        builder = InitialReseedingBuilder(
            circuit, AdderAccumulator(circuit.n_inputs), seed=5, simulator=simulator
        )
        a = builder.build_from_atpg(atpg, evolution_length=4)
        b = builder.build_from_atpg(atpg, evolution_length=4)
        assert a.triplets == b.triplets

    def test_bad_evolution_length(self, c17_atpg):
        circuit, atpg, simulator = c17_atpg
        builder = InitialReseedingBuilder(
            circuit, AdderAccumulator(circuit.n_inputs), seed=5, simulator=simulator
        )
        with pytest.raises(ValueError):
            builder.build_from_atpg(atpg, evolution_length=0)


class TestTrimming:
    @staticmethod
    def _trim(circuit, tpg, triplets, faults, simulator):
        matrix = build_detection_matrix(circuit, tpg, triplets, faults, simulator)
        return trim_solution(matrix, range(len(triplets)))

    def test_trim_preserves_coverage(self, c17_atpg):
        circuit, atpg, simulator = c17_atpg
        tpg = AdderAccumulator(circuit.n_inputs)
        triplets = [Triplet(p, BitVector(1, 5), 16) for p in atpg.test_set]
        trimmed = self._trim(
            circuit, tpg, triplets, atpg.target_faults, simulator
        )
        assert trimmed.undetected == ()
        patterns = trimmed.solution.patterns(tpg)
        assert simulator.fault_coverage(patterns, atpg.target_faults) == 1.0

    def test_trim_never_lengthens(self, c17_atpg):
        circuit, atpg, simulator = c17_atpg
        tpg = AdderAccumulator(circuit.n_inputs)
        triplets = [Triplet(p, BitVector(1, 5), 16) for p in atpg.test_set]
        trimmed = self._trim(circuit, tpg, triplets, atpg.target_faults, simulator)
        for before, after in zip(triplets, trimmed.solution.triplets):
            assert after.length <= before.length
            assert after.delta == before.delta

    def test_delta_coverage_sums_to_target(self, c17_atpg):
        circuit, atpg, simulator = c17_atpg
        tpg = AdderAccumulator(circuit.n_inputs)
        triplets = [Triplet(p, BitVector(1, 5), 16) for p in atpg.test_set]
        trimmed = self._trim(circuit, tpg, triplets, atpg.target_faults, simulator)
        assert sum(trimmed.delta_coverage) == len(atpg.target_faults)

    def test_redundant_trailing_triplet_cut_to_one(self, c17_atpg):
        """A triplet whose faults were all already detected keeps only
        its seed pattern."""
        circuit, atpg, simulator = c17_atpg
        tpg = AdderAccumulator(circuit.n_inputs)
        triplets = [Triplet(p, BitVector(1, 5), 16) for p in atpg.test_set]
        triplets.append(triplets[0])  # duplicate adds nothing at the end
        trimmed = self._trim(circuit, tpg, triplets, atpg.target_faults, simulator)
        assert trimmed.solution.triplets[-1].length == 1
        assert trimmed.delta_coverage[-1] == 0
