"""Integration tests for the full ATPG engine."""

from __future__ import annotations

import pytest

from repro.atpg.engine import AtpgEngine
from repro.circuits import load_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault, full_fault_list
from repro.sim.fault import FaultSimulator


class TestEngineOnC17:
    @pytest.fixture(scope="class")
    def result(self):
        circuit = load_circuit("c17")
        return AtpgEngine(circuit, seed=7).run()

    def test_complete_coverage_of_target_faults(self, result):
        circuit = load_circuit("c17")
        simulator = FaultSimulator(circuit)
        coverage = simulator.fault_coverage(result.test_set, result.target_faults)
        assert coverage == 1.0

    def test_no_untestable_in_c17(self, result):
        assert result.untestable == []
        assert result.aborted == []

    def test_target_faults_cover_collapsed_universe(self, result):
        circuit = load_circuit("c17")
        assert set(result.target_faults) == set(collapse_faults(circuit))

    def test_counters_consistent(self, result):
        assert result.test_length == len(result.test_set)
        assert result.n_collapsed_faults == len(result.target_faults)

    def test_summary_mentions_circuit(self, result):
        assert "c17" in result.summary()


class TestEngineProperties:
    def test_deterministic(self):
        circuit = load_circuit("s27")
        a = AtpgEngine(circuit, seed=3).run()
        b = AtpgEngine(circuit, seed=3).run()
        assert a.test_set == b.test_set
        assert a.target_faults == b.target_faults

    def test_seed_changes_patterns(self):
        circuit = load_circuit("s27")
        a = AtpgEngine(circuit, seed=3).run()
        b = AtpgEngine(circuit, seed=4).run()
        assert a.test_set != b.test_set  # same coverage, different patterns

    def test_redundant_faults_classified(self, redundant_circuit):
        result = AtpgEngine(redundant_circuit, seed=1).run(
            full_fault_list(redundant_circuit)
        )
        assert Fault.stem("t", 0) in result.untestable
        simulator = FaultSimulator(redundant_circuit)
        assert simulator.fault_coverage(result.test_set, result.target_faults) == 1.0

    def test_explicit_fault_subset(self, c17):
        faults = [Fault.stem("22", 0), Fault.stem("23", 1)]
        result = AtpgEngine(c17, seed=1).run(faults)
        assert set(result.target_faults) == set(faults)
        simulator = FaultSimulator(c17)
        assert simulator.fault_coverage(result.test_set, faults) == 1.0

    def test_compaction_toggle(self):
        circuit = load_circuit("s27")
        compacted = AtpgEngine(circuit, seed=3, compact=True).run()
        raw = AtpgEngine(circuit, seed=3, compact=False).run()
        assert compacted.test_length <= raw.test_length

    def test_synthetic_circuit_full_coverage(self):
        """End-to-end on a mid-size synthetic circuit: ATPGTS must cover
        the target list completely (the paper's precondition)."""
        circuit = load_circuit("s420", scale=0.5)
        engine = AtpgEngine(circuit, seed=11, max_random_patterns=1024)
        result = engine.run()
        coverage = engine.simulator.fault_coverage(
            result.test_set, result.target_faults
        )
        assert coverage == 1.0
        assert result.test_length > 0
        # classification partitions the collapsed universe
        total = (
            len(result.target_faults) + len(result.untestable) + len(result.aborted)
        )
        assert total == result.n_collapsed_faults
