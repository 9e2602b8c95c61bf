"""Property-based cross-checks between the packed and reference engines.

The packed simulators (:mod:`repro.sim.logic`, :mod:`repro.sim.fault`)
share no evaluation code with :class:`ReferenceSimulator` beyond the
GateType enum, so agreement on random circuits is strong evidence of
correctness for both.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.bench import parse_bench, write_bench
from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.faults.model import full_fault_list
from repro.sim.fault import FaultSimulator
from repro.sim.logic import CompiledCircuit
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

from oracles.reference import ReferenceSimulator

circuits = st.builds(
    generate_circuit,
    st.builds(
        GeneratorSpec,
        name=st.just("prop"),
        n_inputs=st.integers(min_value=2, max_value=10),
        n_outputs=st.integers(min_value=1, max_value=4),
        n_gates=st.integers(min_value=5, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    ),
)


@settings(max_examples=30, deadline=None)
@given(circuit=circuits, pattern_seed=st.integers(min_value=0, max_value=1000))
def test_packed_logic_sim_matches_reference(circuit, pattern_seed):
    rng = RngStream(pattern_seed, "prop-logic")
    patterns = [BitVector.random(circuit.n_inputs, rng) for _ in range(67)]
    compiled = CompiledCircuit(circuit)
    reference = ReferenceSimulator(circuit)
    fast = compiled.simulate_patterns(patterns)
    for pattern, fast_out in zip(patterns, fast):
        assert fast_out == reference.outputs(pattern)


@settings(max_examples=15, deadline=None)
@given(circuit=circuits, pattern_seed=st.integers(min_value=0, max_value=1000))
def test_fault_sim_matches_reference(circuit, pattern_seed):
    rng = RngStream(pattern_seed, "prop-fault")
    patterns = [BitVector.random(circuit.n_inputs, rng) for _ in range(20)]
    faults = full_fault_list(circuit)[:60]
    fast = FaultSimulator(circuit)
    slow = ReferenceSimulator(circuit)
    matrix = fast.detection_matrix(patterns, faults)
    for fault_index, fault in enumerate(faults):
        for pattern_index, pattern in enumerate(patterns):
            assert matrix[pattern_index, fault_index] == slow.detects(
                pattern, fault
            ), f"{fault} on pattern {pattern_index}"


@settings(max_examples=25, deadline=None)
@given(circuit=circuits)
def test_bench_roundtrip_preserves_semantics(circuit):
    reparsed = parse_bench(write_bench(circuit), circuit.name)
    rng = RngStream(99, "prop-bench")
    patterns = [BitVector.random(circuit.n_inputs, rng) for _ in range(16)]
    original_out = CompiledCircuit(circuit).simulate_patterns(patterns)
    reparsed_out = CompiledCircuit(reparsed).simulate_patterns(patterns)
    assert original_out == reparsed_out


@settings(max_examples=15, deadline=None)
@given(circuit=circuits, pattern_seed=st.integers(min_value=0, max_value=1000))
def test_detected_agrees_with_matrix(circuit, pattern_seed):
    """`detected` must equal an any() reduction of `detection_matrix`."""
    rng = RngStream(pattern_seed, "prop-agg")
    patterns = [BitVector.random(circuit.n_inputs, rng) for _ in range(70)]
    faults = full_fault_list(circuit)[:40]
    simulator = FaultSimulator(circuit)
    matrix = simulator.detection_matrix(patterns, faults)
    flags = simulator.detected(patterns, faults)
    for fault_index in range(len(faults)):
        assert flags[fault_index] == bool(matrix[:, fault_index].any())
