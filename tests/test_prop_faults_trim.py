"""Property tests: fault collapsing semantics and trimming soundness on
random circuits."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.faults.collapse import equivalence_classes
from repro.faults.model import full_fault_list
from repro.reseeding.detection_matrix import build_detection_matrix
from repro.reseeding.triplet import Triplet
from repro.reseeding.trim import trim_solution
from repro.sim.fault import FaultSimulator
from repro.tpg.accumulator import AdderAccumulator
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

_small_circuits = st.builds(
    generate_circuit,
    st.builds(
        GeneratorSpec,
        name=st.just("fprop"),
        n_inputs=st.integers(min_value=3, max_value=7),
        n_outputs=st.integers(min_value=1, max_value=3),
        n_gates=st.integers(min_value=5, max_value=25),
        seed=st.integers(min_value=0, max_value=2**31),
    ),
)


@settings(max_examples=20, deadline=None)
@given(circuit=_small_circuits)
def test_collapse_classes_semantically_equivalent(circuit):
    """Every pair of faults in an equivalence class has an identical
    detection signature over the exhaustive pattern set."""
    simulator = FaultSimulator(circuit)
    patterns = [
        BitVector(value, circuit.n_inputs)
        for value in range(1 << circuit.n_inputs)
    ]
    for representative, members in equivalence_classes(circuit).items():
        if len(members) == 1:
            continue
        matrix = simulator.detection_matrix(patterns, members)
        first = matrix[:, 0]
        for column in range(1, matrix.shape[1]):
            assert (matrix[:, column] == first).all(), (
                representative,
                members[column],
            )


@settings(max_examples=20, deadline=None)
@given(
    circuit=_small_circuits,
    seed=st.integers(min_value=0, max_value=1000),
    length=st.integers(min_value=1, max_value=12),
)
def test_trim_preserves_detected_set_exactly(circuit, seed, length):
    """Trimming never loses a fault the untrimmed sequence detected and
    never shrinks a triplet below 1 pattern."""
    rng = RngStream(seed, "trim-prop")
    tpg = AdderAccumulator(circuit.n_inputs)
    faults = full_fault_list(circuit)
    triplets = [
        Triplet(BitVector.random(circuit.n_inputs, rng), tpg.suggest_sigma(rng), length)
        for _ in range(5)
    ]
    simulator = FaultSimulator(circuit)
    full_patterns = [p for t in triplets for p in t.test_set(tpg)]
    detected_before = {
        fault
        for fault, hit in zip(faults, simulator.detected(full_patterns, faults))
        if hit
    }
    matrix = build_detection_matrix(circuit, tpg, triplets, faults, simulator)
    trimmed = trim_solution(matrix, range(len(triplets)))
    trimmed_patterns = trimmed.solution.patterns(tpg)
    detected_after = {
        fault
        for fault, hit in zip(faults, simulator.detected(trimmed_patterns, faults))
        if hit
    }
    assert detected_after == detected_before
    assert set(trimmed.undetected) == set(faults) - detected_before
    for triplet in trimmed.solution.triplets:
        assert 1 <= triplet.length <= length
