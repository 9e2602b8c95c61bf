"""Trimming as an array reduction over the Detection Matrix's
first-detection offsets, checked against the sequential simulation it
replaced."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.circuits import load_circuit
from repro.faults.model import full_fault_list
from repro.flow.pipeline import PipelineConfig, PipelineResult
from repro.flow.session import Session
from repro.reseeding import (
    ReseedingSolution,
    Triplet,
    TrimmedSolution,
    build_detection_matrix,
    packed_test_sets,
    trim_solution,
)
from repro.sim.fault import FaultSimulator
from repro.tpg import make_tpg
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream


def trim_oracle(circuit, tpg, triplets, faults) -> TrimmedSolution:
    """Sequential trim by simulation: for each triplet in order, find
    the first detecting pattern of every still-undetected fault; keep
    ``1 + max`` of them (at least the seed pattern)."""
    simulator = FaultSimulator(circuit)
    remaining = list(faults)
    trimmed: list[Triplet] = []
    deltas: list[int] = []
    for triplet, patterns in zip(triplets, packed_test_sets(tpg, triplets)):
        if not remaining or not patterns:
            trimmed.append(triplet.with_length(min(1, triplet.length)))
            deltas.append(0)
            continue
        first_hits = simulator.first_detection_index(patterns, remaining)
        hit_indices = [i for i in first_hits if i is not None]
        if not hit_indices:
            trimmed.append(triplet.with_length(min(1, triplet.length)))
            deltas.append(0)
            continue
        trimmed.append(triplet.with_length(max(hit_indices) + 1))
        deltas.append(len(hit_indices))
        remaining = [
            fault for fault, hit in zip(remaining, first_hits) if hit is None
        ]
    return TrimmedSolution(
        ReseedingSolution.from_list(trimmed), tuple(deltas), tuple(remaining)
    )


@st.composite
def cases(draw):
    """A random circuit, a triplet pool and a selection over it: rows
    may repeat (duplicate triplets) and lengths include T = 1 and
    lengths across the uint8/uint16 offset switch."""
    seed = draw(st.integers(0, 10_000))
    circuit = generate_circuit(
        GeneratorSpec(
            name=f"trim{seed}",
            n_inputs=draw(st.integers(3, 7)),
            n_outputs=draw(st.integers(1, 3)),
            n_gates=draw(st.integers(5, 30)),
            seed=seed,
        )
    )
    rng = RngStream(seed, "trim-oracle")
    tpg = make_tpg(draw(st.sampled_from(["adder", "lfsr"])), circuit.n_inputs)
    lengths = draw(
        st.lists(st.sampled_from((1, 2, 7, 64, 65, 300)), min_size=1, max_size=6)
    )
    pool = [
        Triplet(
            BitVector.random(circuit.n_inputs, rng), tpg.suggest_sigma(rng), length
        )
        for length in lengths
    ]
    selected = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=2 * len(pool))
    )
    return circuit, tpg, pool, selected


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(case=cases(), drop_faults=st.booleans())
def test_reduction_matches_sequential_simulation(case, drop_faults):
    circuit, tpg, pool, selected = case
    faults = [] if drop_faults else full_fault_list(circuit)
    matrix = build_detection_matrix(circuit, tpg, pool, faults)
    got = trim_solution(matrix, selected)
    want = trim_oracle(circuit, tpg, [pool[row] for row in selected], faults)
    assert got == want


def test_useless_and_duplicate_triplets(c17):
    """A repeated triplet and one that detects nothing new each keep only
    the seed pattern and add nothing."""
    tpg = make_tpg("adder", c17.n_inputs)
    rng = RngStream(1, "trim-useless")
    pool = [
        Triplet(BitVector.random(5, rng), tpg.suggest_sigma(rng), 64),
        Triplet(BitVector.random(5, rng), tpg.suggest_sigma(rng), 1),
    ]
    faults = full_fault_list(c17)
    matrix = build_detection_matrix(c17, tpg, pool, faults)
    got = trim_solution(matrix, [0, 0, 1])
    assert got == trim_oracle(c17, tpg, [pool[0], pool[0], pool[1]], faults)
    assert [t.length for t in got.solution.triplets[1:]] == [1, 1]
    assert got.delta_coverage[1:] == (0, 0)


def test_empty_fault_list(c17):
    tpg = make_tpg("adder", c17.n_inputs)
    pool = [Triplet(BitVector(3, 5), BitVector(1, 5), 8)]
    got = trim_solution(build_detection_matrix(c17, tpg, pool, []), [0])
    assert [t.length for t in got.solution.triplets] == [1]
    assert got.delta_coverage == (0,) and got.undetected == ()


def test_decoded_matrix_cannot_be_trimmed():
    """A stored result keeps only the boolean matrix: trimming its
    decoded matrix names the missing offsets."""
    session = Session(load_circuit("c17"), PipelineConfig(evolution_length=8))
    result = session.run("adder")
    trim_solution(result.detection_matrix, result.cover.selected)
    clone = PipelineResult.from_dict(json.loads(result.to_json()))
    assert clone.detection_matrix.offsets is None
    with pytest.raises(ValueError, match="first-detection offsets"):
        trim_solution(clone.detection_matrix, clone.cover.selected)
