"""Golden regression pins for the fault-simulation stack.

These constants were produced by the engines at the seed RNG and are
intentionally hard-coded: any future "optimization" that silently
changes fault coverage, detection counts, or Detection Matrix contents
for the catalog circuits fails here first.  If a change is *supposed*
to alter results (e.g. a new fault model), regenerate the constants and
say so in the commit.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.circuits import load_circuit
from repro.faults.model import full_fault_list
from repro.sim.fault import FaultSimulator
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

from oracles.serial import SerialFaultSimulator

N_GOLDEN_PATTERNS = 128
GOLDEN_SEED = 2001


@dataclass(frozen=True)
class GoldenStats:
    """Pinned per-circuit results at the seed RNG."""

    n_faults: int
    n_detected: int
    matrix_ones: int


GOLDEN: dict[str, GoldenStats] = {
    "c499": GoldenStats(n_faults=1198, n_detected=920, matrix_ones=29524),
    "c880": GoldenStats(n_faults=2282, n_detected=1679, matrix_ones=56070),
    "s420": GoldenStats(n_faults=1316, n_detected=439, matrix_ones=16918),
}


def _golden_workload(name: str):
    circuit = load_circuit(name)
    faults = full_fault_list(circuit)
    rng = RngStream(GOLDEN_SEED, "golden", name)
    patterns = [
        BitVector.random(circuit.n_inputs, rng) for _ in range(N_GOLDEN_PATTERNS)
    ]
    return circuit, faults, patterns


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_detection_matrix_pinned(name):
    circuit, faults, patterns = _golden_workload(name)
    expected = GOLDEN[name]
    assert len(faults) == expected.n_faults
    simulator = FaultSimulator(circuit)
    matrix = simulator.detection_matrix(patterns, faults)
    assert matrix.shape == (N_GOLDEN_PATTERNS, expected.n_faults)
    assert int(matrix.sum()) == expected.matrix_ones


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fault_coverage_pinned(name):
    circuit, faults, patterns = _golden_workload(name)
    expected = GOLDEN[name]
    simulator = FaultSimulator(circuit)
    flags = simulator.detected(patterns, faults)
    assert sum(flags) == expected.n_detected
    assert simulator.fault_coverage(patterns, faults) == pytest.approx(
        expected.n_detected / expected.n_faults
    )


#: First-detection-index pins for the *incremental-plan* scan path
#: (``row_chunk_words=1`` scans one word per full-batch call, so faults
#: retire and plans subset after the first 64-pattern word): number of
#: detected faults plus the sum of all first detection indices.
#: Together with the cold-path assertions below, these pin the warm
#: (plan-subsetting) and cold (full-build) paths to each other — they
#: can never diverge silently.
GOLDEN_FIRST_DETECTION: dict[str, tuple[int, int]] = {
    "c499": (920, 11328),
    "c880": (1679, 20111),
    "s420": (439, 4027),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_FIRST_DETECTION))
def test_incremental_plan_scan_pinned(name):
    """The fault-dropping scan (plans subset mid-run via index masks)
    reproduces the pinned first-detection indices, and a no-dropping
    cold-plan run agrees index-for-index."""
    from repro.sim.batch import BatchFaultSimulator

    circuit, faults, patterns = _golden_workload(name)
    expected_detected, expected_index_sum = GOLDEN_FIRST_DETECTION[name]
    warm = BatchFaultSimulator(circuit, row_chunk_words=1)
    indices = warm.first_detection_index(patterns, faults)
    assert warm.plan_subsets > 0, "scan never exercised plan subsetting"
    detected = [index for index in indices if index is not None]
    assert len(detected) == expected_detected == GOLDEN[name].n_detected
    assert sum(detected) == expected_index_sum
    # Cold path: one call spanning the whole set => no dropping, every
    # plan built from scratch; must agree with the warm path bit-for-bit.
    cold = BatchFaultSimulator(circuit, row_chunk_words=64)
    assert cold.first_detection_index(patterns, faults) == indices
    assert cold.plan_subsets == 0


#: End-to-end flow pins (scale 0.25, adder TPG, T=16, 512 random
#: patterns, seed 2001): Table-1's (#Triplets, TestLength) per circuit.
#: They are the pre-stage pipeline implementation's, which ran the scalar
#: PODEM top-off; the fault-parallel top-off reaches the same aggregates.
GOLDEN_PIPELINE: dict[str, tuple[int, int]] = {
    "c499": (4, 52),
    "c880": (7, 81),
    "s420": (1, 14),
}

_PIPELINE_SCALE = 0.25


def _golden_pipeline_config():
    from repro.flow.pipeline import PipelineConfig

    return PipelineConfig(evolution_length=16, max_random_patterns=512)


@pytest.mark.parametrize("name", sorted(GOLDEN_PIPELINE))
def test_pipeline_results_pinned(name):
    """`Session.run()` through the stage machinery keeps the exact
    #Triplets / TestLength of the seed implementation."""
    from repro.flow.session import Session

    circuit = load_circuit(name, scale=_PIPELINE_SCALE)
    result = Session(circuit, _golden_pipeline_config()).run("adder")
    assert (result.n_triplets, result.test_length) == GOLDEN_PIPELINE[name]
    assert result.atpg.measured_coverage == 1.0


@pytest.mark.parametrize("name", sorted(GOLDEN_PIPELINE))
def test_session_agrees_with_pipeline_pins(name):
    """The Session/stage path and a cache round trip reproduce the pins."""
    from repro.flow.session import Session

    session = Session.from_name(
        name, scale=_PIPELINE_SCALE, config=_golden_pipeline_config()
    )
    result = session.run("adder")
    assert (result.n_triplets, result.test_length) == GOLDEN_PIPELINE[name]
    clone = type(result).from_dict(result.to_dict())
    assert (clone.n_triplets, clone.test_length) == GOLDEN_PIPELINE[name]


#: Three-valued pins: the same circuits under an X-seeded pattern bank
#: (128 patterns, 12.5% of input bits forced to X at the seed RNG).
#: ``n_detected``/``matrix_ones`` pin the pessimistic plane-algebra
#: detection (strictly below the 2-valued numbers — X only loses
#: detections); ``n_masked``/``signature`` pin the X-masked MISR
#: compaction.  The X-free half of the contract needs no new constants:
#: ``test_threeval_x_free_matches_golden`` reuses ``GOLDEN`` verbatim.
@dataclass(frozen=True)
class GoldenThreeVal:
    """Pinned 3-valued results for one circuit's X-seeded bank."""

    n_detected: int
    matrix_ones: int
    x_count: int
    n_masked: int
    signature: str


GOLDEN_THREEVAL: dict[str, GoldenThreeVal] = {
    "c499": GoldenThreeVal(
        n_detected=729,
        matrix_ones=14232,
        x_count=695,
        n_masked=904,
        signature="01111110001101111100110001000010",
    ),
    "c880": GoldenThreeVal(
        n_detected=1138,
        matrix_ones=9745,
        x_count=961,
        n_masked=1444,
        signature="01011101110011011011110100",
    ),
    "s420": GoldenThreeVal(
        n_detected=404,
        matrix_ones=11277,
        x_count=546,
        n_masked=341,
        signature="11011101010001011",
    ),
}

_X_FRACTION = 0.125


def _golden_threeval_workload(name: str, x_bank):
    circuit = load_circuit(name)
    faults = full_fault_list(circuit)
    bank = x_bank(
        circuit.n_inputs, N_GOLDEN_PATTERNS, _X_FRACTION, GOLDEN_SEED,
        "golden-3v", name,
    )
    return circuit, faults, bank


@pytest.mark.parametrize("name", sorted(GOLDEN_THREEVAL))
def test_threeval_coverage_pinned(name, x_bank):
    from repro.sim.batch import BatchFaultSimulator

    circuit, faults, bank = _golden_threeval_workload(name, x_bank)
    expected = GOLDEN_THREEVAL[name]
    assert bank.x_count() == expected.x_count
    simulator = BatchFaultSimulator(circuit)
    flags = simulator.detected(bank, faults)
    assert sum(flags) == expected.n_detected
    # Pessimism against the 2-valued pins: X never adds detections.
    assert expected.n_detected < GOLDEN[name].n_detected
    matrix = simulator.detection_matrix(bank, faults)
    assert int(matrix.sum()) == expected.matrix_ones
    assert expected.matrix_ones < GOLDEN[name].matrix_ones


@pytest.mark.parametrize("name", sorted(GOLDEN_THREEVAL))
def test_threeval_masked_signature_pinned(name, x_bank):
    from repro.sim.misr import x_masked_signature

    circuit, _, bank = _golden_threeval_workload(name, x_bank)
    expected = GOLDEN_THREEVAL[name]
    signature, n_masked = x_masked_signature(circuit, bank)
    assert n_masked == expected.n_masked
    assert signature.to_string() == expected.signature


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_threeval_x_free_matches_golden(name):
    """The simulator fed the X-free golden patterns as planes (``m = 2``)
    reproduces the 2-valued pins exactly — same constants, different
    algebra."""
    from repro.sim.batch import BatchFaultSimulator
    from repro.sim.misr import golden_signature, x_masked_signature
    from repro.utils.bitvec import as_planes, pack_patterns, PackedPatterns

    circuit, faults, patterns = _golden_workload(name)
    expected = GOLDEN[name]
    simulator = BatchFaultSimulator(circuit)
    packed = PackedPatterns(
        pack_patterns(patterns, circuit.n_inputs), len(patterns)
    )
    planes = as_planes(packed, circuit.n_inputs)
    assert sum(simulator.detected(planes, faults)) == expected.n_detected
    matrix = simulator.detection_matrix(planes, faults)
    assert int(matrix.sum()) == expected.matrix_ones
    masked, n_masked = x_masked_signature(circuit, planes)
    assert n_masked == 0
    assert masked == golden_signature(circuit, patterns)


#: Effect-cause diagnosis pins (the 128 golden patterns, one injected
#: collapsed fault drawn at the seed RNG).  ``rank`` is the injected
#: fault's position in the ranking; 2 on c499 is real physics, not a
#: bug — the top candidate there is output-level indistinguishable from
#: the injected fault on this pattern set, and the tie breaks on fault
#: order.
@dataclass(frozen=True)
class GoldenDiagnosis:
    """Pinned diagnosis outcome for one injected-fault scenario."""

    injected: str
    top: str
    rank: int
    n_failing: int
    n_candidates: int


GOLDEN_DIAGNOSIS: dict[str, GoldenDiagnosis] = {
    "c499": GoldenDiagnosis(
        injected="g131/SA0",
        top="g110->g160.0/SA1",
        rank=2,
        n_failing=3,
        n_candidates=146,
    ),
    "c880": GoldenDiagnosis(
        injected="pi45->g40.1/SA1",
        top="pi45->g40.1/SA1",
        rank=1,
        n_failing=40,
        n_candidates=1139,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIAGNOSIS))
def test_diagnosis_ranking_pinned(name):
    """Effect-cause diagnosis reproduces the pinned candidate ranking
    for a deterministic injected fault, and the injected fault is never
    ranked worse than third."""
    from repro.diagnosis import (
        choose_faults,
        diagnose_effect_cause,
        fault_representatives,
        make_fail_log,
    )
    from repro.faults.collapse import collapse_faults

    circuit, _, patterns = _golden_workload(name)
    expected = GOLDEN_DIAGNOSIS[name]
    collapsed = collapse_faults(circuit)
    simulator = FaultSimulator(circuit)
    detected = simulator.detected(patterns, collapsed)
    detectable = [f for f, flag in zip(collapsed, detected) if flag]
    target = choose_faults(
        detectable, 1, RngStream(GOLDEN_SEED, "golden-diagnosis", name)
    )[0]
    assert str(target) == expected.injected
    log = make_fail_log(circuit, patterns, target, simulator.compiled)
    result = diagnose_effect_cause(
        circuit, patterns, log.responses, faults=collapsed,
        simulator=simulator, top_k=5,
    )
    assert str(result.candidates[0].fault) == expected.top
    assert result.n_failing == expected.n_failing
    assert result.n_candidates_considered == expected.n_candidates
    rank = result.rank_of(fault_representatives(circuit)[target])
    assert rank == expected.rank
    assert rank <= 3


@pytest.mark.slow
def test_serial_engine_agrees_with_golden_c499():
    """The legacy baseline reproduces the same pinned numbers — the pins
    are engine-independent facts about the circuits, not batch-engine
    artefacts."""
    circuit, faults, patterns = _golden_workload("c499")
    expected = GOLDEN["c499"]
    simulator = SerialFaultSimulator(circuit)
    assert sum(simulator.detected(patterns, faults)) == expected.n_detected
    matrix = simulator.detection_matrix(patterns, faults)
    assert int(matrix.sum()) == expected.matrix_ones
