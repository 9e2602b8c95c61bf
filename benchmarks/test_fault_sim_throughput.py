"""Fault-simulation throughput: batched engine vs per-fault baseline.

Tracks faults x patterns per second for Detection Matrix row
construction on ``c880`` and ``s1238`` (the workload the paper's flow
spends nearly all of its time in), and asserts two floors so the
optimizations cannot silently regress:

* the batched engine stays >= 3x the legacy per-fault engine on
  ``s1238`` (the PR 1 acceptance bar), and
* the chunked row path (rows packed word-aligned and simulated
  together) stays >= 1.5x the row-at-a-time batched path
  (``row_chunk_words=1``: one one-word ``_BatchPlan.detect`` per fault
  batch per row) on *both* workloads — measured in-process on the same
  machine, so the floor is hardware-independent.  For trajectory
  context, the PR 1 reference container recorded 0.0429s (c880) /
  0.0635s (s1238) for this workload; the chunked engine measures
  ~4.5-5.5x faster on the same container.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits import load_circuit
from repro.faults.collapse import collapse_faults
from repro.sim.batch import BatchFaultSimulator
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

from oracles.serial import SerialFaultSimulator

#: Circuit scale for the throughput workloads (matches conftest's
#: BENCH_SCALE so numbers are comparable across benchmark files).
THROUGHPUT_SCALE = 0.2

#: Detection-matrix workload: rows of 32-pattern test sets.
N_ROWS = 8
PATTERNS_PER_ROW = 32

#: Required batched-vs-serial advantage on s1238 (acceptance floor 3x;
#: measured ~5-6x on the reference container).
MIN_SPEEDUP = 3.0

#: Required chunked-vs-row-at-a-time advantage (acceptance floor 1.5x
#: over the PR 1 batched path; measured ~4-5x on the reference
#: container for both c880@0.2 and s1238@0.2).
MIN_CHUNKED_SPEEDUP = 1.5


def _workload(name: str):
    circuit = load_circuit(name, scale=THROUGHPUT_SCALE)
    faults = collapse_faults(circuit)
    rng = RngStream(3, "throughput", name)
    rows = [
        [BitVector.random(circuit.n_inputs, rng) for _ in range(PATTERNS_PER_ROW)]
        for _ in range(N_ROWS)
    ]
    return circuit, faults, rows


def _run_batched(circuit, faults, rows):
    simulator = BatchFaultSimulator(circuit)
    return list(simulator.detection_matrix_rows(rows, faults))


def _run_row_at_a_time(circuit, faults, rows):
    """Row at a time: ``row_chunk_words=1`` gives every fault-machine
    call one word at full batch width, so each 32-pattern row costs one
    ``_BatchPlan.detect`` per plan (the fault-free pass is shared by a
    chunk of ``CHUNK_BUDGETS`` rows)."""
    simulator = BatchFaultSimulator(circuit)
    return list(
        simulator.detection_matrix_rows(rows, faults, row_chunk_words=1)
    )


def _run_serial(circuit, faults, rows):
    simulator = SerialFaultSimulator(circuit)
    return [simulator.detected(patterns, faults) for patterns in rows]


@pytest.mark.parametrize("name", ["c880", "s1238"])
def test_batched_matrix_rows_throughput(benchmark, name):
    circuit, faults, rows = _workload(name)
    result = benchmark(_run_batched, circuit, faults, rows)
    assert len(result) == N_ROWS
    benchmark.extra_info["n_faults"] = len(faults)


@pytest.mark.parametrize("name", ["c880", "s1238"])
def test_row_at_a_time_baseline_throughput(benchmark, name):
    """The PR 1 batched schedule, kept measurable next to the chunked
    path."""
    circuit, faults, rows = _workload(name)
    result = benchmark(_run_row_at_a_time, circuit, faults, rows)
    assert len(result) == N_ROWS
    benchmark.extra_info["n_faults"] = len(faults)


@pytest.mark.parametrize("name", ["c880", "s1238"])
def test_serial_baseline_throughput(benchmark, name):
    circuit, faults, rows = _workload(name)
    result = benchmark(_run_serial, circuit, faults, rows)
    assert len(result) == N_ROWS
    benchmark.extra_info["n_faults"] = len(faults)


def _best_of_two(run, circuit, faults, rows):
    times = []
    for _ in range(2):
        start = time.perf_counter()
        result = run(circuit, faults, rows)
        times.append(time.perf_counter() - start)
    return result, min(times)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["c880", "s1238"])
def test_chunked_speedup_floor(name):
    """The chunked row path must stay >= 1.5x the PR 1 row-at-a-time
    batched path on c880@0.2 and s1238@0.2 (best-of-two timings; the
    reference container measures ~4-5x).

    Marked ``slow`` like the other wall-clock ratio floor; CI runs it
    in the dedicated benchmark-floor step.
    """
    circuit, faults, rows = _workload(name)
    baseline_rows, baseline_time = _best_of_two(
        _run_row_at_a_time, circuit, faults, rows
    )
    chunked_rows, chunked_time = _best_of_two(_run_batched, circuit, faults, rows)
    # Same workload, identical results — the speedup is not bought with
    # wrong answers.
    for baseline_row, chunked_row in zip(baseline_rows, chunked_rows):
        np.testing.assert_array_equal(np.asarray(baseline_row), chunked_row)
    speedup = baseline_time / chunked_time
    assert speedup >= MIN_CHUNKED_SPEEDUP, (
        f"chunked rows only {speedup:.2f}x the row-at-a-time path on {name} "
        f"(row-at-a-time {baseline_time:.3f}s, chunked {chunked_time:.3f}s)"
    )


@pytest.mark.slow
def test_batched_speedup_floor_s1238():
    """Batched detection-matrix construction must stay >= 3x the
    per-fault baseline on s1238 (best-of-two timing to damp noise).

    Marked ``slow``: wall-clock ratio assertions belong in deliberate
    benchmark runs (``-m "slow or not slow"``), not in tier-1 or CI
    smoke on contended shared runners.
    """
    circuit, faults, rows = _workload("s1238")

    def best_of_two(run):
        times = []
        for _ in range(2):
            start = time.perf_counter()
            result = run(circuit, faults, rows)
            times.append(time.perf_counter() - start)
        return result, min(times)

    serial_rows, serial_time = best_of_two(_run_serial)
    batched_rows, batched_time = best_of_two(_run_batched)
    # Same workload, identical results — the speedup is not bought with
    # wrong answers.
    for serial_row, batched_row in zip(serial_rows, batched_rows):
        np.testing.assert_array_equal(np.asarray(serial_row), batched_row)
    speedup = serial_time / batched_time
    assert speedup >= MIN_SPEEDUP, (
        f"batched engine only {speedup:.2f}x the per-fault baseline "
        f"(serial {serial_time:.3f}s, batched {batched_time:.3f}s)"
    )
