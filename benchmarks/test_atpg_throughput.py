"""Deterministic ATPG throughput: fault-parallel batch PODEM vs the
recursive oracle.

The workload is the deterministic top-off the engine actually runs: the
collapsed stuck-at universe of ``s1238``, every fault taken through test
generation.  ``BatchPodem`` implies a whole batch of fault lanes per
sweep (uint64 interval rails, known-1 and not-known-0, one reduce per
fold group of a level) and runs the search for every lane in lock
step; the recursive :class:`~oracles.podem.Podem` pays an
event-driven three-valued resimulation and a scalar search step per
decision per fault.

Two tiers:

* always-on pytest-benchmark timings of both engines at
  ``RECORD_SCALE``;
* the slow-marked floor test runs the full-size circuit and asserts the
  batch engine stays **>= 3x** the recursive one (measured ~11x on a
  2-vCPU host: recursive 9.9-10.2 s, batch 0.84-0.94 s) — after first
  asserting the two engines' results are bit-identical fault for fault,
  so the speedup is never bought with a different search.

``FLOOR_BACKTRACK_LIMIT`` (applied identically to both engines) keeps
the handful of pathological s1238 faults from dominating either side's
wall clock; every fault still resolves without hitting it.
"""

from __future__ import annotations

import time

import pytest

from repro.atpg.batch_podem import BatchPodem
from repro.circuits import load_circuit
from repro.faults.collapse import collapse_faults

from oracles.podem import Podem

#: Scale for the always-on record benchmarks (kept small so the default
#: suite stays fast); the floor test runs the real circuit.
RECORD_SCALE = 0.25
FLOOR_SCALE = 1.0

#: Backtrack limit for the floor workload, identical for both engines.
FLOOR_BACKTRACK_LIMIT = 64

#: Batch geometry for the floor run: wider than the engine default to
#: keep lane occupancy high across the whole fault list.
FLOOR_BATCH_SIZE = 384

#: Required batch-vs-recursive advantage on the full-size workload
#: (acceptance floor 3x; measured ~11x on a 2-vCPU host).
MIN_SPEEDUP = 3.0


def _workload(scale: float):
    circuit = load_circuit("s1238", scale=scale)
    return circuit, collapse_faults(circuit)


def _result_key(result):
    return (
        result.status,
        result.cube.assignments if result.cube is not None else None,
        result.backtracks,
        result.decisions,
    )


def _run_recursive(circuit, faults, limit):
    podem = Podem(circuit, backtrack_limit=limit)
    return {fault: _result_key(podem.generate(fault)) for fault in faults}


def _run_batch(circuit, faults, limit, **kwargs):
    podem = BatchPodem(circuit, backtrack_limit=limit, **kwargs)
    return {
        fault: _result_key(result) for fault, result in podem.stream(faults)
    }


def test_batch_podem_throughput(benchmark):
    circuit, faults = _workload(RECORD_SCALE)
    results = benchmark(_run_batch, circuit, faults, 250)
    assert len(results) == len(faults)


def test_recursive_podem_throughput(benchmark):
    """The scalar baseline, kept measurable next to the batch
    engine."""
    circuit, faults = _workload(RECORD_SCALE)
    results = benchmark(_run_recursive, circuit, faults, 250)
    assert len(results) == len(faults)


def _best_of_two(run, *args, **kwargs):
    times = []
    for _ in range(2):
        start = time.perf_counter()
        result = run(*args, **kwargs)
        times.append(time.perf_counter() - start)
    return result, min(times)


@pytest.mark.slow
def test_batch_speedup_floor():
    """Batch PODEM must stay >= 3x the recursive oracle on the full
    collapsed s1238 fault universe (best-of-two timings each side).

    Marked ``slow`` like the other wall-clock ratio floors; CI runs it
    in the dedicated benchmark-floor step.
    """
    circuit, faults = _workload(FLOOR_SCALE)
    recursive, recursive_time = _best_of_two(
        _run_recursive, circuit, faults, FLOOR_BACKTRACK_LIMIT
    )
    batch, batch_time = _best_of_two(
        _run_batch,
        circuit,
        faults,
        FLOOR_BACKTRACK_LIMIT,
        batch_size=FLOOR_BATCH_SIZE,
    )
    # Same workload, identical results fault for fault — the speedup is
    # not bought with a different search.
    assert batch == recursive
    speedup = recursive_time / batch_time
    assert speedup >= MIN_SPEEDUP, (
        f"batch PODEM only {speedup:.2f}x the recursive oracle "
        f"(recursive {recursive_time:.2f}s, batch {batch_time:.2f}s)"
    )
