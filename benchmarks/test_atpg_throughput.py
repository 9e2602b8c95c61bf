"""Deterministic ATPG throughput: fault-parallel batch PODEM vs the
recursive oracle.

The workload is the deterministic top-off the engine actually runs: the
collapsed stuck-at universe of ``s1238``, every fault taken through test
generation.  ``BatchPodem`` implies a whole batch of fault lanes per
sweep on the compiled plan (uint64 value/care bit-planes, one
``reduceat`` per (level, base gate type) group); the recursive
:class:`~repro.atpg.podem.Podem` pays an event-driven three-valued
resimulation per decision per fault.

Two tiers:

* always-on records at ``RECORD_SCALE`` land the per-engine timings in
  ``BENCH_atpg.json`` on every benchmark run (the machine-readable perf
  trajectory; see ``docs/benchmarks.md`` for the field glossary);
* the slow-marked floor test runs the full-size circuit and asserts the
  batch engine stays **>= 3x** the recursive one (measured ~3.2-3.7x on
  the reference container) — after first asserting the two engines'
  results are bit-identical fault for fault, so the speedup is never
  bought with a different search.

``FLOOR_BACKTRACK_LIMIT`` (applied identically to both engines) keeps
the handful of pathological s1238 faults from dominating either side's
wall clock; every fault still resolves without hitting it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.atpg.batch_podem import BatchPodem
from repro.atpg.podem import Podem
from repro.circuits import load_circuit
from repro.faults.collapse import collapse_faults

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
#: (acceptance floor 3x; measured ~3.2-3.7x on the reference container).
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


#: Per-engine timing records, flushed to ``BENCH_atpg.json`` at module
#: teardown.
_RECORDS: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _emit_bench_document(bench_json_writer):
    yield
    if not _RECORDS:
        return
    # Merge with the document on disk so a floor-only run (CI's
    # dedicated `-m slow` step deselects the record tests) augments the
    # record-scale entries instead of replacing them.
    existing = Path(__file__).resolve().parents[1] / "BENCH_atpg.json"
    workloads: dict[str, dict] = {}
    if existing.is_file():
        try:
            workloads.update(json.loads(existing.read_text())["workloads"])
        except (ValueError, KeyError):
            pass
    workloads.update(_RECORDS)
    payload = {
        "benchmark": "atpg_throughput",
        "circuit": "s1238",
        "workloads": dict(sorted(workloads.items())),
    }
    batch = workloads.get(f"batch/scale={RECORD_SCALE}")
    recursive = workloads.get(f"recursive/scale={RECORD_SCALE}")
    if batch and recursive and batch["seconds"]:
        payload["speedup_batch_vs_recursive"] = round(
            recursive["seconds"] / batch["seconds"], 2
        )
    floor = workloads.get(f"floor/scale={FLOOR_SCALE}")
    if floor:
        payload["floor"] = floor
    bench_json_writer("BENCH_atpg.json", payload)


def _record(key: str, n_faults: int, benchmark, elapsed: float) -> None:
    """One workload record: pytest-benchmark's mean when it measured,
    the single-run wall time under ``--benchmark-disable``."""
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    seconds = stats.mean if stats is not None and stats.mean else elapsed
    _RECORDS[key] = {
        "seconds": round(seconds, 6),
        "n_faults": n_faults,
        "faults_per_sec": round(n_faults / seconds, 1),
    }


def test_batch_podem_throughput(benchmark):
    circuit, faults = _workload(RECORD_SCALE)
    start = time.perf_counter()
    results = benchmark(_run_batch, circuit, faults, 250)
    elapsed = time.perf_counter() - start
    assert len(results) == len(faults)
    key = f"batch/scale={RECORD_SCALE}"
    _record(key, len(faults), benchmark, elapsed)
    benchmark.extra_info["faults_per_sec"] = _RECORDS[key]["faults_per_sec"]


def test_recursive_podem_throughput(benchmark):
    """The scalar baseline, kept measurable so the batch engine's
    advantage lands in ``BENCH_atpg.json`` on every run."""
    circuit, faults = _workload(RECORD_SCALE)
    start = time.perf_counter()
    results = benchmark(_run_recursive, circuit, faults, 250)
    elapsed = time.perf_counter() - start
    assert len(results) == len(faults)
    _record(
        f"recursive/scale={RECORD_SCALE}", len(faults), benchmark, elapsed
    )


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
    _RECORDS[f"floor/scale={FLOOR_SCALE}"] = {
        "recursive_seconds": round(recursive_time, 4),
        "batch_seconds": round(batch_time, 4),
        "n_faults": len(faults),
        "speedup": round(speedup, 2),
        "min_speedup": MIN_SPEEDUP,
    }
    assert speedup >= MIN_SPEEDUP, (
        f"batch PODEM only {speedup:.2f}x the recursive oracle "
        f"(recursive {recursive_time:.2f}s, batch {batch_time:.2f}s)"
    )
