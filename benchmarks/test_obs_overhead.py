"""Telemetry overhead guard: instrumentation must be free when off.

The ISSUE 8 acceptance bar: running the fault-sim workload with
telemetry disabled (the default everywhere) must cost within 2% of the
seed throughput, and attaching a live :class:`repro.obs.MetricsRegistry`
must not slow the kernels either — the simulator exports its counters
through a scrape-time collector, so the simulate/scan hot loops are
instruction-identical in both states.

Measured on the same s1238@0.2 detection-matrix workload as
``test_fault_sim_throughput.py`` (best-of-N interleaved so CPU
frequency drift hits both sides equally).  The disabled path *is* the
seed path — the hot loops bump the same plain ``int`` counters either
way — so the guard pins the live-registry run against the disabled run.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits import load_circuit
from repro.faults.collapse import collapse_faults
from repro.obs import MetricsRegistry
from repro.sim.batch import BatchFaultSimulator
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

#: Same workload shape as test_fault_sim_throughput.py so the numbers
#: are directly comparable.
THROUGHPUT_SCALE = 0.2
N_ROWS = 8
PATTERNS_PER_ROW = 32

#: Interleaved repetitions per side; best-of damps scheduler noise.
N_REPS = 3

#: Acceptance: telemetry-enabled throughput within 2% of disabled
#: (plus a small absolute floor so sub-10ms runs aren't judged on
#: timer jitter alone).
MAX_OVERHEAD = 0.02
ABS_SLACK_SECONDS = 0.002

def _workload(name: str):
    circuit = load_circuit(name, scale=THROUGHPUT_SCALE)
    faults = collapse_faults(circuit)
    rng = RngStream(3, "throughput", name)
    rows = [
        [BitVector.random(circuit.n_inputs, rng) for _ in range(PATTERNS_PER_ROW)]
        for _ in range(N_ROWS)
    ]
    return circuit, faults, rows


def _run(circuit, faults, rows, registry=None):
    simulator = BatchFaultSimulator(circuit)
    if registry is not None:
        simulator.attach_metrics(registry)
    start = time.perf_counter()
    result = list(simulator.detection_matrix_rows(rows, faults))
    return result, time.perf_counter() - start, simulator


@pytest.mark.parametrize("name", ["s1238"])
def test_disabled_telemetry_overhead_floor(name):
    """Attaching a live registry must not change fault-sim throughput
    (within 2% / 2ms, best-of-N interleaved on s1238@0.2)."""
    circuit, faults, rows = _workload(name)
    # Warm the compile caches outside the measured region.
    _run(circuit, faults, rows)

    disabled_times: list[float] = []
    enabled_times: list[float] = []
    disabled_rows = enabled_rows = None
    for _ in range(N_REPS):
        disabled_rows, seconds, _sim = _run(circuit, faults, rows)
        disabled_times.append(seconds)
        enabled_rows, seconds, sim = _run(
            circuit, faults, rows, registry=MetricsRegistry()
        )
        enabled_times.append(seconds)
    # Instrumentation must not change answers either.
    for disabled_row, enabled_row in zip(disabled_rows, enabled_rows):
        np.testing.assert_array_equal(disabled_row, enabled_row)
    assert sim.words_simulated > 0  # the counters did count

    disabled = min(disabled_times)
    enabled = min(enabled_times)
    budget = max(disabled * (1.0 + MAX_OVERHEAD), disabled + ABS_SLACK_SECONDS)
    assert enabled <= budget, (
        f"telemetry-enabled fault sim {enabled:.4f}s vs disabled "
        f"{disabled:.4f}s on {name} — exceeds the {MAX_OVERHEAD:.0%} "
        f"overhead budget ({budget:.4f}s)"
    )


def test_scrape_cost_is_off_hot_path():
    """Collecting samples happens at scrape time only: a scrape after
    the run sees the final counter values without having touched the
    measured loops."""
    circuit, faults, rows = _workload("s1238")
    registry = MetricsRegistry()
    _result, _seconds, sim = _run(circuit, faults, rows, registry=registry)
    value = registry.scalar_value("repro_sim_words_simulated_total")
    assert value == float(sim.words_simulated) > 0
