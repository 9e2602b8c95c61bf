"""Telemetry overhead guard: instrumentation must be free when off.

Running the fault-sim workload with a live :class:`repro.obs.
MetricsRegistry` attached must do exactly the work of the disabled
(default) path: the simulator exports its counters through a
scrape-time collector, so the simulate/scan hot loops bump the same
plain ``int`` counters either way.  The guard is counter equality, not
a wall-clock budget: the rows and every simulator work counter
(``words_simulated``, ``detect_cells``, ``plan_builds``,
``plan_cache_hits``, ``plan_subsets``) must be identical with and
without the registry.  A timing budget on a shared host only measures
the host.

Measured on the same s1238@0.2 detection-matrix workload as
``test_fault_sim_throughput.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import load_circuit
from repro.faults.collapse import collapse_faults
from repro.obs import MetricsRegistry
from repro.sim.batch import BatchFaultSimulator
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

#: Same workload shape as test_fault_sim_throughput.py.
THROUGHPUT_SCALE = 0.2
N_ROWS = 8
PATTERNS_PER_ROW = 32

#: The simulator's work counters, all exported by its collector.
COUNTERS = (
    "words_simulated",
    "detect_cells",
    "plan_builds",
    "plan_cache_hits",
    "plan_subsets",
)


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
    # Twice over the same fault list, so the plan cache serves hits.
    result = list(simulator.detection_matrix_rows(rows, faults))
    result += list(simulator.detection_matrix_rows(rows, faults))
    return result, simulator


@pytest.mark.parametrize("name", ["s1238"])
def test_disabled_telemetry_overhead_floor(name):
    """Attaching a live registry changes no row and no work counter of
    the fault-sim workload on s1238@0.2."""
    circuit, faults, rows = _workload(name)
    disabled_rows, disabled = _run(circuit, faults, rows)
    enabled_rows, enabled = _run(circuit, faults, rows, registry=MetricsRegistry())
    assert len(disabled_rows) == len(enabled_rows) == 2 * N_ROWS
    for disabled_row, enabled_row in zip(disabled_rows, enabled_rows):
        np.testing.assert_array_equal(disabled_row, enabled_row)
    for counter in COUNTERS:
        assert getattr(enabled, counter) == getattr(disabled, counter), counter
    assert disabled.words_simulated > 0  # the counters did count
    assert disabled.detect_cells > 0
    assert disabled.plan_cache_hits > 0


def test_scrape_cost_is_off_hot_path():
    """Collecting samples happens at scrape time only: a scrape after
    the run sees the final counter values without having touched the
    measured loops."""
    circuit, faults, rows = _workload("s1238")
    registry = MetricsRegistry()
    _result, sim = _run(circuit, faults, rows, registry=registry)
    value = registry.scalar_value("repro_sim_words_simulated_total")
    assert value == float(sim.words_simulated) > 0
