"""Diagnosis throughput + the subsystem's acceptance bars.

The workload is the ISSUE's measurable target: a single stuck-at fault
injected into full-size ``c880`` under a 256-pattern BIST session.
Asserted here (and mirrored in the unit tests):

* effect-cause diagnosis ranks the injected fault in the **top 3**
  candidates;
* signature-only mode localises the failing window while re-simulating
  at most **15%** of the session's patterns, with a logarithmic
  prefix-query budget.
"""

from __future__ import annotations

import math

import pytest

from repro.circuits import load_circuit
from repro.diagnosis import (
    FaultDictionary,
    SignatureBisector,
    SimulatedTester,
    choose_faults,
    diagnose_effect_cause,
    fault_representatives,
    make_fail_log,
    observed_fail_flags,
)
from repro.faults.collapse import collapse_faults
from repro.sim.batch import BatchFaultSimulator
from repro.sim.misr import Misr
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

#: The acceptance workload: full-size c880, one injected fault.
CIRCUIT = "c880"
N_PATTERNS = 256
SEED = 2001
MIN_WINDOW = 16

#: Signature-mode budget: at most this fraction of the session may be
#: re-simulated at per-pattern resolution.
MAX_RESIM_FRACTION = 0.15

@pytest.fixture(scope="module")
def workload():
    """Circuit, simulator, collapsed faults, patterns, one injected
    detectable fault and its ground-truth fail log."""
    circuit = load_circuit(CIRCUIT)
    simulator = BatchFaultSimulator(circuit)
    faults = collapse_faults(circuit)
    rng = RngStream(SEED, "diagnose", circuit.name)
    patterns = [
        BitVector.random(circuit.n_inputs, rng) for _ in range(N_PATTERNS)
    ]
    detected = simulator.detected(patterns, faults)
    detectable = [f for f, flag in zip(faults, detected) if flag]
    target = choose_faults(detectable, 1, rng.child("pick"))[0]
    log = make_fail_log(circuit, patterns, target, simulator.compiled)
    representative = fault_representatives(circuit)[target]
    return circuit, simulator, faults, patterns, target, representative, log


def test_effect_cause_ranks_injected_fault_top3(workload):
    """The headline acceptance bar: injected single fault in the top 3."""
    circuit, simulator, faults, patterns, target, representative, log = workload
    result = diagnose_effect_cause(
        circuit, patterns, log.responses, faults=faults,
        simulator=simulator, top_k=10,
    )
    rank = result.rank_of(representative)
    assert rank is not None and rank <= 3, (
        f"injected {target} ranked {rank} (top: {result.top})"
    )


def test_signature_bisection_within_resim_budget(workload):
    """Signature-only mode: localise via MISR prefix probes and stay
    under the 15% re-simulation budget with O(log P) queries."""
    circuit, simulator, faults, patterns, target, representative, log = workload
    misr = Misr(circuit.n_outputs)
    tester = SimulatedTester(log, misr)
    bisector = SignatureBisector(
        circuit, patterns, misr, min_window=MIN_WINDOW, simulator=simulator
    )
    result = bisector.diagnose(tester, faults=faults, top_k=10)
    assert result.window is not None, "bisection failed to localise"
    fraction = result.patterns_resimulated / N_PATTERNS
    assert fraction <= MAX_RESIM_FRACTION, (
        f"re-simulated {result.patterns_resimulated}/{N_PATTERNS} patterns "
        f"({100 * fraction:.1f}%)"
    )
    query_bound = math.ceil(math.log2(N_PATTERNS / MIN_WINDOW)) + 1
    assert result.oracle_queries <= query_bound
    rank = result.rank_of(representative)
    assert rank is not None and rank <= 3


def test_dictionary_build_and_lookup(workload):
    """Dictionary mode: one simulation pass to build, pure lookup to
    diagnose — and the lookup agrees with effect-cause on the winner."""
    circuit, simulator, faults, patterns, target, representative, log = workload
    dictionary = FaultDictionary.build(circuit, patterns, faults, simulator)
    golden = simulator.compiled.simulate_patterns(patterns)
    flags = observed_fail_flags(golden, log.responses)
    result = dictionary.diagnose(flags, top_k=10)
    assert result.patterns_resimulated == 0
    rank = result.rank_of(representative)
    assert rank is not None and rank <= 3
