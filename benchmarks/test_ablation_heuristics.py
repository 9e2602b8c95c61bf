"""Ablation: PODEM backtrace guidance — logic levels vs SCOAP.

Both heuristics are complete (they only order the search); this ablation
measures their cost on the random-resistant fault tail and checks they
classify every fault identically.
"""

from __future__ import annotations

import pytest

from repro.atpg.random_gen import random_phase
from repro.faults.collapse import collapse_faults
from repro.utils.rng import RngStream

from repro.atpg.batch_podem import PodemStatus

from oracles.podem import Podem


@pytest.fixture(scope="module")
def hard_faults(sessions):
    """The random-resistant tail of s1238 — the faults PODEM exists for."""
    session = sessions["s1238"]
    faults = collapse_faults(session.circuit)
    result = random_phase(
        session.circuit,
        faults,
        RngStream(77, "ablation-hard"),
        max_patterns=256,
        simulator=session.simulator,
    )
    if not result.remaining:
        pytest.skip("no random-resistant faults at this scale")
    return session.circuit, result.remaining[:40]


@pytest.mark.parametrize("heuristic", ["level", "scoap"])
def test_ablation_podem_heuristic(benchmark, hard_faults, heuristic):
    circuit, faults = hard_faults
    podem = Podem(circuit, heuristic=heuristic)

    def run_tail():
        return [podem.generate(fault) for fault in faults]

    results = benchmark.pedantic(run_tail, rounds=1, iterations=1)

    statuses = [r.status for r in results]
    assert all(s is not None for s in statuses)
    # Completeness is heuristic-independent: cross-check classifications.
    other = Podem(
        circuit, heuristic="scoap" if heuristic == "level" else "level"
    )
    for fault, result in zip(faults, results):
        if result.status is PodemStatus.ABORTED:
            continue  # effort-limited outcomes may differ between orders
        counterpart = other.generate(fault)
        if counterpart.status is PodemStatus.ABORTED:
            continue
        assert counterpart.status is result.status, str(fault)
