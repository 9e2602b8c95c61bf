#!/usr/bin/env python3
"""Fault-parallel deterministic ATPG on the compiled circuit.

The deterministic top-off is the last serial hot path of the flow: the
random phase covers the easy faults in bulk, then every random-resistant
fault needs a PODEM search.  ``BatchPodem`` runs that search
fault-parallel — a batch of target faults become uint64 bit-plane
*lanes* (interval rails, known-1 and not-known-0, good and faulty
machine side by side), one levelized sweep implies every lane at once,
the search steps every lane in lock step, and freed lanes are reseated
from the queue as soon as their fault resolves.

This example streams the whole collapsed fault list through
``BatchPodem``, prints how many faults end DETECTED, UNTESTABLE and
ABORTED with the search-effort counters, and then checks every DETECTED
cube: its don't-cares are filled at random and the resulting pattern,
re-simulated through the fault simulator, must detect its fault.
:class:`~repro.atpg.AtpgEngine` runs ``BatchPodem`` as its only top-off
engine.

Run: ``python examples/batch_atpg.py [--circuit s1238] [--scale 0.5]``
"""

import argparse
import time
from collections import Counter

from repro import load_circuit
from repro.atpg import BatchPodem, PodemStatus
from repro.faults.collapse import collapse_faults
from repro.sim import FaultSimulator
from repro.utils.rng import RngStream
from repro.utils.tables import AsciiTable


def generate_and_check(circuit, faults, backtrack_limit: int = 250):
    """Stream ``faults`` through the batch PODEM; return the outcome
    counts, the engine counters, the wall time and the DETECTED faults
    whose filled cube fails to detect them (must be none)."""
    podem = BatchPodem(circuit, backtrack_limit=backtrack_limit)
    start = time.perf_counter()
    results = dict(podem.stream(faults))
    seconds = time.perf_counter() - start

    rng = RngStream(2001, "fill")
    detected = [f for f in faults if results[f].status is PodemStatus.DETECTED]
    patterns = [results[f].cube.to_pattern(circuit.inputs, rng) for f in detected]
    simulator = FaultSimulator(circuit)
    misses = [
        fault
        for fault, pattern in zip(detected, patterns)
        if not simulator.detected([pattern], [fault])[0]
    ]
    outcomes = Counter(results[f].status for f in faults)
    return outcomes, podem.counters(), seconds, misses


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="s1238")
    parser.add_argument("--scale", type=float, default=0.5)
    args = parser.parse_args()

    circuit = load_circuit(args.circuit, scale=args.scale)
    faults = collapse_faults(circuit)
    print(
        f"{circuit.name}: {circuit.n_inputs} inputs, "
        f"{len(faults)} collapsed faults"
    )

    outcomes, counters, seconds, misses = generate_and_check(circuit, faults)
    table = AsciiTable(
        ["outcome", "faults"],
        title="Batch PODEM over the full collapsed universe",
    )
    for status in PodemStatus:
        table.add_row([status.value, str(outcomes[status])])
    print(table.render())
    print(
        f"{seconds:.2f}s, {len(faults) / seconds:.0f} faults/s; "
        f"{counters['rounds']} rounds, {counters['lanes_seated']} lanes seated, "
        f"{counters['backtracks']} backtracks, {counters['decisions']} decisions"
    )
    print(
        f"{outcomes[PodemStatus.DETECTED] - len(misses)}/"
        f"{outcomes[PodemStatus.DETECTED]} DETECTED cubes re-simulated "
        f"detect their fault (must be all)"
    )
    if misses:
        raise SystemExit(f"cubes that miss their fault: {misses[:5]}")


if __name__ == "__main__":
    main()
