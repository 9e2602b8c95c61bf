#!/usr/bin/env python3
"""Fault-parallel deterministic ATPG on the compiled circuit.

The deterministic top-off is the last serial hot path of the flow: the
random phase covers the easy faults in bulk, then every random-resistant
fault historically took a recursive PODEM search with an event-driven
three-valued resimulation per decision.  ``BatchPodem`` runs that search
fault-parallel — a batch of target faults become uint64 bit-plane
*lanes* (interval rails, known-1 and not-known-0, good and faulty
machine side by side), one levelized sweep implies every lane at once,
the search steps every lane in lock step, and covered lanes retire
mid-batch through fault dropping.

This example drives ``BatchPodem`` and the scalar ``Podem.generate``
oracle over the same collapsed fault list, times both, and checks they
agree fault for fault (statuses, cubes, backtrack counts — the batch
engine is bit-identical to the oracle by construction).
:class:`~repro.atpg.AtpgEngine` runs ``BatchPodem`` as its only top-off
engine.

Run: ``python examples/batch_atpg.py [--circuit s1238] [--scale 0.5]``
"""

import argparse
import time

from repro import load_circuit
from repro.atpg import BatchPodem, Podem
from repro.faults.collapse import collapse_faults
from repro.utils.tables import AsciiTable


def compare_generators(circuit, faults, backtrack_limit: int = 250):
    """Run both test generators over ``faults``; return timing stats."""
    recursive = Podem(circuit, backtrack_limit=backtrack_limit)
    start = time.perf_counter()
    oracle_results = {f: recursive.generate(f) for f in faults}
    recursive_s = time.perf_counter() - start

    batch = BatchPodem(circuit, backtrack_limit=backtrack_limit)
    start = time.perf_counter()
    batch_results = dict(batch.stream(faults))
    batch_s = time.perf_counter() - start

    mismatches = sum(
        1
        for fault in faults
        if (
            oracle_results[fault].status,
            oracle_results[fault].cube,
            oracle_results[fault].backtracks,
        )
        != (
            batch_results[fault].status,
            batch_results[fault].cube,
            batch_results[fault].backtracks,
        )
    )
    return {
        "n_faults": len(faults),
        "recursive_s": recursive_s,
        "batch_s": batch_s,
        "speedup": recursive_s / batch_s if batch_s else float("inf"),
        "sweeps": batch.sweeps,
        "mismatches": mismatches,
    }


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

    stats = compare_generators(circuit, faults)
    table = AsciiTable(
        ["engine", "seconds", "faults/s"],
        title="Deterministic test generation, full collapsed universe",
    )
    table.add_row(
        [
            "scalar Podem",
            f"{stats['recursive_s']:.2f}",
            f"{stats['n_faults'] / stats['recursive_s']:.0f}",
        ]
    )
    table.add_row(
        [
            "batch PODEM",
            f"{stats['batch_s']:.2f}",
            f"{stats['n_faults'] / stats['batch_s']:.0f}",
        ]
    )
    print(table.render())
    print(
        f"speedup {stats['speedup']:.2f}x over {stats['sweeps']} sweeps; "
        f"results diverge on {stats['mismatches']} faults (must be 0 — "
        f"the batch engine is bit-identical to the oracle)"
    )
    if stats["mismatches"]:
        raise SystemExit("engines diverged")


if __name__ == "__main__":
    main()
