#!/usr/bin/env python3
"""Exploring the reseedings / test-length trade-off (the Figure-2 knob).

A low triplet count minimises seed-ROM area but needs long evolutions;
short evolutions keep the test short but need more stored triplets.
This example sweeps the evolution length T for a circuit/TPG pair,
prints the frontier, renders it as an ASCII curve, and picks the
knee-point solution under a ROM budget.  The sweep is one
:func:`repro.sweep` call on a session for the circuit: ATPG runs once
and every T reuses it.

Run: ``python examples/tradeoff_exploration.py [--circuit s1238]
[--tpg adder] [--rom-budget 400]``
"""

import argparse

from repro import PipelineConfig, Session, sweep
from repro.utils.tables import AsciiTable, render_series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="s1238")
    parser.add_argument("--tpg", default="adder")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument(
        "--rom-budget",
        type=int,
        default=400,
        help="seed-ROM budget in bits for the recommendation",
    )
    args = parser.parse_args()

    config = PipelineConfig(max_random_patterns=1024)
    session = Session.from_name(args.circuit, scale=args.scale, config=config)
    circuit = session.circuit
    print(f"UUT: {circuit}, TPG: {args.tpg}\n")
    grid = sweep(
        [circuit.name],
        [args.tpg],
        base_config=config,
        evolution_lengths=[2, 4, 8, 16, 32, 64, 128, 256],
        sessions={circuit.name: session},
    )
    # (T, #triplets, test length) per sweep point, in T order.
    points = [
        (o.config.evolution_length, o.result.n_triplets, o.result.test_length)
        for o in grid
    ]

    bits_per_triplet = 2 * circuit.n_inputs + 9  # delta + sigma + length field
    table = AsciiTable(
        ["T", "#triplets", "test length", "~seed ROM (bits)"],
        title="Trade-off frontier",
    )
    for length, n_triplets, test_length in points:
        table.add_row(
            [length, n_triplets, test_length, n_triplets * bits_per_triplet]
        )
    print(table.render())
    print()
    print(
        render_series(
            [float(test_length) for _, _, test_length in points],
            [float(n_triplets) for _, n_triplets, _ in points],
            x_label="test length",
            y_label="#triplets",
        )
    )

    # knee-point recommendation: the shortest test within the ROM budget
    affordable = [p for p in points if p[1] * bits_per_triplet <= args.rom_budget]
    if affordable:
        length, n_triplets, test_length = min(affordable, key=lambda p: p[2])
        print(
            f"\nwithin a {args.rom_budget}-bit ROM budget, pick T={length}: "
            f"{n_triplets} triplets, test length {test_length}"
        )
    else:
        print(f"\nno sweep point fits a {args.rom_budget}-bit ROM budget")


if __name__ == "__main__":
    main()
