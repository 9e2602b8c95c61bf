#!/usr/bin/env python3
"""SoC scenario: one accumulator tests several on-chip modules.

The paper's motivation is a System-on-Chip whose functional units form a
connected network: a single arithmetic module (here an adder-based
accumulator) can feed test patterns to many downstream blocks.  For each
UUT we compute a minimal reseeding and price the ROM needed to store the
triplets — the area-overhead currency of the paper's trade-off — then
compare against the naive alternative of storing the full ATPG test set.

Run: ``python examples/soc_accumulator_bist.py [--scale 0.25]``
"""

import argparse

from repro import PipelineConfig, Session, load_circuit
from repro.utils.tables import AsciiTable

#: The on-chip modules our shared accumulator must test.
SOC_MODULES = ("c499", "s420", "s953", "s1238")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--evolution-length", type=int, default=32)
    args = parser.parse_args()

    table = AsciiTable(
        [
            "module",
            "PI",
            "faults",
            "#triplets",
            "test length",
            "triplet ROM (bits)",
            "ATPG ROM (bits)",
            "ROM saved",
        ],
        title="SoC BIST plan: adder accumulator as shared TPG",
    )
    total_triplet_bits = 0
    total_atpg_bits = 0
    for module in SOC_MODULES:
        circuit = load_circuit(module, scale=args.scale)
        config = PipelineConfig(evolution_length=args.evolution_length)
        result = Session(circuit, config).run("adder")
        triplet_bits = result.trimmed.solution.storage_bits()
        # the naive alternative: store every ATPG pattern verbatim
        atpg_bits = result.atpg.test_length * circuit.n_inputs
        total_triplet_bits += triplet_bits
        total_atpg_bits += atpg_bits
        table.add_row(
            [
                module,
                circuit.n_inputs,
                len(result.atpg.target_faults),
                result.n_triplets,
                result.test_length,
                triplet_bits,
                atpg_bits,
                f"{100 * (1 - triplet_bits / atpg_bits):.0f}%",
            ]
        )
    print(table.render())
    print(
        f"\ntotal seed ROM: {total_triplet_bits} bits vs "
        f"{total_atpg_bits} bits for stored ATPG patterns "
        f"({100 * (1 - total_triplet_bits / total_atpg_bits):.0f}% saved)"
    )


if __name__ == "__main__":
    main()
