#!/usr/bin/env python3
"""Quickstart: the complete reseeding flow on the genuine c17 benchmark.

Walks Figure 1 of the paper stage by stage with printouts:
ATPG -> Initial Reseeding Builder -> Detection Matrix -> Matrix Reducer
-> exact solver -> trimmed final reseeding, then verifies the solution
by fault simulation.

Run: ``python examples/quickstart.py``
"""

from repro import (
    AtpgEngine,
    FaultSimulator,
    InitialReseedingBuilder,
    load_circuit,
    make_tpg,
    trim_solution,
)
from repro.setcover import CoverMatrix, solve_cover


def main() -> None:
    # --- the unit under test -------------------------------------------
    circuit = load_circuit("c17")
    print(f"UUT: {circuit}")

    # --- stage 1: ATPG (TestGen stand-in) -------------------------------
    engine = AtpgEngine(circuit, seed=2001)
    atpg = engine.run()
    print(f"ATPG: {atpg.test_length} patterns cover {len(atpg.target_faults)} faults")

    # --- stage 2: Initial Reseeding Builder ------------------------------
    # The TPG is an adder-based accumulator already present in the "SoC".
    tpg = make_tpg("adder", circuit.n_inputs)
    builder = InitialReseedingBuilder(circuit, tpg, seed=2001, simulator=engine.simulator)
    initial = builder.build_from_atpg(atpg, evolution_length=8)
    matrix = initial.detection_matrix
    print(
        f"Detection Matrix: {matrix.shape[0]} triplets x {matrix.shape[1]} faults "
        f"(density {matrix.density():.2f})"
    )

    # --- stage 3: Matrix Reducer + exact solver --------------------------
    cover = solve_cover(CoverMatrix.from_bool_array(matrix.matrix))
    print(
        f"Set covering: {cover.stats.n_essential} necessary triplets, "
        f"core {cover.stats.reduced_shape[0]}x{cover.stats.reduced_shape[1]}, "
        f"solver adds {cover.stats.n_solver_selected} "
        f"-> |N| = {cover.n_selected}"
    )

    # --- stage 4: trimming ------------------------------------------------
    # The matrix build recorded each cell's first detecting pattern, so
    # trimming the selected rows simulates nothing.
    trimmed = trim_solution(matrix, cover.selected)
    print(f"Final reseeding: {trimmed.n_triplets} triplets, "
          f"global test length {trimmed.test_length}")
    for index, triplet in enumerate(trimmed.solution.triplets):
        print(f"  triplet {index}: {triplet}")

    # --- verification ------------------------------------------------------
    simulator = FaultSimulator(circuit)
    patterns = trimmed.solution.patterns(tpg)
    coverage = simulator.fault_coverage(patterns, atpg.target_faults)
    print(f"Verified fault coverage: {coverage:.1%}")
    assert coverage == 1.0


if __name__ == "__main__":
    main()
