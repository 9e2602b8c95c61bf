#!/usr/bin/env python3
"""Plugging a custom functional unit in as the TPG.

The paper stresses that the set-covering formulation "is not restricted
to any specific modules M1 but it can work with any type of functions".
This example demonstrates exactly that: we define a multiply-accumulate
(MAC) unit — a module no reseeding tool was customised for — subclassing
:class:`TestPatternGenerator`, and run the unmodified pipeline with it,
side by side with the paper's three accumulators and an LFSR.

Custom generators inherit a correct ``evolve_batch`` for free (the
scalar fallback), and opting into the word-parallel fast path is one
``_evolve_batch_values`` override — the MAC's is three lines.  The
closing section measures both against the scalar loop and prints
per-seed throughput.

Run: ``python examples/custom_tpg.py [--circuit s953] [--scale 0.25]``
"""

import argparse
import time

import numpy as np

from repro import PipelineConfig, Session, TestPatternGenerator, load_circuit
from repro.tpg import make_tpg
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream
from repro.utils.tables import AsciiTable


class MacUnit(TestPatternGenerator):
    """A multiply-accumulate unit: ``S <- (S * sigma + sigma) mod 2^n``.

    Exactly the kind of DSP block an SoC already contains.  Nothing in
    the covering flow knows about its update rule — only ``next_state``
    is required; ``_evolve_batch_values`` additionally vectorizes the
    walk over a whole seed bank (uint64 wraps mod 2^64, and masking to
    ``width`` bits reduces that mod 2^width).
    """

    @property
    def name(self) -> str:
        return "mac"

    def next_state(self, state: BitVector, sigma: BitVector) -> BitVector:
        return state * sigma + sigma

    def _evolve_batch_values(self, deltas, sigmas, length):
        out = np.empty((deltas.shape[0], length), dtype=np.uint64)
        mask = np.uint64((1 << self.width) - 1)
        state = deltas.copy()
        for clock in range(length):
            out[:, clock] = state
            if clock + 1 < length:
                state = (state * sigmas + sigmas) & mask
        return out

    def suggest_sigma(self, rng) -> BitVector:
        # odd multiplicand: keeps the affine map a bijection mod 2^n
        return BitVector.random(self.width, rng).set_bit(0, 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="s953")
    parser.add_argument("--scale", type=float, default=0.25)
    args = parser.parse_args()

    circuit = load_circuit(args.circuit, scale=args.scale)
    print(f"UUT: {circuit}\n")
    # One session: ATPG runs once, every generator below reuses it.
    session = Session(circuit, PipelineConfig(evolution_length=32))

    table = AsciiTable(
        ["TPG", "#triplets", "test length", "necessary", "from solver"],
        title=f"Reseeding solutions for {circuit.name} across generators",
    )
    generators: list[TestPatternGenerator] = [
        make_tpg("adder", circuit.n_inputs),
        make_tpg("multiplier", circuit.n_inputs),
        make_tpg("subtracter", circuit.n_inputs),
        make_tpg("mp-lfsr", circuit.n_inputs),
        MacUnit(circuit.n_inputs),  # the custom unit, same API
    ]
    for tpg in generators:
        result = session.run(tpg)
        table.add_row(
            [
                tpg.name,
                result.n_triplets,
                result.test_length,
                result.n_necessary,
                result.n_from_solver,
            ]
        )
    print(table.render())
    print(
        "\nThe MAC row required zero solver/flow changes: any module with a "
        "next_state() is a valid TPG."
    )

    # -- batched evolution throughput ------------------------------------
    # Every generator above — including the custom MAC — exposes the same
    # evolve_batch API the reseeding flow drives: a whole candidate-seed
    # bank expands in one call, straight into packed form.
    n_seeds, length = 256, 64
    rng = RngStream(2001, "custom-tpg-bench", circuit.name)
    print(
        f"\nevolve_batch throughput ({n_seeds} seeds x T={length}, "
        "best of 3, vs the scalar per-pattern loop):"
    )
    for tpg in generators:
        deltas = [BitVector.random(tpg.width, rng) for _ in range(n_seeds)]
        sigmas = [tpg.suggest_sigma(rng) for _ in range(n_seeds)]
        scalar = min(
            _timed(tpg.evolve_batch_scalar, deltas, sigmas, length)
            for _ in range(3)
        )
        batched = min(
            _timed(tpg.evolve_batch, deltas, sigmas, length) for _ in range(3)
        )
        print(
            f"  {tpg.name:10s} scalar {scalar*1e3:7.2f} ms | batched"
            f" {batched*1e3:6.2f} ms | {scalar/batched:5.1f}x |"
            f" {n_seeds*length/batched/n_seeds:,.0f} patterns/s/seed"
        )


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


if __name__ == "__main__":
    main()
