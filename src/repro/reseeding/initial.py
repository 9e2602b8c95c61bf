"""The Initial Reseeding Builder (paper Section 3.1 and Figure 1).

Builds the starting reseeding ``T`` from the ATPG test set: one
candidate triplet per ATPG pattern ``p_i`` with ``delta = p_i``, a
randomly selected ``sigma`` (per-TPG sanitised), and a single evolution
length ``T`` "experimentally tuned and applied to all the triplets".
Because each triplet's first emitted pattern is its own ``delta``, the
union of the candidate test sets contains ``ATPGTS`` itself, so the
initial reseeding detects all of ``F`` by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.engine import AtpgResult
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.reseeding.detection_matrix import (
    DetectionMatrix,
    TableMemo,
    build_detection_matrix,
)
from repro.reseeding.triplet import Triplet
from repro.sim.fault import FaultSimulator
from repro.tpg.base import TestPatternGenerator
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream


@dataclass
class InitialReseeding:
    """The candidate triplet pool ``T`` plus its Detection Matrix."""

    triplets: list[Triplet]
    detection_matrix: DetectionMatrix
    evolution_length: int

    @property
    def n_triplets(self) -> int:
        """|T| — equals the ATPG test length by construction."""
        return len(self.triplets)


class InitialReseedingBuilder:
    """Builds ``T`` and the Detection Matrix for one circuit + TPG."""

    def __init__(
        self,
        circuit: Circuit,
        tpg: TestPatternGenerator,
        seed: int = 2001,
        simulator: FaultSimulator | None = None,
    ) -> None:
        if tpg.width != circuit.n_inputs:
            raise ValueError(
                f"TPG width {tpg.width} != circuit input count {circuit.n_inputs}"
            )
        self.circuit = circuit
        self.tpg = tpg
        self.seed = seed
        self.simulator = simulator or FaultSimulator(circuit)

    def build(
        self,
        atpg_patterns: list[BitVector],
        faults: list[Fault],
        evolution_length: int = 64,
        workers: int | None = None,
        evolve=None,
        tables: TableMemo | None = None,
    ) -> InitialReseeding:
        """One candidate triplet per ATPG pattern, plus the matrix.

        The whole candidate pool shares one evolution length, so the
        matrix rows come from a single seed-axis
        :meth:`~repro.tpg.base.TestPatternGenerator.evolve_batch` bank
        (``evolve`` swaps in a caching provider, see
        :data:`~repro.reseeding.triplet.EvolveBatch`).  Only
        ``evolution_length`` differs between two builds of one pool, so
        ``tables`` (a first-detection memo, see
        :func:`~repro.reseeding.detection_matrix.build_detection_matrix`)
        lets a build start from another length's table.
        ``workers=N`` opts in to row-parallel matrix construction over
        a process pool whose workers build simulators with this
        builder's simulator settings (the rows' packed carrier, not a
        class, picks the logic) and add their work to its counters.
        Raises if the resulting matrix does not cover every fault —
        that would violate the construction invariant (pattern 0 of each
        evolution is the ATPG pattern itself).
        """
        if evolution_length < 1:
            raise ValueError("evolution_length must be >= 1")
        rng = RngStream(self.seed, "initial-reseeding", self.circuit.name, self.tpg.name)
        triplets = [
            Triplet(pattern, self.tpg.suggest_sigma(rng), evolution_length)
            for pattern in atpg_patterns
        ]
        matrix = build_detection_matrix(
            self.circuit,
            self.tpg,
            triplets,
            faults,
            simulator=self.simulator,
            workers=workers,
            evolve=evolve,
            tables=tables,
        )
        missing = matrix.undetected_faults()
        if missing:
            raise AssertionError(
                f"initial reseeding misses {len(missing)} faults "
                f"(e.g. {missing[0]}); ATPGTS should cover F completely"
            )
        return InitialReseeding(triplets, matrix, evolution_length)

    def build_from_atpg(
        self,
        atpg_result: AtpgResult,
        evolution_length: int = 64,
        workers: int | None = None,
        evolve=None,
        tables: TableMemo | None = None,
    ) -> InitialReseeding:
        """Convenience overload taking an :class:`AtpgResult` directly."""
        return self.build(
            atpg_result.test_set,
            atpg_result.target_faults,
            evolution_length,
            workers=workers,
            evolve=evolve,
            tables=tables,
        )
