"""The reseedings-vs-test-length trade-off explorer (paper Figure 2).

Longer evolutions make each triplet cover more faults, so fewer triplets
suffice — at the price of a longer global test.  Figure 2 sweeps the
evolution length T for s1238 on an adder accumulator and watches the
triplet count fall (11 -> 2 in the paper) while the test length grows
(5,427 -> 15,551).  ``explore_tradeoff`` regenerates that curve for any
circuit/TPG as a thin client of :func:`repro.flow.sweep.sweep`: one
shared :class:`~repro.flow.session.Session` (so ATPG and the compiled
simulator run once) and one config per T.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.engine import AtpgResult
from repro.circuit.netlist import Circuit
from repro.flow.pipeline import PipelineConfig
from repro.flow.session import ArtifactCache, Session
from repro.flow.sweep import sweep
from repro.sim.fault import FaultSimulator
from repro.tpg.base import TestPatternGenerator
from repro.tpg.registry import make_tpg


@dataclass(frozen=True)
class TradeoffPoint:
    """One sweep point: T, the solution size, and the trimmed length."""

    evolution_length: int
    n_triplets: int
    test_length: int

    def as_tuple(self) -> tuple[int, int, int]:
        """(T, #triplets, test length) — handy for plotting."""
        return (self.evolution_length, self.n_triplets, self.test_length)


def explore_tradeoff(
    circuit: Circuit,
    tpg: TestPatternGenerator | str,
    evolution_lengths: list[int],
    config: PipelineConfig | None = None,
    atpg_result: AtpgResult | None = None,
    simulator: FaultSimulator | None = None,
    cache: ArtifactCache | None = None,
) -> list[TradeoffPoint]:
    """Sweep T and return one point per value, in the given order.

    The expected shape (asserted by the Figure-2 benchmark): triplet
    count is non-increasing in T while the global test length grows.
    The session's batched fault simulator is shared across all sweep
    points (with ``config.matrix_workers``, a process pool of its class
    and settings builds each point's matrix rows), and so is its memo of
    the candidate pool's first-detection table: a point scans only the
    patterns past the longest length built so far, and a shorter point
    simulates nothing, so a point costs its new patterns plus one
    covering pass; with a ``cache`` attached, repeated sweeps skip even
    that.
    """
    if not evolution_lengths:
        raise ValueError("evolution_lengths must be non-empty")
    if any(t < 1 for t in evolution_lengths):
        raise ValueError("evolution lengths must be >= 1")
    base_config = config or PipelineConfig()
    tpg_instance = (
        make_tpg(tpg, circuit.n_inputs) if isinstance(tpg, str) else tpg
    )
    session = Session(
        circuit,
        config=base_config,
        simulator=simulator,
        cache=cache,
        atpg_result=atpg_result,
    )
    grid = sweep(
        [circuit.name],
        [tpg_instance],
        base_config=base_config,
        evolution_lengths=evolution_lengths,
        sessions={circuit.name: session},
    )
    return [
        TradeoffPoint(length, outcome.result.n_triplets, outcome.result.test_length)
        for length, outcome in zip(evolution_lengths, grid)
    ]
