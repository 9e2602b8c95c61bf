"""The GATSBY reseeding baseline.

One GA run per triplet: the chromosome concatenates ``delta`` and
``sigma``; fitness is the number of still-undetected faults the triplet's
test set detects (a full fault simulation per evaluation).  Detected
faults are dropped and the loop repeats until the fault list is empty,
progress stalls, or a triplet budget is exhausted.

Every fitness evaluation rides the batched engine: the remaining-fault
list is simulated in fault batches against the candidate's test set
(with early fault dropping inside :meth:`BatchFaultSimulator.detected`),
which is what keeps the GA's thousands of fault simulations affordable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.gatsby.ga import GaConfig, GeneticAlgorithm
from repro.reseeding.detection_matrix import build_detection_matrix
from repro.reseeding.triplet import ReseedingSolution, Triplet
from repro.reseeding.trim import TrimmedSolution, trim_solution
from repro.sim.batch import BatchFaultSimulator
from repro.sim.fault import FaultSimulator
from repro.tpg.base import TestPatternGenerator
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream


@dataclass
class GatsbyResult:
    """The GA reseeding: solution, trimming, and effort accounting."""

    solution: ReseedingSolution
    trimmed: TrimmedSolution
    fault_coverage: float
    fault_simulations: int
    stalled: bool

    @property
    def n_triplets(self) -> int:
        """Triplet count of the GA solution."""
        return self.solution.n_triplets

    @property
    def test_length(self) -> int:
        """Global test length after trimming."""
        return self.trimmed.test_length


class GatsbyReseeder:
    """Iterative GA reseeding for one circuit + TPG."""

    def __init__(
        self,
        circuit: Circuit,
        tpg: TestPatternGenerator,
        seed: int = 2001,
        evolution_length: int = 64,
        ga_config: GaConfig | None = None,
        max_triplets: int = 256,
        stall_limit: int = 3,
        simulator: BatchFaultSimulator | None = None,
    ) -> None:
        if tpg.width != circuit.n_inputs:
            raise ValueError(
                f"TPG width {tpg.width} != circuit input count {circuit.n_inputs}"
            )
        self.circuit = circuit
        self.tpg = tpg
        self.seed = seed
        self.evolution_length = evolution_length
        self.ga_config = ga_config or GaConfig()
        self.max_triplets = max_triplets
        self.stall_limit = stall_limit
        self.simulator = simulator or FaultSimulator(circuit)

    def run(
        self, faults: list[Fault], seed_patterns: list[BitVector] | None = None
    ) -> GatsbyResult:
        """Build a reseeding covering ``faults``.

        ``seed_patterns`` optionally bias each GA's initial population
        (deterministic patterns known to detect hard faults).
        """
        rng = RngStream(self.seed, "gatsby", self.circuit.name, self.tpg.name)
        width = self.tpg.width
        remaining = list(faults)
        triplets: list[Triplet] = []
        simulations = 0
        stalls = 0
        while remaining and len(triplets) < self.max_triplets:
            ga_rng = rng.child("ga", len(triplets))

            def fitness(genome: BitVector) -> float:
                nonlocal simulations
                simulations += 1
                triplet = self._decode(genome)
                # Packed single-seed evolution: the GA's inner loop is
                # fitness-bound, so patterns go straight to the
                # simulator in word-parallel form.
                patterns = triplet.packed_test_set(self.tpg)
                flags = self.simulator.detected(patterns, remaining)
                return float(sum(flags))

            seeds = self._seed_genomes(seed_patterns or [], rng)
            algorithm = GeneticAlgorithm(
                2 * width, fitness, ga_rng, self.ga_config
            )
            best = algorithm.run(seeds)
            if best.fitness <= 0:
                stalls += 1
                if stalls >= self.stall_limit:
                    break
                continue
            stalls = 0
            triplet = self._decode(best.genome)
            triplets.append(triplet)
            patterns = triplet.packed_test_set(self.tpg)
            flags = self.simulator.detected(patterns, remaining)
            remaining = [f for f, hit in zip(remaining, flags) if not hit]
        matrix = build_detection_matrix(
            self.circuit, self.tpg, triplets, faults, simulator=self.simulator
        )
        trimmed = trim_solution(matrix, range(len(triplets)))
        covered = len(faults) - len(trimmed.undetected)
        coverage = covered / len(faults) if faults else 1.0
        return GatsbyResult(
            solution=ReseedingSolution.from_list(triplets),
            trimmed=trimmed,
            fault_coverage=coverage,
            fault_simulations=simulations,
            stalled=bool(remaining),
        )

    # ------------------------------------------------------------------

    def _decode(self, genome: BitVector) -> Triplet:
        width = self.tpg.width
        delta = genome.slice(0, width)
        sigma = genome.slice(width, width)
        return Triplet(delta, sigma, self.evolution_length)

    def _seed_genomes(
        self, seed_patterns: list[BitVector], rng: RngStream
    ) -> list[BitVector]:
        genomes = []
        for pattern in seed_patterns[:4]:
            sigma = self.tpg.suggest_sigma(rng)
            genomes.append(pattern.concat(sigma))
        return genomes
