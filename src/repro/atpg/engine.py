"""The complete ATPG flow (TestGen stand-in).

``AtpgEngine.run()`` produces what the paper's Initial Reseeding Builder
consumes: a deterministic test set ``ATPGTS`` that covers the target
fault list ``F`` completely (Section 3.1: "the test set ATPGTS provided
by a commercial gate-level ATPG tool, which guarantees complete covering
of F").  ``F`` is the set of collapsed faults proven testable — faults
PODEM proves untestable (redundant) are excluded, and aborted faults are
reported separately.

One test generator drives the deterministic top-off phase:
:class:`~repro.atpg.batch_podem.BatchPodem`, which implies and searches
a whole batch of fault lanes per round on the compiled plan and
supports mid-batch fault dropping.  Each lane reproduces the scalar
:class:`~repro.atpg.podem.Podem` oracle decision for decision.

"Complete covering" is not assumed: the final test set is re-simulated
against ``F`` and the run hard-errors (:class:`AtpgConsistencyError`) if any target fault slips
through — as does any DETECTED cube whose X-filled pattern fails to
detect its own target fault under the batched fault simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.batch_podem import BatchPodem
from repro.atpg.compaction import reverse_order_compaction
from repro.atpg.podem import PodemStatus
from repro.atpg.random_gen import random_phase
from repro.circuit.netlist import Circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.sim.batch import BatchFaultSimulator
from repro.sim.fault import FaultSimulator
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

#: Patterns accumulated before a windowed fault-drop sweep over the
#: still-queued faults, instead of a drop scan after every pattern.
_DROP_FLUSH_PATTERNS = 8

class AtpgConsistencyError(RuntimeError):
    """The ATPG flow produced a result that violates its own invariants.

    Raised when a DETECTED cube's X-filled pattern does not detect its
    target fault under the batched fault simulator, or when the final
    test set fails to cover the target fault list ``F`` completely.
    Either means a test-generation/simulation disagreement — a bug, not
    a degraded result — so the run refuses to return.
    """


@dataclass
class AtpgResult:
    """Outcome of a full ATPG run.

    ``test_set`` covers every fault in ``target_faults`` (the paper's
    ``F``); ``untestable`` are proven-redundant faults; ``aborted`` hit
    the PODEM backtrack limit and are excluded from ``F``.
    ``measured_coverage`` is the re-simulated coverage of ``test_set``
    over ``target_faults`` — reported, not assumed.
    """

    circuit_name: str
    test_set: list[BitVector]
    target_faults: list[Fault]
    untestable: list[Fault]
    aborted: list[Fault]
    n_collapsed_faults: int
    random_patterns_kept: int
    podem_patterns: int
    measured_coverage: float

    @property
    def test_length(self) -> int:
        """Number of patterns in the final (compacted) test set."""
        return len(self.test_set)

    @property
    def fault_coverage(self) -> float:
        """Measured coverage of the testable universe.

        Re-simulated by the engine before the result is returned (and
        asserted to be 1.0 there); an empty target list is vacuously
        covered.
        """
        return self.measured_coverage

    @property
    def testable_fraction(self) -> float:
        """Testable faults / collapsed universe."""
        if not self.n_collapsed_faults:
            return 0.0
        return len(self.target_faults) / self.n_collapsed_faults

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.circuit_name}: |TS|={self.test_length} "
            f"|F|={len(self.target_faults)} "
            f"coverage={self.measured_coverage:.4f} "
            f"untestable={len(self.untestable)} aborted={len(self.aborted)}"
        )


class AtpgEngine:
    """Three-phase ATPG: random, deterministic top-off, reverse-order
    compaction.

    The random phase and the top-off share the simulator; the top-off
    X-fills each PODEM cube from its own RNG stream.
    """

    def __init__(
        self,
        circuit: Circuit,
        seed: int = 2001,
        max_random_patterns: int = 4096,
        backtrack_limit: int = 250,
        compact: bool = True,
        simulator: BatchFaultSimulator | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.circuit = circuit
        self.seed = seed
        self.max_random_patterns = max_random_patterns
        self.backtrack_limit = backtrack_limit
        self.compact = compact
        self.simulator = simulator or FaultSimulator(circuit)
        #: Optional :class:`repro.obs.Telemetry`.  Its tracer times the
        #: four phases as ``atpg.random`` / ``atpg.topoff`` /
        #: ``atpg.compact`` / ``atpg.verify`` spans under the caller's
        #: open span.  The top-off engine is transient (one per run), so
        #: its counters are folded into the metrics registry once per
        #: run (and set on the ``atpg.topoff`` span) instead of
        #: collector-sampled; the simulator's counters ride its own
        #: collector.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.simulator.attach_metrics(self.telemetry.metrics)

    def run(self, faults: list[Fault] | None = None) -> AtpgResult:
        """Generate a complete test set for ``faults`` (default: the
        collapsed stuck-at universe of the circuit)."""
        if faults is None:
            faults = collapse_faults(self.circuit)
        n_collapsed = len(faults)
        rng = RngStream(self.seed, "atpg", self.circuit.name)
        tracer = self.telemetry.tracer

        with tracer.span("atpg.random"):
            random_result = random_phase(
                self.circuit,
                faults,
                rng.child("random"),
                max_patterns=self.max_random_patterns,
                simulator=self.simulator,
            )
        patterns = list(random_result.patterns)
        n_random = len(patterns)

        fill_rng = rng.child("x-fill")
        untestable: list[Fault] = []
        aborted: list[Fault] = []
        with tracer.span("atpg.topoff") as span:
            podem_patterns, counters = self._topoff(
                list(random_result.remaining), patterns, fill_rng, untestable, aborted
            )
            span.set(**counters, podem_patterns=podem_patterns)

        excluded = set(untestable) | set(aborted)
        target_faults = [f for f in faults if f not in excluded]
        if self.compact and patterns:
            with tracer.span("atpg.compact"):
                patterns = reverse_order_compaction(
                    self.circuit, patterns, target_faults, simulator=self.simulator
                )
        # The paper's premise is a test set with *complete* covering of
        # F.  Measure it instead of assuming it: re-simulate the final
        # set against the target list and refuse to return a partial
        # covering.
        with tracer.span("atpg.verify"):
            measured = self.simulator.fault_coverage(patterns, target_faults)
        if measured != 1.0:
            missed = sum(
                1
                for hit in self.simulator.detected(patterns, target_faults)
                if not hit
            )
            raise AtpgConsistencyError(
                f"{self.circuit.name}: final test set covers "
                f"{measured:.6f} of F ({missed}/{len(target_faults)} "
                f"target faults undetected) — complete covering violated"
            )
        return AtpgResult(
            circuit_name=self.circuit.name,
            test_set=patterns,
            target_faults=target_faults,
            untestable=untestable,
            aborted=aborted,
            n_collapsed_faults=n_collapsed,
            random_patterns_kept=n_random,
            podem_patterns=podem_patterns,
            measured_coverage=measured,
        )

    # ------------------------------------------------------------------
    # deterministic top-off phases
    # ------------------------------------------------------------------

    def _cube_mismatch(self, fault: Fault) -> AtpgConsistencyError:
        """The generator/simulator disagreement error: PODEM said
        DETECTED but the batched fault simulator, the independent
        referee, disagrees about the X-filled pattern.  Wrong D-propagation, bad X-fill or
        a site mix-up would all silently produce an incomplete test set,
        so this is a hard error rather than a dropped fault."""
        return AtpgConsistencyError(
            f"{self.circuit.name}: PODEM cube for {fault} does not "
            f"detect it after X-fill (simulator disagrees with "
            f"DETECTED status)"
        )

    def _topoff(
        self,
        remaining: list[Fault],
        patterns: list[BitVector],
        fill_rng,
        untestable: list[Fault],
        aborted: list[Fault],
    ) -> tuple[int, dict[str, int]]:
        """Fault-parallel top-off driving :meth:`BatchPodem.stream`;
        returns the patterns it added and the search-effort counters.

        Every generated pattern is hard-checked against its target
        fault, then fault-drops the in-flight lanes (covered lanes
        retire mid-batch and free their lane for the queue); every
        ``_DROP_FLUSH_PATTERNS`` patterns the accumulated window sweeps
        the still-queued faults so they never even get seated.
        """
        podem = BatchPodem(
            self.circuit,
            backtrack_limit=self.backtrack_limit,
            simulator=self.simulator,
        )
        window: list[BitVector] = []
        podem_patterns = 0
        for fault, result in podem.stream(remaining):
            if result.status is PodemStatus.UNTESTABLE:
                untestable.append(fault)
                continue
            if result.status is PodemStatus.ABORTED:
                aborted.append(fault)
                continue
            pattern = result.cube.to_pattern(self.circuit.inputs, fill_rng)
            active = podem.active_faults()
            flags = self.simulator.detected([pattern], [fault] + active)
            if not flags[0]:
                raise self._cube_mismatch(fault)
            podem.drop([f for f, hit in zip(active, flags[1:]) if hit])
            patterns.append(pattern)
            window.append(pattern)
            podem_patterns += 1
            if len(window) >= _DROP_FLUSH_PATTERNS:
                queued = podem.queued_faults()
                if queued:
                    qflags = self.simulator.detected(window, queued)
                    podem.drop(
                        [f for f, hit in zip(queued, qflags) if hit]
                    )
                window.clear()
        counters = podem.counters()
        self._fold_podem_counters(counters)
        return podem_patterns, counters

    def _fold_podem_counters(self, counters: dict[str, int]) -> None:
        """Accumulate one top-off run's search-effort counters into the
        attached metrics registry (no-op without telemetry)."""
        metrics = self.telemetry.metrics
        if not metrics.enabled:
            return
        help_by_name = {
            "lanes_seated": "PODEM lanes seated into the batch engine.",
            "rounds": "Batched implication sweeps (rounds).",
            "backtracks": "PODEM decision backtracks across all lanes.",
            "decisions": "PODEM decisions across all lanes.",
        }
        for key, value in counters.items():
            metrics.counter(
                f"repro_atpg_{key}_total", help=help_by_name.get(key, "")
            ).inc(value)
