"""First-class flow stages (the boxes of the paper's Figure 1).

Each box of the flow — ATPG, Detection Matrix construction, set
covering, trimming — is a :class:`Stage`: a named, timed step that
reads and writes artefacts on a shared :class:`StageContext` and emits
:class:`StageEvent` progress callbacks.  Stages are registered in
:data:`STAGE_REGISTRY` (mirroring ``repro.tpg.registry``), so custom
flows can insert, replace or reorder steps::

    ctx = StageContext(circuit, tpg, config, simulator)
    result = run_flow(ctx)                      # the default Figure-1 chain
    result = run_flow(ctx, ["set_cover", "trim"])   # resume mid-flow

Artefact keys: ``"atpg"`` (:class:`~repro.atpg.engine.AtpgResult`),
``"initial"`` (:class:`~repro.reseeding.initial.InitialReseeding`),
``"cover"`` (:class:`~repro.setcover.solve.CoverSolution`),
``"selected"`` (``list[Triplet]``), ``"trimmed"``
(:class:`~repro.reseeding.trim.TrimmedSolution`); the diagnosis side
adds ``"fail_log"`` (:class:`~repro.diagnosis.inject.FailLog`, consumed)
and ``"diagnosis"`` (:class:`~repro.diagnosis.result.DiagnosisResult`,
produced by :class:`DiagnosisStage`, which is registered but not part of
the default chain).  A stage whose output
artefact is already present skips itself (that is how a
:class:`~repro.flow.session.Session` shares circuit-level ATPG across
TPGs and how the artifact cache short-circuits recomputation), so
timing keys are always recorded — a skipped stage just costs ~0s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Sequence

from repro.atpg.engine import AtpgEngine
from repro.circuit.netlist import Circuit
from repro.reseeding.initial import InitialReseedingBuilder
from repro.reseeding.trim import trim_solution
from repro.setcover.matrix import CoverMatrix
from repro.setcover.solve import prepare_solver, solve_cover
from repro.sim.fault import FaultSimulator
from repro.tpg.base import TestPatternGenerator
from repro.utils.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flow.pipeline import PipelineConfig, PipelineResult


@dataclass(frozen=True)
class StageEvent:
    """One progress tick: a stage started, finished, or skipped.

    ``attrs`` is an optional structured payload (rows built, cache
    hit/skip reason, candidate counts) stages fill via
    ``StageContext.stage_attrs``; it is last and defaulted so the
    long-standing positional construction ``StageEvent(name, status,
    seconds, detail)`` keeps working.
    """

    stage: str
    status: str  # "start" | "done" | "skipped"
    seconds: float = 0.0
    detail: str = ""
    attrs: dict | None = None


#: Callback invoked with every :class:`StageEvent` of a flow run.
ProgressHook = Callable[[StageEvent], None]


@dataclass
class StageContext:
    """Everything stages share: inputs, knobs, and produced artefacts.

    ``artifacts`` maps artefact keys (see the module docstring) to the
    objects stages produce; pre-seeding a key makes the producing stage
    skip itself.  ``timings`` collects per-stage wall-clock seconds
    under the stage names.
    """

    circuit: Circuit
    tpg: TestPatternGenerator
    config: "PipelineConfig"
    simulator: FaultSimulator
    artifacts: dict[str, object] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    progress: ProgressHook | None = None
    #: Optional batched-evolution provider with the
    #: :data:`~repro.reseeding.triplet.EvolveBatch` signature.  When a
    #: :class:`~repro.flow.session.Session` drives the flow this is its
    #: :meth:`~repro.flow.session.Session.packed_evolution` — packed
    #: seed-bank evolutions are then memoized in-process and (with a
    #: cache attached) persisted per (tpg, sigma bank, length) in the
    #: ArtifactCache.  ``None`` evolves directly via
    #: :meth:`~repro.tpg.base.TestPatternGenerator.evolve_batch`.
    evolution_cache: object | None = None
    #: Scratch attrs for the *currently executing* stage: ``run``
    #: implementations drop structured facts here (rows built, skip
    #: reason) and :meth:`Stage.execute` attaches them to the terminal
    #: :class:`StageEvent`.  Reset before every stage.
    stage_attrs: dict = field(default_factory=dict)
    #: Optional :class:`repro.obs.Telemetry`; stages pass it down to
    #: the engines they construct.
    telemetry: object | None = None

    def emit(self, event: StageEvent) -> None:
        """Deliver ``event`` to the progress hook, if any."""
        if self.progress is not None:
            self.progress(event)


class Stage:
    """A named, timed flow step.

    Subclasses set ``name`` (also the timing key), ``requires`` /
    ``provides`` (artefact keys), and implement :meth:`run`.  ``run``
    returns ``True`` when the stage skipped itself because its output
    already existed.
    """

    name: ClassVar[str] = "stage"
    requires: ClassVar[tuple[str, ...]] = ()
    provides: ClassVar[tuple[str, ...]] = ()

    def run(self, ctx: StageContext) -> bool:
        """Produce ``provides`` on ``ctx.artifacts``; return True if
        the work was skipped (outputs already present)."""
        raise NotImplementedError

    def execute(self, ctx: StageContext) -> None:
        """Validate inputs, time :meth:`run`, emit progress events."""
        missing = [key for key in self.requires if key not in ctx.artifacts]
        if missing:
            raise ValueError(
                f"stage {self.name!r} missing required artifacts: {missing} "
                f"(run the producing stages first)"
            )
        ctx.emit(StageEvent(self.name, "start"))
        ctx.stage_attrs = {}
        start = time.perf_counter()
        skipped = self.run(ctx)
        seconds = time.perf_counter() - start
        ctx.timings[self.name] = seconds
        if skipped:
            ctx.stage_attrs.setdefault("skip_reason", "output-artifact-present")
        ctx.emit(
            StageEvent(
                self.name,
                "skipped" if skipped else "done",
                seconds,
                attrs=ctx.stage_attrs or None,
            )
        )

    def _already_done(self, ctx: StageContext) -> bool:
        return all(key in ctx.artifacts for key in self.provides)


class AtpgStage(Stage):
    """Deterministic test generation (the TestGen stand-in).

    Skips itself when an ``"atpg"`` artefact is pre-seeded — the
    Session/Table-1 pattern of sharing one circuit-level ATPG run
    across several TPG flows.
    """

    name = "atpg"
    provides = ("atpg",)

    def run(self, ctx: StageContext) -> bool:
        if self._already_done(ctx):
            return True
        config = ctx.config
        engine = AtpgEngine(
            ctx.circuit,
            seed=config.seed,
            max_random_patterns=config.max_random_patterns,
            backtrack_limit=config.backtrack_limit,
            simulator=ctx.simulator,
            telemetry=ctx.telemetry,
        )
        result = engine.run()
        ctx.artifacts["atpg"] = result
        ctx.stage_attrs.update(
            test_length=result.test_length,
            n_target_faults=len(result.target_faults),
            podem_patterns=result.podem_patterns,
        )
        return False


class MatrixStage(Stage):
    """Initial Reseeding Builder: candidate triplets + Detection Matrix."""

    name = "detection_matrix"
    requires = ("atpg",)
    provides = ("initial",)

    def run(self, ctx: StageContext) -> bool:
        if self._already_done(ctx):
            return True
        config = ctx.config
        simulator = ctx.simulator
        builder = InitialReseedingBuilder(
            ctx.circuit, ctx.tpg, seed=config.seed, simulator=simulator
        )
        cells, words = simulator.detect_cells, simulator.words_simulated
        initial = builder.build_from_atpg(
            ctx.artifacts["atpg"],
            evolution_length=config.evolution_length,
            workers=config.matrix_workers,
            evolve=ctx.evolution_cache,
        )
        ctx.artifacts["initial"] = initial
        ctx.stage_attrs.update(
            rows_built=len(initial.triplets),
            n_faults=initial.detection_matrix.matrix.shape[1],
            evolution_length=initial.evolution_length,
            detect_cells=simulator.detect_cells - cells,
            words_simulated=simulator.words_simulated - words,
        )
        return False


class CoverStage(Stage):
    """Matrix reduction + exact/heuristic covering (the LINGO stand-in)."""

    name = "set_cover"
    requires = ("initial",)
    provides = ("cover", "selected")

    def run(self, ctx: StageContext) -> bool:
        if self._already_done(ctx):
            return True
        config = ctx.config
        initial = ctx.artifacts["initial"]
        cover_matrix = CoverMatrix.from_bool_array(initial.detection_matrix.matrix)
        cover = solve_cover(
            cover_matrix,
            method=config.cover_method,
            seed=config.seed,
            grasp_iterations=config.grasp_iterations,
        )
        ctx.artifacts["cover"] = cover
        ctx.artifacts["selected"] = [
            initial.triplets[row] for row in cover.selected
        ]
        ctx.stage_attrs.update(
            n_essential=cover.stats.n_essential,
            reduced_shape=cover.stats.reduced_shape,
            reduction_iterations=cover.stats.reduction_iterations,
            solver=cover.stats.solver,
        )
        return False


class TrimStage(Stage):
    """Per-triplet test-length trimming (paper Section 4)."""

    name = "trim"
    requires = ("initial", "cover")
    provides = ("trimmed",)

    def run(self, ctx: StageContext) -> bool:
        if self._already_done(ctx):
            return True
        # The matrix build recorded every cell's first detecting
        # pattern; trimming reads those offsets and simulates nothing.
        trimmed = trim_solution(
            ctx.artifacts["initial"].detection_matrix,
            ctx.artifacts["cover"].selected,
        )
        if trimmed.undetected:
            raise AssertionError(
                f"final reseeding misses {len(trimmed.undetected)} faults; "
                "the covering solution should be complete"
            )
        ctx.artifacts["trimmed"] = trimmed
        ctx.stage_attrs.update(
            n_triplets=len(trimmed.solution.triplets),
            test_length=trimmed.solution.test_length,
        )
        return False


class DiagnosisStage(Stage):
    """Effect-cause / signature diagnosis of a captured fail log.

    Consumes a ``"fail_log"`` artefact (a
    :class:`~repro.diagnosis.inject.FailLog`) and produces a
    ``"diagnosis"`` artefact (a
    :class:`~repro.diagnosis.result.DiagnosisResult`).  The candidate
    universe is, in order of preference: the ``faults`` constructor
    argument, the pre-seeded ``"atpg"`` artefact's target faults
    (diagnosing against the same list the test set was generated for),
    or the circuit's collapsed fault list.

    ``method`` selects the engine: ``"effect_cause"`` (default) ranks
    on the full fail log; ``"signature"`` first bisects the pattern
    sequence with MISR prefix probes against an ``oracle`` (default: a
    :class:`~repro.diagnosis.inject.SimulatedTester` over the fail
    log) and ranks only the localised window; ``"multiplet"`` runs the
    greedy multiple-fault cover (``top_k`` bounds the multiplet size).
    """

    name = "diagnosis"
    requires = ("fail_log",)
    provides = ("diagnosis",)

    def __init__(
        self,
        top_k: int = 10,
        method: str = "effect_cause",
        min_window: int | None = None,
        oracle=None,
        faults=None,
    ) -> None:
        if method not in ("effect_cause", "signature", "multiplet"):
            raise ValueError(
                f"unknown diagnosis method {method!r}; "
                "expected 'effect_cause', 'signature' or 'multiplet'"
            )
        self.top_k = top_k
        self.method = method
        self.min_window = min_window
        self.oracle = oracle
        self.faults = faults

    def run(self, ctx: StageContext) -> bool:
        if self._already_done(ctx):
            return True
        from repro.diagnosis.effect_cause import (
            diagnose_effect_cause,
            diagnose_multiplet,
        )
        from repro.diagnosis.inject import SimulatedTester
        from repro.diagnosis.signature import DEFAULT_MIN_WINDOW, SignatureBisector
        from repro.faults.collapse import collapse_faults

        fail_log = ctx.artifacts["fail_log"]
        atpg = ctx.artifacts.get("atpg")
        if self.faults is not None:
            faults = list(self.faults)
        elif atpg is not None:
            faults = list(atpg.target_faults)
        else:
            faults = collapse_faults(ctx.circuit)
        # Pack the log's pattern sequence once; every engine below (and
        # any later stage sharing the log) reuses the packed form.
        patterns = fail_log.packed(
            ctx.simulator.compiled.n_inputs
            if ctx.simulator is not None
            else ctx.circuit.n_inputs
        )
        if self.method == "signature":
            from repro.sim.misr import Misr

            misr = Misr(ctx.circuit.n_outputs)
            bisector = SignatureBisector(
                ctx.circuit,
                patterns,
                misr,
                min_window=self.min_window or DEFAULT_MIN_WINDOW,
                simulator=ctx.simulator,
            )
            oracle = self.oracle or SimulatedTester(fail_log, misr)
            result = bisector.diagnose(oracle, faults=faults, top_k=self.top_k)
        elif self.method == "multiplet":
            result = diagnose_multiplet(
                ctx.circuit,
                patterns,
                fail_log.responses,
                faults=faults,
                simulator=ctx.simulator,
                max_faults=self.top_k,
            )
        else:
            result = diagnose_effect_cause(
                ctx.circuit,
                patterns,
                fail_log.responses,
                faults=faults,
                simulator=ctx.simulator,
                top_k=self.top_k,
            )
        ctx.artifacts["diagnosis"] = result
        ctx.stage_attrs.update(
            method=self.method,
            n_candidates=len(result.candidates),
            n_considered=result.n_candidates_considered,
        )
        return False


#: The stage registry — custom flows insert, replace or reorder steps by
#: name (unknown names raise with "did you mean" suggestions)::
#:
#:     from repro.flow.stages import STAGE_REGISTRY, Stage
#:
#:     class CompactStage(Stage):
#:         name = "compact"
#:         requires = ("trimmed",)
#:         provides = ("compacted",)
#:         def run(self, ctx):
#:             ctx.artifacts["compacted"] = my_compactor(ctx.artifacts["trimmed"])
#:             return False
#:
#:     STAGE_REGISTRY.register(CompactStage.name, CompactStage)
#:     run_flow(ctx, [*DEFAULT_STAGES, "compact"])
STAGE_REGISTRY: Registry[type[Stage]] = Registry("stage")
STAGE_REGISTRY.register(AtpgStage.name, AtpgStage)
STAGE_REGISTRY.register(MatrixStage.name, MatrixStage)
STAGE_REGISTRY.register(CoverStage.name, CoverStage)
STAGE_REGISTRY.register(TrimStage.name, TrimStage)
STAGE_REGISTRY.register(DiagnosisStage.name, DiagnosisStage)

#: The Figure-1 chain, in order.
DEFAULT_STAGES: tuple[str, ...] = (
    AtpgStage.name,
    MatrixStage.name,
    CoverStage.name,
    TrimStage.name,
)


def make_stage(name: str) -> Stage:
    """Instantiate a registered stage by name."""
    return STAGE_REGISTRY.get(name)()


def stage_names() -> list[str]:
    """All registered stage names."""
    return STAGE_REGISTRY.names()


def assemble_result(ctx: StageContext) -> "PipelineResult":
    """Bundle a completed context's artefacts into a PipelineResult."""
    from repro.flow.pipeline import PipelineResult

    return PipelineResult(
        circuit_name=ctx.circuit.name,
        tpg_name=ctx.tpg.name,
        config=ctx.config,
        atpg=ctx.artifacts["atpg"],
        initial=ctx.artifacts["initial"],
        cover=ctx.artifacts["cover"],
        selected_triplets=ctx.artifacts["selected"],
        trimmed=ctx.artifacts["trimmed"],
        timings=dict(ctx.timings),
    )


def run_flow(
    ctx: StageContext, stages: Sequence[str | Stage] | None = None
) -> "PipelineResult":
    """Execute ``stages`` (default: the full Figure-1 chain) over ``ctx``
    and assemble the :class:`~repro.flow.pipeline.PipelineResult`."""
    prepare_solver(ctx.config.cover_method)
    for entry in stages if stages is not None else DEFAULT_STAGES:
        stage = make_stage(entry) if isinstance(entry, str) else entry
        stage.execute(ctx)
    return assemble_result(ctx)
