"""The composable flow layer: sessions, stages, sweeps.

Three concepts compose the paper's Figure-1 computation:

* :class:`~repro.flow.session.Session` — the flow's one entry point —
  owns circuit-level artefacts (loaded circuit, compiled fault
  simulator, ATPG result) with an optional content-keyed on-disk
  :class:`~repro.flow.session.ArtifactCache`, and runs the stages for
  one TPG at a time;
* :class:`~repro.flow.stages.Stage` objects (ATPG, Detection Matrix,
  set covering, trimming) run over a shared
  :class:`~repro.flow.stages.StageContext`, emit progress events, and
  are registered in :data:`~repro.flow.stages.STAGE_REGISTRY`;
* :func:`~repro.flow.sweep.sweep` orchestrates circuits x TPGs x
  configs over shared sessions, optionally across a process pool.

:func:`~repro.flow.tradeoff.explore_tradeoff`, the Figure-2 curve
generator, is a thin client of the machinery above.
"""

from repro.flow.pipeline import PipelineConfig, PipelineResult
from repro.flow.session import ArtifactCache, RunInfo, Session
from repro.flow.stages import (
    DEFAULT_STAGES,
    STAGE_REGISTRY,
    AtpgStage,
    CoverStage,
    DiagnosisStage,
    MatrixStage,
    Stage,
    StageContext,
    StageEvent,
    TrimStage,
    make_stage,
    run_flow,
    stage_names,
)
from repro.flow.sweep import SweepOutcome, SweepResult, sweep
from repro.flow.tradeoff import TradeoffPoint, explore_tradeoff

__all__ = [
    "ArtifactCache",
    "AtpgStage",
    "CoverStage",
    "DEFAULT_STAGES",
    "DiagnosisStage",
    "MatrixStage",
    "PipelineConfig",
    "PipelineResult",
    "RunInfo",
    "STAGE_REGISTRY",
    "Session",
    "Stage",
    "StageContext",
    "StageEvent",
    "SweepOutcome",
    "SweepResult",
    "TradeoffPoint",
    "TrimStage",
    "explore_tradeoff",
    "make_stage",
    "run_flow",
    "stage_names",
    "sweep",
]
