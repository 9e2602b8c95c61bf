"""The flow layer: sessions, the Figure-1 steps, sweeps.

Three modules compose the paper's Figure-1 computation:

* :class:`~repro.flow.session.Session` — the flow's one entry point —
  owns circuit-level artefacts (loaded circuit, compiled fault
  simulator, ATPG result) with an optional content-keyed on-disk
  :class:`~repro.flow.session.ArtifactCache`, and runs the flow for one
  TPG at a time: its memoized ATPG, then the steps below, each reported
  as :class:`~repro.flow.stages.StageEvent` progress events;
* :mod:`repro.flow.stages` holds the steps after ATPG (Detection
  Matrix, set covering, trimming) as plain functions;
* :func:`~repro.flow.sweep.sweep` runs circuits x TPGs x evolution
  lengths over shared sessions, optionally across a process pool.  It
  is the one grid runner: the Figure-2 curve (``repro figure2``) is a
  one-circuit, one-TPG sweep of T.
"""

from repro.flow.pipeline import PipelineConfig, PipelineResult
from repro.flow.session import ArtifactCache, RunInfo, Session
from repro.flow.stages import StageEvent
from repro.flow.sweep import SweepOutcome, SweepResult, sweep

__all__ = [
    "ArtifactCache",
    "PipelineConfig",
    "PipelineResult",
    "RunInfo",
    "Session",
    "StageEvent",
    "SweepOutcome",
    "SweepResult",
    "sweep",
]
