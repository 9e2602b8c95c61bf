"""Batch orchestration: circuits x TPGs x evolution lengths over shared
sessions.

``sweep()`` is the one grid runner: ``repro sweep``, ``repro figure2``
(the paper's Figure-2 curve is a one-circuit, one-TPG sweep of T) and
serve's ``/sweep`` all call it.  It guarantees:

* one :class:`~repro.flow.session.Session` per circuit, so the loaded
  netlist, the compiled fault simulator and the ATPG artefact are
  computed once and shared by every TPG/config cell;
* deterministic outcome order (circuit-major, then TPG, then config),
  independent of the execution mode;
* optional process-pool parallelism across circuits (``workers=N``) —
  workers exchange schema-versioned dicts, so the parallel path
  exercises exactly the serialisation the artifact cache relies on;
* optional warm-start via an :class:`~repro.flow.session.ArtifactCache`
  directory: resumed sweeps skip ATPG and matrix construction for
  every already-cached cell.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.flow.pipeline import PipelineConfig, PipelineResult
from repro.flow.session import ArtifactCache, Session
from repro.flow.stages import ProgressHook
from repro.tpg.base import TestPatternGenerator


@dataclass(frozen=True)
class SweepOutcome:
    """One grid cell: which (circuit, TPG, config) produced ``result``."""

    circuit: str
    tpg: str
    config_index: int
    config: PipelineConfig
    result: PipelineResult
    from_cache: bool
    seconds: float

    def cell(self) -> dict[str, Any]:
        """The cell as ``repro sweep --json`` and serve's ``/sweep``
        report it."""
        return {
            "circuit": self.circuit,
            "tpg": self.tpg,
            "evolution_length": self.config.evolution_length,
            "n_triplets": self.result.n_triplets,
            "test_length": self.result.test_length,
            "n_necessary": self.result.n_necessary,
            "n_from_solver": self.result.n_from_solver,
            "from_cache": self.from_cache,
            "seconds": round(self.seconds, 4),
        }


@dataclass
class SweepResult:
    """All outcomes of one ``sweep()`` call, in deterministic grid order."""

    outcomes: list[SweepOutcome]

    def get(
        self, circuit: str, tpg: str, config_index: int = 0
    ) -> SweepOutcome:
        """The outcome for one grid cell (raises if absent)."""
        for outcome in self.outcomes:
            if (
                outcome.circuit == circuit
                and outcome.tpg == tpg
                and outcome.config_index == config_index
            ):
                return outcome
        raise KeyError(f"no sweep outcome for {(circuit, tpg, config_index)}")

    @property
    def n_cached(self) -> int:
        """How many cells were served from the artifact cache."""
        return sum(1 for o in self.outcomes if o.from_cache)

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)


def _tpg_label(tpg: str | TestPatternGenerator) -> str:
    return tpg if isinstance(tpg, str) else tpg.name


def grid_configs(
    base_config: PipelineConfig | None, evolution_lengths: Sequence[int] | None
) -> list[PipelineConfig]:
    """The grid's configs: ``base_config`` (default
    :class:`PipelineConfig()`) at each evolution length, or alone when
    ``evolution_lengths`` is ``None``.  An empty ``evolution_lengths``
    and any length :class:`PipelineConfig` rejects raise
    :class:`ValueError`."""
    base = base_config or PipelineConfig()
    if evolution_lengths is None:
        return [base]
    if not evolution_lengths:
        raise ValueError("evolution_lengths must be non-empty")
    return [replace(base, evolution_length=t) for t in evolution_lengths]


def _run_circuit_block(
    name: str,
    scale: float,
    tpg_names: list[str],
    configs: list[PipelineConfig],
    cache_dir: str | None,
) -> list[tuple[str, int, dict[str, Any], bool, float]]:
    """Process-pool worker: one circuit's full TPG x config block.

    Returns serialised results (plain dicts) so the parent process
    never has to unpickle bespoke classes from a worker.
    """
    session = Session.from_name(name, scale=scale, cache=cache_dir, config=configs[0])
    block: list[tuple[str, int, dict[str, Any], bool, float]] = []
    for tpg_name in tpg_names:
        for index, config in enumerate(configs):
            info = session.run_info(tpg_name, config)
            block.append(
                (tpg_name, index, info.result.to_dict(), info.from_cache, info.seconds)
            )
    return block


def sweep(
    circuits: Sequence[str],
    tpgs: Sequence[str | TestPatternGenerator],
    base_config: PipelineConfig | None = None,
    evolution_lengths: Sequence[int] | None = None,
    scale: float = 1.0,
    cache: ArtifactCache | str | Path | None = None,
    workers: int | None = None,
    sessions: Mapping[str, Session] | None = None,
    progress: ProgressHook | None = None,
) -> SweepResult:
    """Run the full circuits x TPGs x evolution-lengths grid.

    ``evolution_lengths`` expands ``base_config`` into one config per T
    (the Figure-2 pattern, see :func:`grid_configs`); without it the
    grid runs ``base_config`` alone.  ``sessions``
    injects pre-built sessions (keyed by circuit name) for artefact
    sharing with a caller that already did ATPG; missing circuits are
    loaded at ``scale``.  ``workers=N`` fans circuits out over a process
    pool (requires string TPG names); results are bit-identical to the
    serial path.  ``workers`` below 1 raises :class:`ValueError`.

    Example — the Figure-2 grid, resumable through a cache directory::

        from repro.flow.sweep import sweep

        grid = sweep(
            ["c880", "s1238"],
            ["adder", "multiplier"],
            evolution_lengths=[16, 32, 64],
            scale=0.25,
            cache=".repro-cache",   # re-running skips finished cells
            workers=2,              # one circuit per process
        )
        best = min(grid, key=lambda o: o.result.n_triplets)
        print(best.circuit, best.tpg, best.result.summary())
        print(f"{grid.n_cached}/{len(grid)} cells served from cache")
    """
    if not circuits:
        raise ValueError("sweep needs at least one circuit")
    if not tpgs:
        raise ValueError("sweep needs at least one TPG")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    config_list = grid_configs(base_config, evolution_lengths)
    tpg_labels = [_tpg_label(t) for t in tpgs]

    parallel = (
        workers is not None
        and workers > 1
        and len(circuits) > 1
        and sessions is None
        and all(isinstance(t, str) for t in tpgs)
    )
    outcomes: list[SweepOutcome] = []
    if parallel:
        cache_dir = None
        if cache is not None:
            cache_dir = str(cache.root if isinstance(cache, ArtifactCache) else cache)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(
                pool.map(
                    _run_circuit_block,
                    circuits,
                    [scale] * len(circuits),
                    [tpg_labels] * len(circuits),
                    [config_list] * len(circuits),
                    [cache_dir] * len(circuits),
                )
            )
        for name, block in zip(circuits, blocks):
            for tpg_name, index, result_dict, from_cache, seconds in block:
                if isinstance(cache, ArtifactCache):
                    # Workers hit their own per-process cache objects;
                    # reflect their outcomes in the caller's counters.
                    cache.record("pipeline_result", from_cache)
                outcomes.append(
                    SweepOutcome(
                        circuit=name,
                        tpg=tpg_name,
                        config_index=index,
                        config=config_list[index],
                        result=PipelineResult.from_dict(result_dict),
                        from_cache=from_cache,
                        seconds=seconds,
                    )
                )
        return SweepResult(outcomes)

    for name in circuits:
        if sessions is not None and name in sessions:
            session = sessions[name]
        else:
            session = Session.from_name(
                name,
                scale=scale,
                cache=cache,
                config=config_list[0],
                progress=progress,
            )
        for tpg in tpgs:
            for index, config in enumerate(config_list):
                info = session.run_info(tpg, config)
                outcomes.append(
                    SweepOutcome(
                        circuit=name,
                        tpg=_tpg_label(tpg),
                        config_index=index,
                        config=config,
                        result=info.result,
                        from_cache=info.from_cache,
                        seconds=info.seconds,
                    )
                )
    return SweepResult(outcomes)
