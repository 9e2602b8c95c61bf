"""The reseeding computation flow (paper Figure 1).

::

    ATPG (TestGen stand-in) --ATPGTS, F--> Initial Reseeding Builder
        --Detection Matrix--> Matrix Reducer (essentiality + dominance)
        --reduced matrix--> exact solver (LINGO stand-in)
        --necessary + minimal triplets--> trimming --> final reseeding N

This module holds the flow's configuration and its result: a
:class:`PipelineConfig` in, a :class:`PipelineResult` (every
intermediate artefact — Table 1 reads the final solution, Table 2 the
matrix/reduction statistics) out.  :class:`repro.flow.session.Session`
runs the flow for one circuit (ATPG, then the step functions of
:mod:`repro.flow.stages`) and builds the result;
:func:`repro.flow.sweep.sweep` runs batch grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.atpg.engine import AtpgResult
from repro.reseeding.detection_matrix import DetectionMatrix
from repro.reseeding.initial import InitialReseeding
from repro.reseeding.triplet import Triplet
from repro.reseeding.trim import TrimmedSolution
from repro.setcover.registry import SOLVER_REGISTRY
from repro.setcover.solve import CoverSolution
from repro.utils.registry import UnknownComponentError


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run.

    ``evolution_length`` is the paper's experimentally tuned T, equal
    for all candidate triplets (Section 3.1).  ``matrix_workers`` opts in
    to row-parallel Detection Matrix construction over a process pool
    (``None``/1 = serial, identical results either way).

    No knob picks the logic: the paper's flow is fully scanned and
    deterministic, so every stimulus it simulates is X-free and runs
    2-valued.  The fault simulator takes the plane count from its packed
    carrier, so 0/1/X simulation means handing it
    :class:`~repro.utils.bitvec.PackedPlanes`.

    Every field is checked when the config is built, so a bad value
    fails at the boundary (the CLI turns it into a usage error) rather
    than deep inside a run: a :class:`ValueError` names the field and
    its bound.
    """

    seed: int = 2001
    evolution_length: int = 64
    cover_method: str = "auto"
    max_random_patterns: int = 4096
    backtrack_limit: int = 250
    grasp_iterations: int = 30
    matrix_workers: int | None = None

    def __post_init__(self) -> None:
        for name, low in (
            ("evolution_length", 1),
            ("max_random_patterns", 0),
            ("backtrack_limit", 0),
            ("grasp_iterations", 1),
        ):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.matrix_workers is not None and self.matrix_workers < 1:
            raise ValueError(
                f"matrix_workers must be None or >= 1, got {self.matrix_workers}"
            )
        if self.cover_method != "auto" and self.cover_method not in SOLVER_REGISTRY:
            raise UnknownComponentError(
                "cover_method", self.cover_method, ["auto", *SOLVER_REGISTRY.names()]
            )


@dataclass
class PipelineResult:
    """Everything the flow produced, plus stage timings (seconds)."""

    circuit_name: str
    tpg_name: str
    config: PipelineConfig
    atpg: AtpgResult
    initial: InitialReseeding
    cover: CoverSolution
    selected_triplets: list[Triplet]
    trimmed: TrimmedSolution
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def n_triplets(self) -> int:
        """|N| — Table 1's '#Triplets'."""
        return self.trimmed.n_triplets

    @property
    def test_length(self) -> int:
        """Global test length after trimming — Table 1's 'Test Length'."""
        return self.trimmed.test_length

    @property
    def detection_matrix(self) -> DetectionMatrix:
        """The initial Detection Matrix."""
        return self.initial.detection_matrix

    @property
    def n_necessary(self) -> int:
        """Necessary (essential) triplets — Table 2's 'Necessary'."""
        return self.cover.stats.n_essential

    @property
    def n_from_solver(self) -> int:
        """Triplets chosen by the exact solver — Table 2's 'LINGO'."""
        return self.cover.stats.n_solver_selected

    @property
    def reduced_shape(self) -> tuple[int, int]:
        """Matrix size after reduction — Table 2's 'After Reduction'."""
        return self.cover.stats.reduced_shape

    def summary(self) -> str:
        """One-line digest in Table-1 vocabulary."""
        return (
            f"{self.circuit_name}/{self.tpg_name}: #Triplets={self.n_triplets} "
            f"TestLength={self.test_length} "
            f"(necessary={self.n_necessary}, solver={self.n_from_solver}, "
            f"reduced={self.reduced_shape[0]}x{self.reduced_shape[1]})"
        )

    def to_dict(self) -> dict:
        """Schema-versioned plain-dict form — the artifact-cache entry
        format, lossless for every downstream consumer (the
        :class:`PipelineRecord` layout)."""
        from repro.flow.serialize import encode

        return encode(
            PipelineRecord(
                circuit_name=self.circuit_name,
                tpg_name=self.tpg_name,
                config=self.config,
                atpg=self.atpg,
                pool=self.initial.triplets,
                matrix=self.initial.detection_matrix.matrix,
                evolution_length=self.initial.evolution_length,
                cover=self.cover,
                trimmed=self.trimmed,
                timings=self.timings,
            )
        )

    def to_json(self, indent: int | None = None) -> str:
        """:meth:`to_dict` rendered as JSON text (CLI ``--json``)."""
        from repro.flow.serialize import to_json

        return to_json(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineResult":
        """Inverse of :meth:`to_dict`; raises
        :class:`~repro.flow.serialize.SchemaMismatchError` on version skew
        or a mistyped field.

        The reconstructed object shares structure the way a live run
        does: the Detection Matrix's fault columns are the ATPG target
        faults, and ``selected_triplets`` are the pool's rows at the
        cover's selected indices.
        """
        from repro.flow.serialize import decode

        record: PipelineRecord = decode(PipelineRecord, data)
        pool = record.pool
        matrix = DetectionMatrix(pool, list(record.atpg.target_faults), record.matrix)
        return cls(
            circuit_name=record.circuit_name,
            tpg_name=record.tpg_name,
            config=record.config,
            atpg=record.atpg,
            initial=InitialReseeding(pool, matrix, record.evolution_length),
            cover=record.cover,
            selected_triplets=[pool[row] for row in record.cover.selected],
            trimmed=record.trimmed,
            timings=record.timings,
        )


@dataclass
class PipelineRecord:
    """The stored form of a :class:`PipelineResult` (kind
    ``pipeline_result``): shared structure is kept once — the candidate
    pool and its packed Detection Matrix, whose fault columns are
    ``atpg.target_faults``; the selected triplets are pool rows."""

    circuit_name: str
    tpg_name: str
    config: PipelineConfig
    atpg: AtpgResult
    pool: list[Triplet]
    matrix: np.ndarray
    evolution_length: int
    cover: CoverSolution
    trimmed: TrimmedSolution
    timings: dict[str, float]
