"""Test-length trimming (paper Section 4).

"The global test length reported in Table 1 is computed deleting from
each test set TS_i the last subsequence of patterns not contributing to
the fault coverage AFC_i": after the covering pass fixes *which*
triplets run, each triplet only needs to evolve until the last pattern
that first-detects some still-undetected fault.  Later patterns add
nothing and are cut, shortening the global test length without touching
coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.faults.model import Fault
from repro.reseeding.detection_matrix import DetectionMatrix
from repro.reseeding.triplet import ReseedingSolution, Triplet


@dataclass(frozen=True)
class TrimmedSolution:
    """A reseeding solution with per-triplet trimmed lengths.

    ``delta_coverage[i]`` is the number of faults triplet ``i`` newly
    detects in sequence order (the paper's AFC_i, as a fault count).
    """

    solution: ReseedingSolution
    delta_coverage: tuple[int, ...]
    undetected: tuple[Fault, ...]

    @property
    def test_length(self) -> int:
        """Global test length after trimming."""
        return self.solution.test_length

    @property
    def n_triplets(self) -> int:
        """Triplet count (unchanged by trimming)."""
        return self.solution.n_triplets


def trim_solution(
    matrix: DetectionMatrix, selected: Sequence[int]
) -> TrimmedSolution:
    """Trim each selected triplet to its last useful pattern, in sequence order.

    Rows ``selected`` of ``matrix`` run in the given order over
    ``matrix.faults``.  A row's trimmed length is ``1 + max`` of its
    first-detection offsets over the still-undetected faults it
    detects, and those faults are then detected; a row that detects
    nothing new keeps only its seed pattern.  The offsets are the ones
    the matrix build recorded (:attr:`DetectionMatrix.offsets`), so
    trimming is an array reduction that simulates nothing.  Coverage
    over the matrix's faults is exactly preserved (property-tested).
    """
    offsets = matrix.offsets
    if offsets is None:
        raise ValueError(
            "trim_solution needs the Detection Matrix's first-detection "
            "offsets, which a matrix decoded from a stored result does not "
            "carry; rebuild it with build_detection_matrix"
        )
    remaining = np.arange(matrix.n_faults)
    trimmed: list[Triplet] = []
    deltas: list[int] = []
    for row in selected:
        triplet = matrix.triplets[row]
        hits = matrix.matrix[row, remaining]
        n_hits = int(np.count_nonzero(hits))
        if n_hits:
            last = int(offsets[row, remaining[hits]].max())
            trimmed.append(triplet.with_length(last + 1))
            remaining = remaining[~hits]
        else:
            # The covering pass never selects a useless triplet, but
            # tolerate one: keep only the seed pattern.
            trimmed.append(triplet.with_length(min(1, triplet.length)))
        deltas.append(n_hits)
    return TrimmedSolution(
        ReseedingSolution.from_list(trimmed),
        tuple(deltas),
        tuple(matrix.faults[index] for index in remaining),
    )
