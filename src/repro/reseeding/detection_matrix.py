"""The Detection Matrix (paper Section 3).

``D`` has one row per candidate triplet and one column per target fault;
``D[i, j] = 1`` iff some pattern of triplet ``i``'s test set detects
fault ``j``.  The optimal-reseeding problem is then::

    minimize   sum(x)
    subject to D^T x >= 1,   x in {0,1}^M

i.e. unate set covering over the rows.  The build also keeps, per cell,
the index of the first detecting pattern (``offsets``), which the
Section-4 trim reads instead of simulating again.
"""

from __future__ import annotations

from collections.abc import MutableMapping
from dataclasses import dataclass

import numpy as np

from repro.circuit.netlist import Circuit
from repro.faults.model import Fault, fault_list_digest
from repro.reseeding.triplet import EvolveBatch, Triplet, packed_test_sets
from repro.sim.batch import (
    BatchFaultSimulator,
    detected_mask,
    parallel_detection_rows,
    prefix_offsets,
)
from repro.sim.fault import FaultSimulator
from repro.tpg.base import TestPatternGenerator
from repro.utils.bitvec import bank_digest

#: First-detection tables of one circuit's candidate pools, keyed by
#: :func:`_table_key`: ``(n_patterns, offsets)``, the longest table
#: built so far, its ``offsets`` read-only and shared with the
#: :class:`DetectionMatrix` that holds them.  A session keeps one.
TableMemo = MutableMapping[tuple, tuple[int, np.ndarray]]


@dataclass
class DetectionMatrix:
    """Rows = triplets, columns = faults, boolean detection entries.

    ``offsets`` is the first-detection table the build recorded: entry
    ``[i, j]`` is the index of triplet ``i``'s first pattern detecting
    fault ``j``, or the dtype's max if none does (``matrix`` is
    ``offsets != max``).  It lives in memory only; a matrix rebuilt from
    a stored result has ``offsets=None``.  So does ``reused_patterns``:
    how many leading patterns of every row a memoized table of the same
    pool served (0 for a fresh build).
    """

    triplets: list[Triplet]
    faults: list[Fault]
    matrix: np.ndarray  # bool, shape (n_triplets, n_faults)
    offsets: np.ndarray | None = None  # narrow unsigned, same shape
    reused_patterns: int = 0

    def __post_init__(self) -> None:
        expected = (len(self.triplets), len(self.faults))
        if self.matrix.shape != expected:
            raise ValueError(
                f"matrix shape {self.matrix.shape} != (triplets, faults) {expected}"
            )
        if self.matrix.dtype != np.bool_:
            self.matrix = self.matrix.astype(bool)
        if self.offsets is not None and self.offsets.shape != expected:
            raise ValueError(
                f"offsets shape {self.offsets.shape} != (triplets, faults) {expected}"
            )

    @classmethod
    def from_offsets(
        cls,
        triplets: list[Triplet],
        faults: list[Fault],
        offsets: np.ndarray,
        reused_patterns: int = 0,
    ) -> "DetectionMatrix":
        """The matrix of a first-detection table: a cell is 1 iff its
        offset is a detection (:func:`~repro.sim.batch.detected_mask`)."""
        return cls(
            list(triplets), list(faults), detected_mask(offsets), offsets,
            reused_patterns,
        )

    @property
    def n_triplets(self) -> int:
        """Row count (the paper's #Triplets, = |ATPGTS| initially)."""
        return len(self.triplets)

    @property
    def n_faults(self) -> int:
        """Column count (the paper's #Faults)."""
        return len(self.faults)

    @property
    def shape(self) -> tuple[int, int]:
        """(n_triplets, n_faults) — Table 2's 'Initial Matrix' column."""
        return (self.n_triplets, self.n_faults)

    def undetected_faults(self) -> list[Fault]:
        """Faults no candidate triplet detects (must be empty for a
        well-formed initial reseeding)."""
        if self.n_triplets == 0:
            return list(self.faults)
        covered = self.matrix.any(axis=0)
        return [f for f, hit in zip(self.faults, covered) if not hit]


def _table_key(
    tpg: TestPatternGenerator, triplets: list[Triplet], faults: list[Fault], m: int
) -> tuple:
    """What a pool's first-detection offsets depend on, its length
    aside: the TPG's identity, the ordered delta and sigma banks, the
    fault columns and the carrier's plane count."""
    return (
        tpg.cache_token(),
        bank_digest(t.delta for t in triplets),
        bank_digest(t.sigma for t in triplets),
        fault_list_digest(faults),
        m,
    )


def build_detection_matrix(
    circuit: Circuit,
    tpg: TestPatternGenerator,
    triplets: list[Triplet],
    faults: list[Fault],
    simulator: BatchFaultSimulator | None = None,
    workers: int | None = None,
    evolve: EvolveBatch | None = None,
    tables: TableMemo | None = None,
) -> DetectionMatrix:
    """Fault-simulate every triplet's test set over ``faults``.

    This is the only simulation-heavy step of the set-covering approach —
    the paper's point that "the number of fault simulations is reduced
    and limited to the construction of the Detection Matrix".  The
    candidate-seed bank is evolved in one word-parallel
    :meth:`~repro.tpg.base.TestPatternGenerator.evolve_batch` call per
    shared length (:func:`~repro.reseeding.triplet.packed_test_sets`),
    so the rows reach the simulator already packed — no per-pattern
    Python loop, no re-packing (``evolve`` swaps in the session's
    caching provider).  The rows' first-detection table is filled by
    :func:`~repro.sim.batch.parallel_detection_rows` through
    ``simulator``'s row scan, which packs the rows word-aligned into
    chunks — every row reuses the same cached cone-union schedules, and
    a whole chunk of rows shares one fault-free simulation, one
    good-machine trace and one ``_BatchPlan.detect`` per batch of stem
    machines.  ``workers=N`` (N > 1) opts in to row-parallel
    construction over a process pool whose workers run ``simulator``'s
    settings and report their work back into ``simulator``'s counters;
    the table is identical to the serial one.  ``None`` is serial, and a
    value below 1 raises :class:`ValueError`.

    ``tables`` (the session's memo) lets a pool whose triplets share
    one length reuse its table at another length.  A row's length-T
    test set is a prefix of its longer ones, so a stored table of
    n >= T patterns gives the length-T table with no simulation
    (:func:`~repro.sim.batch.prefix_offsets`), and a stored table of
    n < T patterns seeds the scan, which starts at word ``n // 64``.  A
    table built here replaces the stored one, and the matrix's
    ``offsets`` are read-only either way.  The tables are identical,
    dtype included, to a build without ``tables``.
    """
    workers = 1 if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    pattern_sets = packed_test_sets(tpg, triplets, evolve=evolve)
    simulator = simulator or FaultSimulator(circuit)
    lengths = {triplet.length for triplet in triplets}
    if tables is None or len(lengths) != 1:
        offsets = parallel_detection_rows(simulator, pattern_sets, faults, workers)
        return DetectionMatrix.from_offsets(triplets, faults, offsets)
    (length,) = lengths
    key = _table_key(tpg, triplets, faults, max(p.m for p in pattern_sets))
    stored, prior = tables.get(key, (0, None))
    if length <= stored:
        offsets = prefix_offsets(prior, length)
        offsets.flags.writeable = False
        return DetectionMatrix.from_offsets(triplets, faults, offsets, length)
    offsets = parallel_detection_rows(
        simulator, pattern_sets, faults, workers,
        None if prior is None else (stored, prior),
    )
    offsets.flags.writeable = False
    tables[key] = (length, offsets)
    return DetectionMatrix.from_offsets(triplets, faults, offsets, stored)
