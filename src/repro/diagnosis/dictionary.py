"""Compressed pass/fail fault dictionaries.

A fault dictionary is diagnosis paid for in advance: one batched
fault-simulation pass over (patterns x faults) stores, per fault, the
set of patterns it makes fail.  Diagnosing a fail log then costs a
vectorised compare against every column — no simulation at all — which
is why dictionaries are the production choice when many devices fail
the same test program.

The matrix is held bit-packed (one bit per pattern/fault pair, via
``numpy.packbits``) and serialises as the ``fault_dictionary`` kind of
the :mod:`repro.flow.serialize` codec, so a
:class:`~repro.flow.session.Session` can persist it in its
:class:`~repro.flow.session.ArtifactCache` and warm diagnosis runs skip
simulation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.diagnosis.result import Candidate, DiagnosisResult
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault
from repro.sim.batch import BatchFaultSimulator
from repro.utils.bitvec import BitVector, PackedPatterns, as_packed


@dataclass(eq=False, repr=False)
class FaultDictionary:
    """A pass/fail dictionary: ``matrix[p, f]`` is True iff fault ``f``
    makes pattern ``p`` fail at some primary output."""

    circuit_name: str
    faults: list[Fault]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.faults = list(self.faults)
        self.matrix = np.asarray(self.matrix, dtype=bool)
        if self.matrix.shape[1] != len(self.faults):
            raise ValueError(
                f"matrix has {self.matrix.shape[1]} columns for {len(self.faults)} faults"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        circuit: Circuit,
        patterns: Sequence[BitVector] | PackedPatterns,
        faults: Sequence[Fault] | None = None,
        simulator: BatchFaultSimulator | None = None,
    ) -> "FaultDictionary":
        """Simulate the dictionary with the batched engine (64 patterns
        per word, faults stacked on the batch axis).

        ``patterns`` may be pre-packed (:class:`~repro.utils.bitvec.
        PackedPatterns`) — a session that already packed the sequence
        pays no per-call conversion.
        """
        faults = list(faults) if faults is not None else collapse_faults(circuit)
        simulator = simulator or BatchFaultSimulator(circuit)
        packed = as_packed(patterns, simulator.compiled.n_inputs)
        matrix = simulator.detection_matrix(packed, faults)
        return cls(circuit.name, faults, matrix)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def n_patterns(self) -> int:
        """Number of patterns the dictionary covers."""
        return int(self.matrix.shape[0])

    @property
    def n_faults(self) -> int:
        """Number of fault columns."""
        return len(self.faults)

    @property
    def packed_bytes(self) -> int:
        """Size of the bit-packed matrix (the stored representation)."""
        return int(np.packbits(self.matrix.astype(np.uint8), axis=None).nbytes)

    def lookup(
        self, fail_flags: np.ndarray, top_k: int = 10
    ) -> list[Candidate]:
        """Rank every dictionary fault against observed per-pattern fail
        flags; returns the ``top_k`` best-first candidates."""
        return self.diagnose(fail_flags, top_k=top_k).candidates

    def diagnose(
        self, fail_flags: np.ndarray, top_k: int = 10
    ) -> DiagnosisResult:
        """One fail log's :meth:`diagnose_many` (zero patterns
        re-simulated — that is the point of a dictionary)."""
        fail_flags = np.asarray(fail_flags, dtype=bool)
        if fail_flags.shape != (self.n_patterns,):
            raise ValueError(
                f"fail flags shape {fail_flags.shape} != ({self.n_patterns},)"
            )
        return self.diagnose_many(fail_flags, top_k=top_k)[0]

    @cached_property
    def _fault_rank(self) -> np.ndarray:
        """Per-column rank of each fault in its deterministic total
        order (:meth:`~repro.faults.model.Fault.sort_key`) — the final
        tie-break of :meth:`~repro.diagnosis.result.Candidate.sort_key`,
        precomputed once so the batched lookup can lexsort with it."""
        order = sorted(
            range(len(self.faults)),
            key=lambda column: self.faults[column].sort_key(),
        )
        rank = np.empty(len(order), dtype=np.int64)
        rank[np.asarray(order, dtype=np.int64)] = np.arange(len(order))
        return rank

    @cached_property
    def _fault_words(self) -> np.ndarray:
        """The matrix bit-packed per fault, word-major: ``(ceil(P / 64),
        n_faults)`` ``uint64``, column ``f`` the patterns fault ``f``
        makes fail (so a popcount sums words over contiguous rows)."""
        from repro.setcover.matrix import pack_bool_rows

        # Packing the rows of a contiguous transposed copy is about 5x
        # faster than packing along the matrix's pattern axis (c880,
        # 256 x 1,592).
        fault_rows = np.ascontiguousarray(self.matrix.T)
        return np.ascontiguousarray(pack_bool_rows(fault_rows).T)

    @cached_property
    def _predicted_fails(self) -> np.ndarray:
        """Per-fault count of patterns it makes fail, ``(n_faults,)``."""
        return np.bitwise_count(self._fault_words).sum(axis=0, dtype=np.int64)

    def diagnose_many(
        self,
        fail_flags: np.ndarray,
        top_k: "int | Sequence[int]" = 10,
    ) -> list[DiagnosisResult]:
        """Diagnose a whole batch of fail logs in one lookup pass.

        ``fail_flags`` is ``(n_patterns, n_logs)`` (a 1-D array is one
        log).  ``n_match`` for every (log, fault) pair is one AND +
        popcount of the log's packed flags against the per-fault packed
        matrix; the other two tau counts follow from it and the per-fault
        fail counts, both built once per dictionary.  Each log's ranking
        sorts only the faults that can reach its ``top_k``
        (:meth:`_top`), on exactly the keys :meth:`~repro.diagnosis.
        result.Candidate.sort_key` uses (``n_response_match`` is None
        throughout dictionary mode), so every result equals
        ``rank_candidates(candidates_from_predictions(...))[:top_k]``.
        This is the fault-axis batching trick applied across
        *requests*: N concurrent fail logs cost one pass, not N.
        """
        flags = np.asarray(fail_flags, dtype=bool)
        if flags.ndim == 1:
            flags = flags[:, None]
        if flags.shape[0] != self.n_patterns:
            raise ValueError(
                f"fail flags have {flags.shape[0]} patterns, dictionary "
                f"covers {self.n_patterns}"
            )
        n_logs = flags.shape[1]
        top_ks = (
            [int(k) for k in top_k]
            if isinstance(top_k, (list, tuple))
            else [int(top_k)] * n_logs
        )
        if len(top_ks) != n_logs:
            raise ValueError(f"{len(top_ks)} top_k values for {n_logs} logs")
        from repro.setcover.matrix import pack_bool_rows

        observed = pack_bool_rows(flags.T)  # (B, ceil(P / 64))
        n_match = np.bitwise_count(
            observed[:, :, None] & self._fault_words[None, :, :]
        ).sum(axis=1, dtype=np.int64)  # (B, F)
        n_failing = flags.sum(axis=0, dtype=np.int64)  # (B,)
        n_mispredicted = self._predicted_fails[None, :] - n_match
        n_missed = n_failing[:, None] - n_match
        neg_score = n_mispredicted + n_missed - n_match
        return [
            DiagnosisResult(
                circuit_name=self.circuit_name,
                mode="dictionary",
                n_patterns=self.n_patterns,
                n_failing=int(n_failing[log]),
                candidates=[
                    Candidate(
                        self.faults[column],
                        int(n_match[log, column]),
                        int(n_mispredicted[log, column]),
                        int(n_missed[log, column]),
                    )
                    for column in self._top(
                        neg_score[log], n_missed[log], n_mispredicted[log], k
                    )
                ],
                n_candidates_considered=self.n_faults,
                patterns_resimulated=0,
            )
            for log, k in enumerate(top_ks)
        ]

    def _top(
        self,
        neg_score: np.ndarray,
        n_missed: np.ndarray,
        n_mispredicted: np.ndarray,
        top_k: int,
    ) -> np.ndarray:
        """Columns of one log's ``top_k`` best faults, best first.

        Only the faults scoring at or above the ``top_k``-th best score
        can rank that high, and every fault tied at it is kept, so
        sorting that pool orders the top ``top_k`` exactly as sorting
        every fault would."""
        if 0 < top_k < len(neg_score):
            kth = np.partition(neg_score, top_k - 1)[top_k - 1]
            pool = np.flatnonzero(neg_score <= kth)
        else:
            pool = np.arange(len(neg_score))
        # lexsort: last key is primary — (-score, n_missed,
        # n_mispredicted, fault order), exactly Candidate.sort_key.
        order = np.lexsort(
            (
                self._fault_rank[pool],
                n_mispredicted[pool],
                n_missed[pool],
                neg_score[pool],
            )
        )
        return pool[order][:top_k]
