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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.circuit.netlist import Circuit
from repro.diagnosis.result import (
    Candidate,
    DiagnosisResult,
    candidates_from_predictions,
    rank_candidates,
)
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
    _fault_rank: np.ndarray | None = field(default=None, init=False)

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

    @classmethod
    def build_streaming(
        cls,
        circuit: Circuit,
        patterns: Sequence[BitVector],
        faults: Sequence[Fault] | None = None,
        simulator: BatchFaultSimulator | None = None,
    ) -> "FaultDictionary":
        """Row-streamed construction over
        :meth:`~repro.sim.batch.BatchFaultSimulator.detection_matrix_rows`
        (one singleton pattern set per row).

        Bit-identical to :meth:`build`; it trades the 64-pattern word
        parallelism for the row scan's per-row verdicts, and doubles as
        the differential check of the two engines' agreement.
        """
        faults = list(faults) if faults is not None else collapse_faults(circuit)
        simulator = simulator or BatchFaultSimulator(circuit)
        rows = simulator.detection_matrix_rows(
            ([pattern] for pattern in patterns), faults
        )
        matrix = np.array(list(rows), dtype=bool).reshape(len(patterns), len(faults))
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
        fail_flags = np.asarray(fail_flags, dtype=bool)
        if fail_flags.shape != (self.n_patterns,):
            raise ValueError(
                f"fail flags shape {fail_flags.shape} != ({self.n_patterns},)"
            )
        candidates = candidates_from_predictions(
            self.faults, self.matrix, fail_flags
        )
        return rank_candidates(candidates)[:top_k]

    def diagnose(
        self, fail_flags: np.ndarray, top_k: int = 10
    ) -> DiagnosisResult:
        """:meth:`lookup` wrapped as a :class:`DiagnosisResult` (zero
        patterns re-simulated — that is the point of a dictionary)."""
        candidates = self.lookup(fail_flags, top_k=top_k)
        return DiagnosisResult(
            circuit_name=self.circuit_name,
            mode="dictionary",
            n_patterns=self.n_patterns,
            n_failing=int(np.asarray(fail_flags, dtype=bool).sum()),
            candidates=candidates,
            n_candidates_considered=self.n_faults,
            patterns_resimulated=0,
        )

    def _fault_order_rank(self) -> np.ndarray:
        """Per-column rank of each fault in its deterministic total
        order (:meth:`~repro.faults.model.Fault.sort_key`) — the final
        tie-break of :meth:`~repro.diagnosis.result.Candidate.sort_key`,
        precomputed once so the batched lookup can lexsort with it."""
        if self._fault_rank is None:
            order = sorted(
                range(len(self.faults)),
                key=lambda column: self.faults[column].sort_key(),
            )
            rank = np.empty(len(order), dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(len(order))
            self._fault_rank = rank
        return self._fault_rank

    def diagnose_many(
        self,
        fail_flags: np.ndarray,
        top_k: "int | Sequence[int]" = 10,
    ) -> list[DiagnosisResult]:
        """Diagnose a whole batch of fail logs in one lookup pass.

        ``fail_flags`` is ``(n_patterns, n_logs)`` (a 1-D array is one
        log).  The tau counts of every (fault, log) pair come from three
        matrix products, and each log's ranking is a vectorised lexsort
        over exactly the keys :meth:`~repro.diagnosis.result.Candidate.
        sort_key` uses — so every returned :class:`DiagnosisResult` is
        **identical** to a serial :meth:`diagnose` call for that log's
        flags.  This is the fault-axis batching trick applied across
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
        predicted = self.matrix.astype(np.int64)  # (P, F)
        observed = flags.astype(np.int64)  # (P, B)
        n_match = predicted.T @ observed  # (F, B)
        n_failing = observed.sum(axis=0)  # (B,)
        predicted_fails = predicted.sum(axis=0)  # (F,)
        n_mispredicted = predicted_fails[:, None] - n_match
        n_missed = n_failing[None, :] - n_match
        score = n_match - n_mispredicted - n_missed
        fault_rank = self._fault_order_rank()
        results: list[DiagnosisResult] = []
        for log in range(n_logs):
            # lexsort: last key is primary — (-score, n_missed,
            # n_mispredicted, fault order), exactly Candidate.sort_key
            # (n_response_match is None throughout dictionary mode).
            order = np.lexsort(
                (
                    fault_rank,
                    n_mispredicted[:, log],
                    n_missed[:, log],
                    -score[:, log],
                )
            )
            candidates = [
                Candidate(
                    self.faults[column],
                    int(n_match[column, log]),
                    int(n_mispredicted[column, log]),
                    int(n_missed[column, log]),
                )
                for column in order[: top_ks[log]]
            ]
            results.append(
                DiagnosisResult(
                    circuit_name=self.circuit_name,
                    mode="dictionary",
                    n_patterns=self.n_patterns,
                    n_failing=int(n_failing[log]),
                    candidates=candidates,
                    n_candidates_considered=self.n_faults,
                    patterns_resimulated=0,
                )
            )
        return results
