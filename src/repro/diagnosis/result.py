"""Diagnosis outcome types: ranked candidates and the result document.

Every diagnosis mode (dictionary lookup, effect-cause tracing, MISR
signature bisection) reduces to the same deliverable: an ordered list of
:class:`Candidate` stuck-at faults, each scored against the observed
fail behaviour with the classic per-pattern tau-style counts:

* ``n_match``       — failing patterns the candidate *explains* (device
  failed, candidate predicts a fail);
* ``n_mispredicted`` — passing patterns the candidate wrongly predicts
  to fail (evidence *against* the candidate);
* ``n_missed``      — failing patterns the candidate cannot explain.

A perfect single-fault explanation has ``n_mispredicted == n_missed ==
0`` and ``n_match`` equal to the observed failing-pattern count.
:class:`DiagnosisResult` is the ``PipelineResult``-style document the
flow layer serialises (kind ``diagnosis_result``, through
:func:`repro.flow.serialize.encode`) and the CLI renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.faults.model import Fault


@dataclass(frozen=True)
class Candidate:
    """One ranked suspect: a stuck-at fault plus its match counts.

    ``n_response_match`` is the optional per-output refinement: on how
    many *failing* patterns does the candidate predict the observed
    response bit-for-bit (not just "some output wrong")?  It is filled
    in for top tie groups only and breaks pattern-level ties.
    """

    fault: Fault
    n_match: int
    n_mispredicted: int
    n_missed: int
    n_response_match: int | None = None

    @property
    def score(self) -> int:
        """Tau-style score: explained fails minus both error terms.

        The true injected fault (fully observed) scores ``n_failing``;
        every error term costs one unit of confidence."""
        return self.n_match - self.n_mispredicted - self.n_missed

    @property
    def is_perfect(self) -> bool:
        """True when the candidate explains the fail log exactly."""
        return self.n_mispredicted == 0 and self.n_missed == 0

    def sort_key(self) -> tuple:
        """Rank order: score desc, then fewer misses/mispredictions,
        then more exact response matches, then the fault's total order
        for deterministic ties."""
        return (
            -self.score,
            self.n_missed,
            self.n_mispredicted,
            -(self.n_response_match or 0),
            self.fault.sort_key(),
        )

    def __str__(self) -> str:
        text = (
            f"{self.fault} score={self.score} "
            f"(match={self.n_match}, mispredict={self.n_mispredicted}, "
            f"miss={self.n_missed}"
        )
        if self.n_response_match is not None:
            text += f", responses={self.n_response_match}"
        return text + ")"


def rank_candidates(candidates: list[Candidate]) -> list[Candidate]:
    """Sort candidates into final rank order (best first)."""
    return sorted(candidates, key=Candidate.sort_key)


def tau_counts(
    predicted: np.ndarray, fail_flags: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-column tau counts of a ``(n_patterns, n_faults)`` predicted
    fail matrix against observed fail flags: ``(n_match,
    n_mispredicted, n_missed)`` arrays.  The single definition every
    diagnosis mode scores with."""
    observed = fail_flags[:, None]
    return (
        (predicted & observed).sum(axis=0),
        (predicted & ~observed).sum(axis=0),
        (~predicted & observed).sum(axis=0),
    )


def candidates_from_predictions(
    faults: Sequence[Fault], predicted: np.ndarray, fail_flags: np.ndarray
) -> list[Candidate]:
    """One unranked :class:`Candidate` per fault column of
    ``predicted``, scored with :func:`tau_counts`."""
    n_match, n_mispredicted, n_missed = tau_counts(predicted, fail_flags)
    return [
        Candidate(
            fault,
            int(n_match[column]),
            int(n_mispredicted[column]),
            int(n_missed[column]),
        )
        for column, fault in enumerate(faults)
    ]


@dataclass
class DiagnosisResult:
    """Everything one diagnosis run produced.

    ``candidates`` is ranked best-first and truncated to the caller's
    ``top_k``; ``n_candidates_considered`` records the pre-truncation
    pool size so reports can show how hard the ranking worked.

    Signature-mode runs also carry the localisation evidence:
    ``window`` (the half-open failing-pattern window the bisection
    converged on), ``oracle_queries`` (tester re-runs consumed) and
    ``patterns_resimulated`` — the number of patterns whose full
    per-pattern responses the *diagnosis engine* re-derived, the
    quantity the ISSUE's <= 15% budget constrains.
    """

    circuit_name: str
    mode: str  # "effect_cause" | "dictionary" | "signature"
    n_patterns: int
    n_failing: int
    candidates: list[Candidate]
    n_candidates_considered: int
    window: tuple[int, int] | None = None
    oracle_queries: int = 0
    patterns_resimulated: int = 0
    timings: dict[str, float] = field(default_factory=dict)

    def rank_of(self, fault: Fault) -> int | None:
        """1-based rank of ``fault`` among the candidates (None if absent)."""
        for position, candidate in enumerate(self.candidates, start=1):
            if candidate.fault == fault:
                return position
        return None

    @property
    def top(self) -> Candidate | None:
        """The best-ranked candidate, if any."""
        return self.candidates[0] if self.candidates else None

    def summary(self) -> str:
        """One-line digest for reports and logs."""
        head = (
            f"{self.circuit_name}/{self.mode}: {self.n_failing}/"
            f"{self.n_patterns} failing patterns, "
            f"{len(self.candidates)}/{self.n_candidates_considered} candidates"
        )
        if self.window is not None:
            head += (
                f", window [{self.window[0]}, {self.window[1]}) "
                f"({self.oracle_queries} oracle queries, "
                f"{self.patterns_resimulated} patterns re-simulated)"
            )
        if self.top is not None:
            head += f"; top: {self.top}"
        return head
