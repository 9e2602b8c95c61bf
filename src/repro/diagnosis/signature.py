"""BIST-mode diagnosis from a single MISR signature mismatch.

In signature-only BIST the tester learns exactly one bit: the final
MISR signature differs from the golden value.  Per-pattern fail data —
what every other diagnosis mode consumes — does not exist, and
capturing it for the whole session (a scan re-run of every pattern) is
the expensive tester operation diagnosis flows try to avoid.

:class:`SignatureBisector` closes the gap with O(log P) *prefix
signature* probes: the tester re-runs the session up to a chosen
pattern count and unloads the intermediate signature, which the engine
compares against the precomputed golden prefix signature at the same
point.  A binary search over the first divergent prefix localises the
earliest failing pattern to a window of ``min_window`` patterns; only
that window is then re-simulated at full per-pattern resolution and
handed to effect-cause candidate ranking.

Cost accounting (what the tests assert):

* ``oracle_queries``        — prefix re-runs, <= ceil(log2(P/min_window)) + 1;
* ``patterns_resimulated``  — per-pattern responses the engine re-derives
  and compares, == the window size, <= 15% of P for the default shapes.

The one-off golden pass in the constructor (one word-parallel
simulation of the pattern sequence) is test-program data every
diagnosis mode needs and is excluded from the budget, exactly as the
golden signature itself is computed at test-generation time.

The search assumes signatures stay divergent once they diverge; MISR
aliasing (probability ~2^-width per prefix) can in principle re-merge a
prefix and skew the window, in which case the window simply contains no
failing pattern and the result reports ``n_failing == 0`` instead of a
wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.circuit.netlist import Circuit
from repro.diagnosis.effect_cause import diagnose_effect_cause
from repro.diagnosis.result import DiagnosisResult
from repro.faults.model import Fault
from repro.sim.batch import BatchFaultSimulator
from repro.sim.misr import Misr
from repro.utils.bitvec import BitVector, PackedPatterns, as_packed, unpack_words

#: Default localisation window, in patterns.
DEFAULT_MIN_WINDOW = 16


class SignatureOracle(Protocol):
    """What the tester must answer in signature mode (see
    :class:`~repro.diagnosis.inject.SimulatedTester` for the simulated
    implementation used by the ground-truth scenarios)."""

    @property
    def n_patterns(self) -> int:
        """Session length in patterns."""

    def prefix_signature(self, n_patterns: int) -> BitVector:
        """MISR signature after re-running the first ``n_patterns``."""

    def window_responses(self, start: int, stop: int) -> list[BitVector]:
        """Per-pattern responses for ``[start, stop)`` (scan capture)."""


@dataclass(frozen=True)
class BisectionOutcome:
    """Where the bisection converged: the earliest failing pattern lies
    in ``[start, stop)``; ``queries`` prefix signatures were consumed."""

    start: int
    stop: int
    queries: int


class SignatureBisector:
    """Binary-search localisation + windowed effect-cause ranking."""

    def __init__(
        self,
        circuit: Circuit,
        patterns: Sequence[BitVector] | PackedPatterns,
        misr: Misr | None = None,
        seed: BitVector | None = None,
        min_window: int = DEFAULT_MIN_WINDOW,
        simulator: BatchFaultSimulator | None = None,
    ) -> None:
        if min_window < 1:
            raise ValueError(f"min_window must be >= 1, got {min_window}")
        self.circuit = circuit
        self.misr = misr or Misr(circuit.n_outputs)
        if self.misr.width != circuit.n_outputs:
            raise ValueError(
                f"MISR width {self.misr.width} != circuit output count "
                f"{circuit.n_outputs}"
            )
        self.min_window = min_window
        self.simulator = simulator or BatchFaultSimulator(circuit)
        compiled = self.simulator.compiled
        #: The session's pattern sequence, packed exactly once; window
        #: re-simulation slices this instead of re-packing per probe.
        self.packed = as_packed(patterns, compiled.n_inputs)
        self._patterns = (
            list(patterns) if not isinstance(patterns, PackedPatterns) else None
        )
        if self.packed.n_patterns:
            values = compiled.simulate(self.packed.words)
            golden = unpack_words(
                values[compiled.output_ids, :], self.packed.n_patterns
            )
        else:
            golden = []
        state = seed if seed is not None else BitVector.zeros(self.misr.width)
        states = [state]
        for response in golden:
            state = self.misr.step(state, response)
            states.append(state)
        #: Golden MISR state after each prefix length 0..P.
        self.golden_prefix_states = states

    @property
    def patterns(self) -> list[BitVector]:
        """The pattern sequence as :class:`BitVector` objects (unpacked
        lazily — the diagnosis path itself only touches the packed
        form)."""
        if self._patterns is None:
            self._patterns = self.packed.unpack()
        return self._patterns

    @property
    def n_patterns(self) -> int:
        """Session length in patterns."""
        return self.packed.n_patterns

    @property
    def golden_signature(self) -> BitVector:
        """The fault-free end-of-session signature."""
        return self.golden_prefix_states[-1]

    def localize(self, oracle: SignatureOracle) -> BisectionOutcome | None:
        """Bisect to the window holding the earliest failing pattern.

        Returns ``None`` when the final signatures agree (nothing to
        diagnose — or the fault aliased away entirely).
        """
        total = self.n_patterns
        if oracle.n_patterns != total:
            raise ValueError(
                f"oracle ran {oracle.n_patterns} patterns, engine has {total}"
            )
        queries = 1
        if oracle.prefix_signature(total) == self.golden_prefix_states[total]:
            return None
        # Invariant: prefix `low` matches golden, prefix `high` differs,
        # so the first divergence — hence the earliest failing pattern —
        # lies in [low, high).
        low, high = 0, total
        while high - low > self.min_window:
            mid = (low + high) // 2
            queries += 1
            if oracle.prefix_signature(mid) == self.golden_prefix_states[mid]:
                low = mid
            else:
                high = mid
        return BisectionOutcome(low, high, queries)

    def diagnose(
        self,
        oracle: SignatureOracle,
        *,
        faults: Sequence[Fault] | None = None,
        top_k: int = 10,
        widen: bool = True,
    ) -> DiagnosisResult:
        """Localise, capture the window, rank candidates on it."""
        start = time.perf_counter()
        outcome = self.localize(oracle)
        localize_seconds = time.perf_counter() - start
        if outcome is None:
            return DiagnosisResult(
                circuit_name=self.circuit.name,
                mode="signature",
                n_patterns=self.n_patterns,
                n_failing=0,
                candidates=[],
                n_candidates_considered=0,
                oracle_queries=1,
                patterns_resimulated=0,
                timings={"localize": localize_seconds},
            )
        window_patterns = self.packed.slice(outcome.start, outcome.stop)
        window_responses = oracle.window_responses(outcome.start, outcome.stop)
        inner = diagnose_effect_cause(
            self.circuit,
            window_patterns,
            window_responses,
            faults=faults,
            simulator=self.simulator,
            top_k=top_k,
            widen=widen,
            mode="signature",
        )
        return DiagnosisResult(
            circuit_name=self.circuit.name,
            mode="signature",
            n_patterns=self.n_patterns,
            n_failing=inner.n_failing,
            candidates=inner.candidates,
            n_candidates_considered=inner.n_candidates_considered,
            window=(outcome.start, outcome.stop),
            oracle_queries=outcome.queries,
            patterns_resimulated=outcome.stop - outcome.start,
            timings={"localize": localize_seconds, **inner.timings},
        )
