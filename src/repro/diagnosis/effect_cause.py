"""Dictionary-free effect-cause diagnosis via critical-path tracing.

Given a fail log (per-pattern observed responses), the diagnosis works
backwards from the *effect*:

1. re-simulate the fault-free machine once (word-parallel) and flag the
   failing patterns;
2. for every failing pattern, **critical-path trace** from each failing
   primary output back through the good-machine values: at a gate whose
   output is critical, the critical fanins are the controlling-value
   inputs (all of them, conservatively, when several carry the
   controlling value — reconvergent fault effects can arrive through
   more than one) or all inputs when none is controlling (XOR-like
   sensitisation).  Every critical net contributes a candidate stuck-at
   fault at the complement of its good value, and every critical fanout
   branch a branch-fault candidate;
3. map candidates onto collapse-class representatives and **rank** them
   by simulating the candidate set with the batched fault simulator:
   per-pattern predicted fails vs observed fails give the tau-style
   (match, mispredicted, missed) counts of
   :class:`~repro.diagnosis.result.Candidate`;
4. optionally *widen*: when even the best traced candidate cannot
   explain the log perfectly (multiple faults, tracing blind spots),
   re-rank over the full collapsed universe — still one batched
   simulation pass.

The tracing is heuristic (step 2 can over-approximate), but the ranking
step is exact simulation, so a candidate's counts are always true.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.circuit.gates import controlling_value
from repro.circuit.netlist import Circuit
from repro.diagnosis.result import (
    Candidate,
    DiagnosisResult,
    candidates_from_predictions,
    rank_candidates,
    tau_counts,
)
from repro.faults.collapse import collapse_faults, equivalence_classes
from repro.faults.model import Fault, effective_reader_count
from repro.sim.batch import BatchFaultSimulator
from repro.utils.bitvec import (
    BitVector,
    PackedPatterns,
    ResponsesLike,
    as_packed,
    response_rows,
    unpack_words,
)

def observed_fail_flags(
    golden: ResponsesLike, observed: ResponsesLike
) -> np.ndarray:
    """Per-pattern fail flags: observed response differs from golden.
    Both sides compare as :func:`~repro.utils.bitvec.response_rows`
    arrays (bit vectors are encoded here, arrays pass through)."""
    if len(golden) != len(observed):
        raise ValueError(
            f"golden/observed length mismatch: {len(golden)} vs {len(observed)}"
        )
    golden, observed = response_rows(golden), response_rows(observed)
    if golden.shape[1] != observed.shape[1]:
        # Unequal widths: leading zero bytes keep each big-endian value.
        n_bytes = max(golden.shape[1], observed.shape[1])
        golden, observed = (
            np.pad(rows, ((0, 0), (n_bytes - rows.shape[1], 0)))
            for rows in (golden, observed)
        )
    return (golden != observed).any(axis=1)


def fault_representatives(circuit: Circuit) -> dict[Fault, Fault]:
    """Map every fault of the full universe to its collapse-class
    representative (the fault :func:`~repro.faults.collapse.
    collapse_faults` keeps)."""
    return {
        member: representative
        for representative, members in equivalence_classes(circuit).items()
        for member in members
    }


def trace_candidates(
    simulator: BatchFaultSimulator,
    values: np.ndarray,
    failing: Sequence[int],
    failing_outputs: dict[int, list[int]],
) -> set[Fault]:
    """Critical-path trace candidate faults from the failing outputs.

    ``values`` is the good-machine ``(n_nodes, n_words)`` value array;
    ``failing_outputs[p]`` lists the output *positions* observed wrong
    under failing pattern index ``p``.
    """
    compiled = simulator.compiled
    circuit = simulator.circuit
    readers: dict[str, int] = {}
    candidates: set[Fault] = set()
    for pattern_index in failing:
        word, bit = divmod(pattern_index, 64)

        def good_bit(node_id: int) -> int:
            return (int(values[node_id, word]) >> bit) & 1

        stack = [
            int(compiled.output_ids[position])
            for position in failing_outputs[pattern_index]
        ]
        visited: set[int] = set()
        while stack:
            node_id = stack.pop()
            if node_id in visited:
                continue
            visited.add(node_id)
            name = compiled.order[node_id]
            value = good_bit(node_id)
            candidates.add(Fault.stem(name, 1 - value))
            gtype = compiled.gate_types[node_id]
            if gtype.is_source:
                continue
            fanins = compiled.gate_fanins[node_id]
            controlling = controlling_value(gtype)
            if controlling is None:
                # XOR / XNOR / NOT / BUF: flipping any single input
                # flips the output, so every fanin is critical.
                critical_pins = range(len(fanins))
            else:
                holders = [
                    pin
                    for pin, fanin_id in enumerate(fanins)
                    if good_bit(fanin_id) == controlling
                ]
                # No controlling input: output flips if any one input
                # flips.  Otherwise only the controlling inputs can be
                # on a propagation path (all of them, conservatively —
                # reconvergent effects may flip several at once).
                critical_pins = holders if holders else range(len(fanins))
            for pin in critical_pins:
                fanin_id = fanins[pin]
                net = compiled.order[fanin_id]
                n_readers = readers.get(net)
                if n_readers is None:
                    n_readers = effective_reader_count(circuit, net)
                    readers[net] = n_readers
                if n_readers > 1:
                    candidates.add(
                        Fault.branch(net, name, pin, 1 - good_bit(fanin_id))
                    )
                stack.append(fanin_id)
    return candidates


def score_candidates(
    simulator: BatchFaultSimulator,
    patterns: Sequence[BitVector] | PackedPatterns,
    faults: Sequence[Fault],
    fail_flags: np.ndarray,
) -> list[Candidate]:
    """Exact per-pattern scoring of ``faults`` against the fail flags
    (one batched detection-matrix pass)."""
    if not faults:
        return []
    predicted = simulator.detection_matrix(patterns, list(faults))
    return candidates_from_predictions(faults, predicted, fail_flags)


#: Refinement bound: at most this many pattern-level-tied candidates
#: are re-simulated per-fault for the response tie-break.  Keeps
#: degenerate logs (huge tie groups) off an O(n_faults) serial cliff.
MAX_REFINED_TIES = 64


def refine_tie_group(
    simulator: BatchFaultSimulator,
    patterns: Sequence[BitVector] | PackedPatterns,
    responses: Sequence[BitVector],
    fail_flags: np.ndarray,
    scored: list[Candidate],
) -> list[Candidate]:
    """Break pattern-level ties at the top of the ranking with exact
    response matching.

    Candidates sharing the leader's (match, mispredicted, missed)
    counts (the first :data:`MAX_REFINED_TIES` of them) are
    re-simulated on the failing patterns only; the number of patterns
    whose full output vector matches the observation bit-for-bit
    becomes the tie-breaker.  The true single fault always scores a
    perfect response match; impostors that merely fail the same
    *patterns* usually fail different *outputs*.  A leader that
    explains nothing (``n_match == 0`` — unexplainable logs tie the
    whole universe) skips refinement: response matching cannot separate
    candidates that predict no failure.
    """
    if len(scored) < 2 or scored[0].n_match == 0:
        return scored
    from repro.diagnosis.inject import faulty_responses

    leader = scored[0]
    key = (leader.n_match, leader.n_mispredicted, leader.n_missed)
    n_tied = 0
    for candidate in scored:
        if (candidate.n_match, candidate.n_mispredicted, candidate.n_missed) != key:
            break
        n_tied += 1
    if n_tied < 2:
        return scored
    n_tied = min(n_tied, MAX_REFINED_TIES)
    if isinstance(patterns, PackedPatterns):
        patterns = patterns.unpack()
    failing_patterns = [p for p, f in zip(patterns, fail_flags) if f]
    failing_responses = [r for r, f in zip(responses, fail_flags) if f]
    refined = []
    for candidate in scored[:n_tied]:
        predicted = faulty_responses(
            simulator.compiled, failing_patterns, (candidate.fault,)
        )
        matches = sum(
            1
            for prediction, observation in zip(predicted, failing_responses)
            if prediction == observation
        )
        refined.append(replace(candidate, n_response_match=matches))
    return rank_candidates(refined) + scored[n_tied:]


def _simulate_log(
    circuit: Circuit,
    simulator: BatchFaultSimulator,
    patterns: Sequence[BitVector] | PackedPatterns,
    responses: Sequence[BitVector],
    mode: str,
) -> tuple:
    """The setup both engines share: check the log, start an empty
    ``mode`` result, and simulate the good machine once to flag the
    failing patterns (timed as ``simulate``).  Returns ``(result,
    packed, good values, golden responses, fail flags)``, the last four
    None when there are no patterns."""
    if len(patterns) != len(responses):
        raise ValueError(
            f"{len(patterns)} patterns but {len(responses)} responses"
        )
    compiled = simulator.compiled
    start = time.perf_counter()
    result = DiagnosisResult(
        circuit_name=circuit.name,
        mode=mode,
        n_patterns=len(patterns),
        n_failing=0,
        candidates=[],
        n_candidates_considered=0,
        patterns_resimulated=len(patterns),
    )
    if not len(patterns):
        return result, None, None, None, None
    packed = as_packed(patterns, compiled.n_inputs)
    values = compiled.simulate(packed.words)
    golden = unpack_words(values[compiled.output_ids, :], packed.n_patterns)
    fail_flags = observed_fail_flags(golden, responses)
    result.n_failing = int(fail_flags.sum())
    result.timings["simulate"] = time.perf_counter() - start
    return result, packed, values, golden, fail_flags


def diagnose_effect_cause(
    circuit: Circuit,
    patterns: Sequence[BitVector] | PackedPatterns,
    responses: Sequence[BitVector],
    *,
    faults: Sequence[Fault] | None = None,
    simulator: BatchFaultSimulator | None = None,
    top_k: int = 10,
    widen: bool = True,
    mode: str = "effect_cause",
) -> DiagnosisResult:
    """Diagnose a fail log without a precomputed dictionary.

    ``faults`` is the candidate universe (default: the collapsed fault
    list); traced candidates outside it are dropped.  With ``widen``,
    an imperfect best explanation triggers one re-ranking pass over the
    whole universe, so a detected single fault is never lost to a
    tracing blind spot.
    """
    simulator = simulator or BatchFaultSimulator(circuit)
    result, packed, values, golden, fail_flags = _simulate_log(
        circuit, simulator, patterns, responses, mode
    )
    if result.n_failing == 0:
        return result
    compiled = simulator.compiled

    start = time.perf_counter()
    failing = [int(i) for i in np.flatnonzero(fail_flags)]
    failing_outputs = {
        p: [
            position
            for position in range(compiled.n_outputs)
            if golden[p].bit(position) != responses[p].bit(position)
        ]
        for p in failing
    }
    traced = trace_candidates(simulator, values, failing, failing_outputs)
    representatives = fault_representatives(circuit)
    if faults is None:
        universe = sorted(set(representatives.values()))
    else:
        universe = list(faults)
    universe_set = set(universe)
    candidates = sorted(
        {
            representative
            for fault in traced
            if (representative := representatives.get(fault)) in universe_set
        }
    )
    result.timings["trace"] = time.perf_counter() - start

    start = time.perf_counter()
    scored = rank_candidates(
        score_candidates(simulator, packed, candidates, fail_flags)
    )
    if widen and (not scored or not scored[0].is_perfect):
        scored = rank_candidates(
            score_candidates(simulator, packed, universe, fail_flags)
        )
    scored = refine_tie_group(simulator, patterns, responses, fail_flags, scored)
    result.timings["rank"] = time.perf_counter() - start
    result.n_candidates_considered = len(scored)
    result.candidates = scored[:top_k]
    return result


def diagnose_multiplet(
    circuit: Circuit,
    patterns: Sequence[BitVector] | PackedPatterns,
    responses: Sequence[BitVector],
    *,
    faults: Sequence[Fault] | None = None,
    simulator: BatchFaultSimulator | None = None,
    max_faults: int = 4,
    mispredict_tolerance: int = 0,
) -> DiagnosisResult:
    """Greedy multiple-fault diagnosis (a SLAT-style multiplet).

    Single-fault tau ranking collapses on multi-fault logs: a wrong
    candidate whose fail set happens to straddle the union of the true
    faults' fail sets out-scores each true fault individually.  The
    multiplet engine instead builds an *explanation set* iteratively:

    1. keep only **consistent** candidates — at most
       ``mispredict_tolerance`` predicted fails on patterns the device
       passed (a true fault only violates this through fault-interaction
       masking, which the tolerance absorbs);
    2. repeatedly pick the consistent candidate explaining the most
       *still-unexplained* failing patterns, remove what it explains,
       and recurse until the log is explained or ``max_faults`` is hit.

    The returned candidates are the chosen multiplet in selection
    order (counts measured against the full log), not a ranking.
    """
    simulator = simulator or BatchFaultSimulator(circuit)
    result, packed, _, _, fail_flags = _simulate_log(
        circuit, simulator, patterns, responses, "multiplet"
    )
    if result.n_failing == 0:
        return result

    start = time.perf_counter()
    universe = (
        list(faults) if faults is not None else collapse_faults(circuit)
    )
    predicted = simulator.detection_matrix(packed, universe)
    n_match, n_mispredicted, n_missed = tau_counts(predicted, fail_flags)
    consistent = np.flatnonzero(n_mispredicted <= mispredict_tolerance)
    result.n_candidates_considered = int(consistent.size)
    residual = fail_flags.copy()
    chosen: list[Candidate] = []
    while residual.any() and len(chosen) < max_faults and consistent.size:
        gains = (predicted[:, consistent] & residual[:, None]).sum(axis=0)
        best_gain = int(gains.max(initial=0))
        if best_gain == 0:
            break
        tied = [int(consistent[i]) for i in np.flatnonzero(gains == best_gain)]
        column = min(tied, key=lambda c: universe[c].sort_key())
        chosen.append(
            Candidate(
                universe[column],
                int(n_match[column]),
                int(n_mispredicted[column]),
                int(n_missed[column]),
            )
        )
        residual &= ~predicted[:, column]
        consistent = consistent[consistent != column]
    result.timings["cover"] = time.perf_counter() - start
    result.candidates = chosen
    return result
