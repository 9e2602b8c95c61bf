"""Parallel-pattern stuck-at fault simulation.

Two engines live here and in :mod:`repro.sim.batch`:

* :class:`FaultSimulator` — the production engine, the historical name
  of :class:`repro.sim.batch.BatchFaultSimulator`.  It runs one fault
  machine per fanout-free-region root, not per fault, and reads each
  fault's detection off a good-machine trace of its region.
  The root machines are simulated in batches: the faulty values of
  every node a batch touches are stacked along a batch axis into
  ``(batch, n_words)`` ``uint64`` arrays (64 patterns per word, pattern
  ``64*w + b`` in bit ``b`` of word ``w``), and the whole batch
  propagates through one shared, levelized cone-union schedule.  The
  any-pattern queries
  (``detected`` / ``first_detection_index`` / ``fault_coverage``) are
  one-row views of the Detection Matrix row scan, which applies **fault
  dropping**: the words of the pattern set are scanned in order and a
  fault leaves the active set once a word detects it, so it never pays
  for the remaining patterns.  The packed carrier picks the logic:
  :class:`~repro.utils.bitvec.PackedPlanes` run 0/1/X with pessimistic
  detection, anything else runs 0/1.
* :class:`SerialFaultSimulator` — the legacy per-fault engine: for each
  fault it forces the stuck value at the fault site and re-evaluates
  only that fault's output cone, one single-gate call of the one gate
  kernel (:func:`~repro.circuit.gates.eval_gates`) per cone node.  It
  is kept as the obviously-correct baseline for the differential test
  suite and the throughput benchmarks.

A fault is detected by pattern ``p`` when any primary output differs
from the fault-free value under ``p``.  Both engines fill the paper's
Detection Matrix: ``d[i][j] = 1`` iff triplet ``i``'s test set detects
fault ``j`` (Section 3), and implement the fault grading inside ATPG,
GATSBY and the trade-off explorer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuit.gates import eval_gates, gate_form
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.sim.batch import BatchFaultSimulator
from repro.sim.logic import CompiledCircuit, tail_mask
from repro.utils.bitvec import BitVector, pack_patterns

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


#: The default fault simulator: the historical name of the batched
#: engine, kept for every call site that imports it.
FaultSimulator = BatchFaultSimulator


class SerialFaultSimulator:
    """The legacy per-fault PPSFP engine (reference baseline).

    The compiled circuit and per-fault cone structures are cached, so
    repeated calls only pay for simulation.  Each fault walks its own
    output cone with one Python-level gate evaluation per cone node —
    simple and obviously correct, which is exactly what the differential
    suite and the throughput benchmarks need it for.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.compiled = CompiledCircuit(circuit)
        self.circuit = circuit
        self._cone_cache: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def detection_matrix(
        self, patterns: Sequence[BitVector], faults: Sequence[Fault]
    ) -> np.ndarray:
        """Boolean matrix ``(n_patterns, n_faults)``: entry ``[p, f]`` is
        True iff pattern ``p`` detects fault ``f``."""
        if not patterns:
            return np.zeros((0, len(faults)), dtype=bool)
        good = self._good_values(patterns)
        result = np.zeros((len(patterns), len(faults)), dtype=bool)
        for fault_index, fault in enumerate(faults):
            detect_words = self._detect_words(good, fault)
            result[:, fault_index] = _words_to_bools(detect_words, len(patterns))
        return result

    def detected(
        self, patterns: Sequence[BitVector], faults: Sequence[Fault]
    ) -> list[bool]:
        """Per-fault flag: does *any* pattern detect the fault?"""
        if not patterns:
            return [False] * len(faults)
        good = self._good_values(patterns)
        mask = tail_mask(len(patterns))
        flags: list[bool] = []
        for fault in faults:
            detect_words = self._detect_words(good, fault)
            flags.append(bool(np.any(detect_words & mask)))
        return flags

    def first_detection_index(
        self, patterns: Sequence[BitVector], faults: Sequence[Fault]
    ) -> list[int | None]:
        """For each fault, the index of the first detecting pattern
        (``None`` if undetected).  Used for test-set trimming."""
        if not patterns:
            return [None] * len(faults)
        good = self._good_values(patterns)
        mask = tail_mask(len(patterns))
        indices: list[int | None] = []
        for fault in faults:
            detect_words = self._detect_words(good, fault) & mask
            position: int | None = None
            for word_index in range(detect_words.shape[0]):
                word = int(detect_words[word_index])
                if word:
                    position = word_index * 64 + (word & -word).bit_length() - 1
                    break
            indices.append(position)
        return indices

    def fault_coverage(
        self, patterns: Sequence[BitVector], faults: Sequence[Fault]
    ) -> float:
        """Fraction of ``faults`` detected by ``patterns`` (0..1)."""
        if not faults:
            return 1.0
        flags = self.detected(patterns, faults)
        return sum(flags) / len(faults)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _good_values(self, patterns: Sequence[BitVector]) -> np.ndarray:
        input_words = pack_patterns(list(patterns), self.compiled.n_inputs)
        return self.compiled.simulate(input_words)

    def _cone(self, node_id: int) -> list[int]:
        cone = self._cone_cache.get(node_id)
        if cone is None:
            cone = self.compiled.output_cone_ids(node_id)
            self._cone_cache[node_id] = cone
        return cone

    def _detect_words(self, good: np.ndarray, fault: Fault) -> np.ndarray:
        """Word array: bit set where some PO differs from fault-free."""
        compiled = self.compiled
        n_words = good.shape[1]
        stuck_words = (
            np.full(n_words, _ALL_ONES, dtype=np.uint64)
            if fault.value
            else np.zeros(n_words, dtype=np.uint64)
        )
        faulty: dict[int, np.ndarray] = {}
        net_id, gate_id, stuck_pin = compiled.fault_site(fault)
        if gate_id is not None:
            # Only the reading gate sees the stuck value; recompute it and
            # its cone.
            fanins = compiled.gate_fanins[gate_id]
            fanin_words = [
                stuck_words if pin == stuck_pin else good[fanin_id]
                for pin, fanin_id in enumerate(fanins)
            ]
            faulty[gate_id] = eval_gates(
                *gate_form(compiled.gate_types[gate_id]), np.array(fanin_words)
            )
            cone = self._cone(gate_id)
        else:
            faulty[net_id] = stuck_words
            cone = self._cone(net_id)
        for cone_id in cone:
            if cone_id in faulty:
                continue  # branch-injected gate already evaluated
            gtype = compiled.gate_types[cone_id]
            fanin_words = [
                faulty.get(fanin_id, good[fanin_id])
                for fanin_id in compiled.gate_fanins[cone_id]
            ]
            new_words = eval_gates(*gate_form(gtype), np.array(fanin_words))
            faulty[cone_id] = new_words
        detect = np.zeros(n_words, dtype=np.uint64)
        for output_id in compiled.output_ids:
            output_faulty = faulty.get(int(output_id))
            if output_faulty is not None:
                detect |= output_faulty ^ good[output_id]
        return detect


def detected_faults(
    circuit: Circuit, patterns: Sequence[BitVector], faults: Sequence[Fault]
) -> set[Fault]:
    """One-shot convenience: the subset of ``faults`` detected by
    ``patterns`` on ``circuit``."""
    simulator = FaultSimulator(circuit)
    flags = simulator.detected(patterns, faults)
    return {fault for fault, flag in zip(faults, flags) if flag}


def _words_to_bools(words: np.ndarray, n_patterns: int) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits[:n_patterns].astype(bool)
