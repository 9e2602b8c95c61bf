"""Fault-parallel PODEM over the compiled circuit plan.

:class:`BatchPodem` generates tests for a whole *batch* of target
faults at once: each fault owns one bit **lane**, and the five-valued
(0/1/X/D/D') forward implication that dominates scalar PODEM's runtime
is evaluated for every lane together as packed ``uint64`` bit-planes —
the ``m = 2`` (value + care) layout of the one gate kernel,
:func:`~repro.circuit.gates.eval_gates`.  A five-valued value is a
(good, faulty) pair of three-valued ones, so both machines live in one
double-width plane pair (good lanes in the low words, faulty lanes in
the high words), and one segmented sweep per round implies every lane
of every machine:

* the sweep walks the :class:`~repro.sim.logic.CompiledCircuit`
  levelized plan (``eval_levels``) one topological level at a time,
  evaluating each level's gates per *type* with the kernel's segmented
  shape (mixed arities share one ``reduceat``, so numpy-call count
  tracks levels, not gates);
* after each level the per-lane fault forcings are re-asserted (as the
  batched fault simulator's ``_BatchPlan`` re-asserts its forced rows)
  — a stem freezes its net's faulty lane bit, a branch recomputes the
  reading gate's faulty output with the stuck pin.

The *search* half of PODEM (objective selection, backtrace, D-frontier
and X-path bookkeeping, decision flipping) stays per-lane and is
**borrowed verbatim from the recursive oracle**: a scalar
:class:`~repro.atpg.podem.Podem` instance is pointed at one lane's
unpacked value columns and asked for that lane's next objective /
backtrace.  Because both halves are shared or bit-equivalent, a lane's
decision sequence — and therefore its DETECTED / UNTESTABLE / ABORTED
outcome, its test cube, and even its backtrack and decision counters —
is identical to what ``Podem.generate`` produces for the same fault.
The differential suite in ``tests/test_atpg_batch.py`` pins this.

Lanes resolve independently; :meth:`stream` reseats freed lanes from
the queue immediately, and :meth:`drop` lets the driving engine retire
queued *and mid-search* lanes as soon as some freshly generated pattern
covers their fault (fault dropping between PODEM targets).  Every
lane, straggler or not, runs to its verdict in the sweeps.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

import numpy as np

from repro.atpg.podem import (
    _X3,
    Podem,
    PodemResult,
    PodemStatus,
    TestCube,
    _eval3_branch,
)
from repro.circuit.gates import GateType, eval_gates
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.sim.batch import BatchFaultSimulator
from repro.sim.logic import CompiledCircuit
from repro.utils.kernels import kernel

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Default number of fault lanes implied together (four uint64 words).
#: 256 keeps occupancy high enough to amortize the per-sweep numpy call
#: overhead on every catalog circuit; benchmarks may push higher.
DEFAULT_LANES = 256


class _Lane:
    """Search state of one in-flight fault lane."""

    __slots__ = (
        "fault",
        "col",
        "word",
        "fword",
        "mask",
        "site_net_id",
        "site_gate_id",
        "site_pin",
        "stuck",
        "force_level",
        "decisions",
        "backtracks",
        "total_decisions",
    )

    def __init__(self, fault: Fault, col: int, n_words: int) -> None:
        self.fault = fault
        self.col = col
        self.word, bit = divmod(col, 64)
        self.fword = n_words + self.word  # faulty half of the planes
        self.mask = np.uint64(1 << bit)
        self.decisions: list[list] = []  # [pi_id, value, flipped]
        self.backtracks = 0
        self.total_decisions = 0


class BatchPodem:
    """PODEM bound to one combinational circuit, fault-parallel.

    ``backtrack_limit`` / ``heuristic`` mean exactly what they mean on
    the recursive :class:`~repro.atpg.podem.Podem` (the per-lane search
    *is* that implementation).  ``batch_size`` is the lane count per
    implication sweep; ``simulator`` optionally donates its already compiled
    circuit so the engine, the fault simulator and the batch PODEM
    share one levelized plan.
    """

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 250,
        heuristic: str = "level",
        batch_size: int = DEFAULT_LANES,
        simulator: BatchFaultSimulator | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.batch_size = batch_size
        #: The recursive implementation, reused for structure and for
        #: the per-lane search machinery (objective/backtrace/frontier).
        self._oracle = Podem(
            circuit, backtrack_limit=backtrack_limit, heuristic=heuristic
        )
        self._compiled = (
            simulator.compiled
            if simulator is not None
            else CompiledCircuit(circuit)
        )
        # Both sides order nodes by circuit.topo_order(), so dense ids
        # agree; the sweep and the search speak the same node language.
        assert self._compiled.n_nodes == len(self._oracle._order)
        self._n_words = (batch_size + 63) // 64
        self._n_lanes = self._n_words * 64
        n = self._compiled.n_nodes
        # One contiguous backing array carries value and care planes of
        # both machines — word columns [0, 2w) are the value plane and
        # [2w, 4w) the care plane, each split good-half / faulty-half.
        # The sweep gathers a group's fanin rows once to read all four,
        # and the round unpack is a single ``unpackbits``.
        self._P = np.zeros((n, 4 * self._n_words), dtype=np.uint64)
        self._V = self._P[:, : 2 * self._n_words]
        self._C = self._P[:, 2 * self._n_words :]
        # Per-lane PI assignment planes (value + care), the only sweep
        # input that changes between rounds.
        in_shape = (self._compiled.n_inputs, self._n_words)
        self._av = np.zeros(in_shape, dtype=np.uint64)
        self._ac = np.zeros(in_shape, dtype=np.uint64)
        self._input_row = {
            int(node_id): row
            for row, node_id in enumerate(self._compiled.input_ids)
        }
        self._plan = self._build_sweep_plan()
        self._lanes: list[_Lane | None] = [None] * batch_size
        self._forcings_by_level: dict[int, list[_Lane]] = {}
        self._queue: deque[Fault] = deque()
        self._dropped: set[Fault] = set()
        #: Sweep counter (perf forensics: decisions advance per sweep).
        self.sweeps = 0
        #: Engine-level effort counters, folded into a metrics registry
        #: by the driving :class:`repro.atpg.engine.AtpgEngine` once per
        #: run (this object is transient; see ``counters()``).
        self.lanes_seated = 0
        self.backtracks_total = 0
        self.decisions_total = 0

    #: Inverting types fold into their base type for the sweep; the
    #: inversion is applied per level as one vectorized fixup.
    _BASE_TYPE = {
        GateType.NAND: GateType.AND,
        GateType.NOR: GateType.OR,
        GateType.XNOR: GateType.XOR,
        GateType.NOT: GateType.BUF,
    }

    def _build_sweep_plan(
        self,
    ) -> list[
        tuple[
            int,
            list[tuple[GateType, np.ndarray, np.ndarray, np.ndarray]],
            np.ndarray | None,
        ]
    ]:
        """Regroup the compiled ``eval_levels`` per (level, base gate
        type): each entry carries the merged outputs, the concatenated
        fanin ids and the segment starts for the segmented
        :func:`~repro.circuit.gates.eval_gates`,
        plus the level's inverted-output rows (NAND/NOR/XNOR/NOT fold
        into AND/OR/XOR/BUF and get one shared inversion fixup)."""
        plan = []
        for level, groups in self._compiled.eval_levels:
            by_type: dict[GateType, tuple[list[int], list[int], list[int]]] = {}
            inverted: list[int] = []
            for gtype, out_ids, fanin_matrix in groups:
                base = self._BASE_TYPE.get(gtype, gtype)
                if base is not gtype:
                    inverted.extend(int(o) for o in out_ids)
                outs, flat, starts = by_type.setdefault(base, ([], [], []))
                for row in range(fanin_matrix.shape[0]):
                    starts.append(len(flat))
                    flat.extend(int(f) for f in fanin_matrix[row])
                    outs.append(int(out_ids[row]))
            ops = [
                (
                    gtype,
                    np.array(outs, dtype=np.int64),
                    np.array(flat, dtype=np.int64),
                    np.array(starts, dtype=np.int64),
                )
                for gtype, (outs, flat, starts) in by_type.items()
            ]
            inv = np.array(sorted(inverted), dtype=np.int64) if inverted else None
            plan.append((level, ops, inv))
        return plan

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def generate(self, fault: Fault) -> PodemResult:
        """Search for a test cube detecting ``fault`` (single lane);
        outcome and cube are identical to ``Podem.generate(fault)``."""
        for _, result in self.stream([fault]):
            return result
        raise AssertionError(f"lane for {fault} never resolved")

    def stream(
        self, faults: Iterable[Fault]
    ) -> Iterator[tuple[Fault, PodemResult]]:
        """Run the queue fault-parallel, yielding ``(fault, result)`` as
        lanes resolve.

        The driving engine may call :meth:`drop` between yields: dropped
        faults are skipped at seat time, mid-search lanes retire at the
        next round, and already-resolved-but-dropped results are never
        yielded (their fault is covered by an existing pattern, so the
        cube would only lengthen the test set).  Resolution order is
        deterministic: lanes are stepped and reported in column order
        every round.
        """
        for lane in self._lanes:
            # A previous stream abandoned early (e.g. ``generate``
            # returning mid-iteration) may leave lanes seated.
            if lane is not None:
                self._unseat(lane)
        self._queue = deque(faults)
        self._dropped = set()
        lanes = self._lanes
        while True:
            for lane in lanes:
                if lane is not None and lane.fault in self._dropped:
                    self._unseat(lane)
            while self._queue and any(lane is None for lane in lanes):
                fault = self._queue.popleft()
                if fault in self._dropped:
                    continue
                self._seat(lanes.index(None), fault)
            active = [lane for lane in lanes if lane is not None]
            if not active:
                return
            self._imply()
            detect, good3, faulty3, d_index = self._unpack_round()
            resolved: list[tuple[Fault, PodemResult]] = []
            for lane in active:
                result = self._step(lane, detect, good3, faulty3, d_index)
                if result is not None:
                    resolved.append((lane.fault, result))
                    self._unseat(lane)
            for fault, result in resolved:
                if fault in self._dropped:
                    continue
                yield fault, result

    def drop(self, faults: Iterable[Fault]) -> None:
        """Retire ``faults`` (queued or mid-search): some existing
        pattern already covers them, so no lane needs to finish."""
        self._dropped.update(faults)

    def active_faults(self) -> list[Fault]:
        """Faults currently seated in lanes (column order)."""
        return [
            lane.fault
            for lane in self._lanes
            if lane is not None and lane.fault not in self._dropped
        ]

    def queued_faults(self) -> list[Fault]:
        """Faults still waiting for a lane (queue order)."""
        return [f for f in self._queue if f not in self._dropped]

    # ------------------------------------------------------------------
    # lane management
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Cumulative search-effort counters for this engine instance:
        lanes seated, implication rounds (sweeps), and backtracks and
        decisions across all lanes."""
        return {
            "lanes_seated": self.lanes_seated,
            "rounds": self.sweeps,
            "backtracks": self.backtracks_total,
            "decisions": self.decisions_total,
        }

    def _seat(self, col: int, fault: Fault) -> None:
        self.lanes_seated += 1
        lane = _Lane(fault, col, self._n_words)
        (
            lane.site_net_id,
            lane.site_gate_id,
            lane.site_pin,
        ) = self._oracle._check_fault(fault)
        lane.stuck = fault.value
        force_node = (
            lane.site_gate_id
            if lane.site_gate_id is not None
            else lane.site_net_id
        )
        lane.force_level = int(self._compiled.node_levels[force_node])
        self._forcings_by_level.setdefault(lane.force_level, []).append(lane)
        self._lanes[col] = lane

    def _unseat(self, lane: _Lane) -> None:
        self._forcings_by_level[lane.force_level].remove(lane)
        self._lanes[lane.col] = None
        # Clear the lane's PI assignment bits so the next tenant starts
        # from all-X.
        unmask = ~lane.mask
        self._av[:, lane.word] &= unmask
        self._ac[:, lane.word] &= unmask

    def _assign(self, lane: _Lane, pi_id: int, value: int) -> None:
        """Set one lane's PI to 0/1/X in the assignment planes."""
        row = self._input_row[pi_id]
        word = lane.word
        if value == _X3:
            self._av[row, word] &= ~lane.mask
            self._ac[row, word] &= ~lane.mask
        else:
            self._ac[row, word] |= lane.mask
            if value:
                self._av[row, word] |= lane.mask
            else:
                self._av[row, word] &= ~lane.mask

    # ------------------------------------------------------------------
    # the packed implication sweep
    # ------------------------------------------------------------------

    # repro: allow[kernel-purity] O(depth x type-group) segmented sweep; each reduceat evaluates every lane at once
    @kernel
    def _imply(self) -> None:
        """One segmented five-valued sweep: good and faulty machines for
        all lanes at once, per-lane fault forcings re-asserted level by
        level."""
        self.sweeps += 1
        comp = self._compiled
        P, V, C = self._P, self._V, self._C
        w = self._n_words
        V[comp.input_ids, :w] = self._av
        V[comp.input_ids, w:] = self._av
        C[comp.input_ids, :w] = self._ac
        C[comp.input_ids, w:] = self._ac
        if comp.const0_ids.size:
            V[comp.const0_ids] = 0
            C[comp.const0_ids] = _ALL_ONES
        if comp.const1_ids.size:
            P[comp.const1_ids] = _ALL_ONES
        self._force_level(0)
        for level, ops, inverted in self._plan:
            for gtype, out_ids, flat, starts in ops:
                # One gather reads all four planes, one scatter writes them.
                P[out_ids] = eval_gates(gtype, P[flat], 2, starts=starts)
            if inverted is not None:
                V[inverted] = C[inverted] & ~V[inverted]
            self._force_level(level)

    def _force_level(self, level: int) -> None:
        """Re-assert the faulty-machine forcings of every lane whose
        site sits at ``level`` (after that level evaluated)."""
        lanes = self._forcings_by_level.get(level)
        if not lanes:
            return
        oracle = self._oracle
        for lane in lanes:
            if lane.site_gate_id is None:
                self._set3(lane.site_net_id, lane, lane.stuck)
            else:
                gate_id = lane.site_gate_id
                fanins = oracle._fanins[gate_id]
                values = {fid: self._get3(fid, lane) for fid in fanins}
                forced = _eval3_branch(
                    oracle._gtype[gate_id],
                    fanins,
                    values,
                    lane.site_pin,
                    lane.stuck,
                )
                self._set3(gate_id, lane, forced)

    def _set3(self, row: int, lane: _Lane, value: int) -> None:
        """Write one lane's faulty-machine value at ``row``."""
        word = lane.fword
        if value == _X3:
            self._V[row, word] &= ~lane.mask
            self._C[row, word] &= ~lane.mask
        else:
            self._C[row, word] |= lane.mask
            if value:
                self._V[row, word] |= lane.mask
            else:
                self._V[row, word] &= ~lane.mask

    def _get3(self, row: int, lane: _Lane) -> int:
        """Read one lane's faulty-machine value at ``row``."""
        word = lane.fword
        if not int(self._C[row, word]) & int(lane.mask):
            return _X3
        return 1 if int(self._V[row, word]) & int(lane.mask) else 0

    def _unpack_round(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Unpack the planes once per round into per-lane columns:

        * ``detect`` — per-lane bool, some PO known in both machines and
          different;
        * ``good3`` / ``faulty3`` — three-valued node matrices (0/1/2,
          one column per lane) in the oracle's encoding;
        * ``d_index`` — ``(rows, bounds)``: lane ``col``'s D-bearing
          nets are ``rows[bounds[col]:bounds[col + 1]]``.
        """
        n_bits = self._n_lanes
        w = self._n_words
        bits = np.unpackbits(self._P.view(np.uint8), axis=1, bitorder="little")
        value_bits = bits[:, : 2 * n_bits]
        care_bits = bits[:, 2 * n_bits :]
        # codes = value where care, else X3 (== 2).  The plane invariant
        # ``v & ~c == 0`` means value bits are already 0 wherever care is
        # 0, so the three-valued code is just ``v | (~c << 1)`` — three
        # elementwise uint8 ops instead of a (much slower) ``np.where``.
        codes = value_bits | ((care_bits ^ np.uint8(1)) << np.uint8(1))
        good3 = codes[:, :n_bits]
        faulty3 = codes[:, n_bits:]
        # The D net/lane index is built at *packed* word level: most nets
        # carry no D anywhere, so finding the D-bearing rows on uint64
        # words and unpacking only those rows beats a full-matrix
        # boolean nonzero by an order of magnitude.
        V, C = self._V, self._C
        d_words = (V[:, :w] ^ V[:, w:]) & C[:, :w] & C[:, w:]
        detect_words = np.bitwise_or.reduce(
            d_words[self._compiled.output_ids], axis=0
        )
        detect = np.unpackbits(
            np.ascontiguousarray(detect_words).view(np.uint8),
            bitorder="little",
        )[:n_bits].astype(bool)
        d_node_ids = np.nonzero(d_words.any(axis=1))[0]
        d_sub = np.unpackbits(
            np.ascontiguousarray(d_words[d_node_ids]).view(np.uint8),
            axis=1,
            bitorder="little",
        )[:, :n_bits]
        # nonzero on the transposed (small) submatrix yields hits sorted
        # by lane, ready for the per-lane searchsorted bounds.
        d_cols, d_sub_rows = np.nonzero(d_sub.T)
        d_rows = d_node_ids[d_sub_rows]
        d_bounds = np.searchsorted(d_cols, np.arange(self._n_lanes + 1))
        return detect, good3, faulty3, (d_rows, d_bounds)

    # ------------------------------------------------------------------
    # the per-lane search step (the oracle's loop body, one iteration)
    # ------------------------------------------------------------------

    def _step(
        self,
        lane: _Lane,
        detect: np.ndarray,
        good3: np.ndarray,
        faulty3: np.ndarray,
        d_index: tuple[np.ndarray, np.ndarray],
    ) -> PodemResult | None:
        """Advance one lane by one decision (or backtrack); returns the
        lane's result when it resolves.  This is, line for line, the
        loop body of ``Podem.generate`` with the simulation calls gone —
        the sweep already implied this round's values."""
        oracle = self._oracle
        col = lane.col
        if detect[col]:
            cube = TestCube.from_dict(
                {oracle._name[d[0]]: d[1] for d in lane.decisions}
            )
            return PodemResult(
                PodemStatus.DETECTED, cube, lane.backtracks, lane.total_decisions
            )
        # Point the oracle's search machinery at this lane's state.
        d_rows, d_bounds = d_index
        # bytes, not lists: the oracle's step methods only *read* the
        # value arrays, indexing a handful of nodes — and indexing bytes
        # yields plain ints at list speed without the full-column
        # conversion cost.
        oracle._good = good3[:, col].tobytes()
        oracle._faulty = faulty3[:, col].tobytes()
        oracle._d_nets = set(
            d_rows[d_bounds[col] : d_bounds[col + 1]].tolist()
        )
        oracle._site_net_id = lane.site_net_id
        oracle._site_gate_id = lane.site_gate_id
        oracle._site_pin = lane.site_pin
        oracle._stuck = lane.stuck
        objective = oracle._objective(lane.site_net_id, lane.stuck)
        backtrace = (
            oracle._backtrace(objective) if objective is not None else None
        )
        if backtrace is None:
            flipped = False
            while lane.decisions:
                last = lane.decisions[-1]
                if not last[2]:
                    last[1] = 1 - last[1]
                    last[2] = True
                    self._assign(lane, last[0], last[1])
                    lane.backtracks += 1
                    self.backtracks_total += 1
                    flipped = True
                    break
                self._assign(lane, last[0], _X3)
                lane.decisions.pop()
            if not flipped:
                return PodemResult(
                    PodemStatus.UNTESTABLE,
                    None,
                    lane.backtracks,
                    lane.total_decisions,
                )
            if lane.backtracks > self.backtrack_limit:
                return PodemResult(
                    PodemStatus.ABORTED,
                    None,
                    lane.backtracks,
                    lane.total_decisions,
                )
            return None
        pi_id, value = backtrace
        lane.decisions.append([pi_id, int(value), False])
        self._assign(lane, pi_id, int(value))
        lane.total_decisions += 1
        self.decisions_total += 1
        return None
