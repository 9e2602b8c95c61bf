"""Fault-parallel PODEM over the compiled circuit plan.

:class:`BatchPodem` generates tests for a whole *batch* of target
faults at once: each fault owns one bit **lane**, and both halves of
PODEM — the five-valued implication and the search — run for every
lane together as array code.

**Implication.**  A five-valued value is a (good, faulty) pair of
three-valued ones, so both machines live in the ``m = 2`` (value +
care) planes of the one gate kernel,
:func:`~repro.circuit.gates.eval_gates`, each plane double width (good
lanes, then faulty lanes).  One sweep per round walks the compiled
circuit's plan one topological level at a time; rows are renumbered in
plan order, so each fold bucket (see :mod:`repro.sim.logic`) is one
contiguous row range that one ``eval_gates`` call fills, its fanins
padded with a known-1 or known-0 row: at most three calls fill a level
unless a ragged fold splits by arity.  Each level's
output passes dense fault-forcing masks: a stem fault pins its lane's
faulty value and care bits on its net; a branch fault pins them on a
*pin row* — a copy of the net that only its reading gate's pin reads —
so the gate sees the stuck pin and every other reader sees the net.

**Search.**  Each round advances every lane by one PODEM step in lock
step, on the packed planes:

* the D-frontier is every gate that reads a D net and whose output is
  X in some machine (plus the branch site's gate once the fault is
  activated), and the X-path check is one levelized sweep
  ``reach = frontier | (xany & OR(fanin reach))`` read at the outputs;
* the objective gate is each lane's first frontier gate in a rank
  fixed by (PO distance, node id); its target is the gate's first
  good-machine-X fanin (a frontier gate without one is a dead end);
* the backtrace walks all lanes back together, one gather per step,
  choosing the easiest (or, when every input must be non-controlling,
  the hardest) X fanin by level or SCOAP difficulty with first-index
  ties, and the XOR parity rule;
* decision stacks are per-lane arrays, so decisions, flips and the
  X-clearing of popped PIs are masked bulk writes of one assignment
  code matrix that the next sweep packs into its input planes.

Every step mirrors the recursive :class:`~repro.atpg.podem.Podem`,
which stays the differential oracle: a lane's decision sequence — and
therefore its DETECTED / UNTESTABLE / ABORTED outcome, its test cube,
and its backtrack and decision counters — is identical to what
``Podem.generate`` produces for the same fault.  The differential
suite in ``tests/test_atpg_batch.py`` pins this.

Lanes resolve independently; :meth:`stream` reseats freed lanes from
the queue immediately, and :meth:`drop` lets the driving engine retire
queued *and mid-search* lanes as soon as some freshly generated pattern
covers their fault (fault dropping between PODEM targets).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

import numpy as np

from repro.atpg.podem import PodemResult, PodemStatus, TestCube
from repro.circuit.gates import Fold, eval_gates
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

#: Assignment code of an unassigned (X) primary input.
_X = 2

#: Backtrace step kinds: AND and OR folds pick the easiest or hardest X
#: fanin, XOR folds fix their first X fanin by parity.
_CONTROL, _PARITY = range(2)

_BIG = np.iinfo(np.int64).max


class BatchPodem:
    """PODEM bound to one combinational circuit, fault-parallel.

    ``backtrack_limit`` / ``heuristic`` mean exactly what they mean on
    the recursive :class:`~repro.atpg.podem.Podem`.  ``batch_size`` is
    the lane count per implication sweep; ``simulator`` optionally
    donates its already compiled circuit so the engine, the fault
    simulator and the batch PODEM share one levelized plan.
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
        if heuristic not in ("level", "scoap"):
            raise ValueError(f"unknown backtrace heuristic {heuristic!r}")
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.heuristic = heuristic
        self.batch_size = batch_size
        self._compiled = (
            simulator.compiled
            if simulator is not None
            else CompiledCircuit(circuit)
        )
        self._n_words = (batch_size + 63) // 64
        self._n_lanes = self._n_words * 64
        self._build_search_tables()
        #: Branch pins ``(gate id, pin)`` that read their net through a
        #: pin row of their own -> that row (numbered by ``_layout``).
        self._pin_rows: dict[tuple[int, int], int] = {}
        self._layout()
        lanes = self._n_lanes
        n_inputs = self._compiled.n_inputs
        self._faults: list[Fault | None] = [None] * batch_size
        self._sites: dict[Fault, tuple[int, int | None, int | None]] = {}
        self._forced_row = np.zeros(lanes, dtype=np.int64)
        self._site_net = np.zeros(lanes, dtype=np.int64)
        self._site_gate = np.full(lanes, -1, dtype=np.int64)
        self._stuck = np.zeros(lanes, dtype=np.int64)
        self._backtracks = np.zeros(lanes, dtype=np.int64)
        self._decisions = np.zeros(lanes, dtype=np.int64)
        # Per-lane decision stacks: PI row, value, flipped; ``_depth``
        # entries of each lane's row are live.  A decision assigns an
        # unassigned PI, so no stack outgrows the PI count.
        self._depth = np.zeros(lanes, dtype=np.int64)
        self._stack_pi = np.zeros((lanes, n_inputs), dtype=np.int64)
        self._stack_val = np.zeros((lanes, n_inputs), dtype=np.uint8)
        self._stack_flip = np.zeros((lanes, n_inputs), dtype=bool)
        #: PI assignment codes (0/1, ``_X``), one column per lane.
        self._codes = np.full((n_inputs, lanes), _X, dtype=np.uint8)
        self._queue: deque[Fault] = deque()
        self._dropped: set[Fault] = set()
        #: Seated columns of each fault, and the seated columns whose
        #: fault was dropped (unseated at the next round).
        self._col_of: dict[Fault, list[int]] = {}
        self._retired: set[int] = set()
        #: Sweep counter (perf forensics: decisions advance per sweep).
        self.sweeps = 0
        #: Engine-level effort counters, folded into a metrics registry
        #: by the driving :class:`repro.atpg.engine.AtpgEngine` once per
        #: run (this object is transient; see ``counters()``).
        self.lanes_seated = 0
        self.backtracks_total = 0
        self.decisions_total = 0

    # ------------------------------------------------------------------
    # structure tables
    # ------------------------------------------------------------------

    def _build_search_tables(self) -> None:
        """Per-row arrays of the search.  Rows renumber the nodes in the
        compiled plan's order — the sources, then each level's fold
        buckets — so each level's gates are one contiguous row range and
        each bucket one sub-range.  Row ``n`` is a sentinel (known 0 in
        both machines) that pads every fanin list of the search to the
        widest gate, and row ``n + 1`` a known 1; the two are the fold
        identities that pad the sweep's buckets."""
        comp = self._compiled
        n = comp.n_nodes
        levels = comp.node_levels
        node_of_row = np.concatenate(
            [np.flatnonzero(comp.folds < 0)]
            + [ids for _, buckets in comp.plan for _, _, ids, _ in buckets]
        )
        row_of = np.empty(n, dtype=np.int64)
        row_of[node_of_row] = np.arange(n)
        self._row_of = row_of
        self._node_of_row = node_of_row
        self._sentinel = n
        # Compiled rows as plane rows: the identity rows after the nodes
        # are row n + 1 (a known 1) and the sentinel (a known 0).  The
        # search pads with the sentinel alone, and its row ends the
        # table.
        row_ext = np.concatenate((row_of, [n + 1, n]))
        self._sweep_fanins = row_ext[comp.fanin_table][node_of_row]
        search_fanins = np.minimum(self._sweep_fanins, n)
        self._fanin_pad = np.vstack((search_fanins, np.full_like(search_fanins[:1], n)))
        # Per row: backtrace step kind, controlling value, inversion.  A
        # one-pin AND (BUF, NOT) steps as AND does: its one pin is both
        # the easiest and the first X fanin.
        folds = np.append(comp.folds[node_of_row], -1)
        kind = np.where(folds == Fold.XOR, _PARITY, _CONTROL)
        control = (folds == Fold.OR).astype(np.int64)
        invert = np.append(comp.inverted[node_of_row], False).astype(np.int64)
        self._gate_meta = np.stack((kind, control, invert), axis=1)
        #: Value an objective asks of a frontier gate's X fanin: the
        #: non-controlling value, 0 for an XOR.
        self._objective_target = (folds == Fold.AND).astype(np.int64)
        self._input_rows = row_of[comp.input_ids]
        self._output_rows = row_of[comp.output_ids]
        w = self._n_words
        self._const_rows = row_ext[np.concatenate((comp.known0_rows, comp.known1_rows))]
        # Constants are known in both machines: care all ones, value 1
        # for the known-1 rows only.
        self._const_values = np.full((self._const_rows.size, 4 * w), _ALL_ONES)
        self._const_values[: comp.known0_rows.size, : 2 * w] = 0
        self._is_input = np.zeros(n + 1, dtype=bool)
        self._is_input[self._input_rows] = True
        #: Where a backtrace stops: a PI, or the sentinel (no X fanin).
        self._stop = self._is_input.copy()
        self._stop[n] = True
        self._input_index = np.full(n + 1, -1, dtype=np.int64)
        self._input_index[self._input_rows] = np.arange(comp.n_inputs)
        self._input_names = [comp.order[i] for i in comp.input_ids]
        # Backtrace cost of setting a row to value v, signed by whether
        # one controlling input suffices (pick the easiest, cost as is)
        # or every input must go non-controlling (pick the hardest,
        # negated): ``[row, v, easy]``.  Cost is the logic level, or the
        # SCOAP controllability.
        cost = np.zeros((n + 1, 2), dtype=np.int64)
        if self.heuristic == "scoap":
            from repro.atpg.scoap import compute_scoap

            measures = compute_scoap(self.circuit)
            cost[row_of, 0] = [measures.cc0[name] for name in comp.order]
            cost[row_of, 1] = [measures.cc1[name] for name in comp.order]
        else:
            cost[row_of] = levels[:, None]
        self._signed_cost = np.stack((-cost, cost), axis=-1).ravel()
        # Objective rank: shortest fanout distance to a PO (unreachable
        # last), ties by node id.
        distance = np.full(n, 1 << 30, dtype=np.int64)
        distance[comp.output_ids] = 0
        is_output = np.zeros(n, dtype=bool)
        is_output[comp.output_ids] = True
        for node_id in range(n - 1, -1, -1):
            if not is_output[node_id]:
                reach = [distance[f] + 1 for f in comp.fanout_ids[node_id]]
                distance[node_id] = min(reach, default=1 << 30)
        distance = np.minimum(distance, 1 << 30)
        self._rank_rows = row_of[np.lexsort((np.arange(n), distance))]
        # Row range of each level's gates (sources are level 0).
        row_levels = levels[node_of_row]
        bounds = np.searchsorted(row_levels, np.arange(int(row_levels.max(initial=0)) + 2))
        self._level_rows = [
            (level, int(bounds[level]), int(bounds[level + 1]))
            for level in range(1, len(bounds) - 1)
            if bounds[level + 1] > bounds[level]
        ]
        self._level_ends = np.array([b for _, _, b in self._level_rows], dtype=np.int64)
        #: Level-0 rows: the sources (PIs and constants).
        self._n_sources = self._level_rows[0][1] if self._level_rows else n
        # Gate pins (node rows, pin order) with segment starts, for the
        # frontier and X-path folds: all gates, and each level's.
        self._gate_pins = (
            _segments(self._fanin_pad, self._n_sources, n, n)
            if n > self._n_sources
            else None
        )
        self._level_pins = [
            (a, b, *_segments(self._fanin_pad, a, b, n)) for _, a, b in self._level_rows
        ]

    def _layout(self) -> None:
        """(Re)build the plane backing and the sweep plan for the
        current pin rows: rows ``[0, n)`` are nodes, row ``n`` the
        sentinel (a known 0), row ``n + 1`` a known 1, then one row per
        pin in ``_pin_rows``."""
        comp = self._compiled
        n = comp.n_nodes
        w = self._n_words
        row_of = self._row_of
        n_rows = n + 2 + len(self._pin_rows)
        # One backing array carries value and care planes of both
        # machines: word columns [0, 2w) are the value plane and [2w, 4w)
        # the care plane, each split good half / faulty half.  The
        # sweep gathers a bucket's fanin rows once to read all four.
        self._P = np.zeros((n_rows, 4 * w), dtype=np.uint64)
        # Fault forcings as dense masks, ``P[r] = P[r] & keep[r] | put[r]``
        # for every row: ``keep`` clears a forced lane's faulty value and
        # care bits and ``put`` sets the stuck value; every other bit
        # passes.
        self._keep = np.full((n_rows, 4 * w), _ALL_ONES, dtype=np.uint64)
        self._put = np.zeros((n_rows, 4 * w), dtype=np.uint64)
        # Pin rows follow the nodes, ordered by their net's level, so
        # each level's copies land on one contiguous row range.
        net_level = comp.node_levels
        pins = sorted(
            self._pin_rows,
            key=lambda key: (net_level[comp.gate_fanins[key[0]][key[1]]], key),
        )
        # Fanin rows as the sweep's gates read them: a pin with a pin row
        # of its own reads that row.
        pin_fanin = self._sweep_fanins.copy()
        copies: dict[int, list[int]] = {}
        for row, (gate_id, pin) in enumerate(pins, start=n + 2):
            self._pin_rows[(gate_id, pin)] = row
            net_id = comp.gate_fanins[gate_id][pin]
            pin_fanin[row_of[gate_id], pin] = row
            copies.setdefault(int(net_level[net_id]), []).append(int(row_of[net_id]))
        copy_of = {}
        first = n + 2
        for level in sorted(copies):
            nets = np.array(copies[level], dtype=np.int64)
            copy_of[level] = (first, first + nets.size, nets)
            first += nets.size
        self._source_copy = copy_of.get(0)
        # Each level's rows [a, b) and its buckets' row ranges, in the
        # compiled plan's order.
        self._plan = []
        for (level, buckets), (_, a, b) in zip(comp.plan, self._level_rows):
            rows, ga = [], a
            for fold, invert, ids, fanins in buckets:
                gb = ga + ids.size
                rows.append((fold, invert, ga, gb, pin_fanin[ga:gb, : fanins.shape[1]]))
                ga = gb
            self._plan.append((a, b, rows, copy_of.get(level)))

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

        Every fault's site is checked up front (:class:`KeyError` for a
        net or pin the circuit lacks).  The driving engine may call
        :meth:`drop` between yields: dropped faults are skipped at seat
        time, mid-search lanes retire at the next round, and
        already-resolved-but-dropped results are never yielded (their
        fault is covered by an existing pattern, so the cube would only
        lengthen the test set).  Resolution order is deterministic:
        lanes are stepped and reported in column order every round.
        """
        for col, fault in enumerate(self._faults):
            # A previous stream abandoned early (e.g. ``generate``
            # returning mid-iteration) may leave lanes seated.
            if fault is not None:
                self._unseat(col)
        self._queue = deque(faults)
        self._dropped = set()
        self._prepare_sites(self._queue)
        faults_by_col = self._faults
        while True:
            for col in sorted(self._retired):
                self._unseat(col)
            for col in range(self.batch_size):
                if faults_by_col[col] is not None:
                    continue
                fault = self._next_queued()
                if fault is None:
                    break
                self._seat(col, fault)
            cols = np.array(
                [col for col, fault in enumerate(faults_by_col) if fault is not None],
                dtype=np.int64,
            )
            if not cols.size:
                return
            self._imply()
            resolved = []
            for col, result in self._advance(cols):
                resolved.append((faults_by_col[col], result))
                self._unseat(col)
            for fault, result in resolved:
                if fault in self._dropped:
                    continue
                yield fault, result

    def drop(self, faults: Iterable[Fault]) -> None:
        """Retire ``faults`` (queued or mid-search): some existing
        pattern already covers them, so no lane needs to finish."""
        for fault in faults:
            self._dropped.add(fault)
            self._retired.update(self._col_of.get(fault, ()))

    def active_faults(self) -> list[Fault]:
        """Faults currently seated in lanes (column order)."""
        return [
            fault
            for col, fault in enumerate(self._faults)
            if fault is not None and col not in self._retired
        ]

    def queued_faults(self) -> list[Fault]:
        """Faults still waiting for a lane (queue order)."""
        return [f for f in self._queue if f not in self._dropped]

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

    # ------------------------------------------------------------------
    # lane management
    # ------------------------------------------------------------------

    def _prepare_sites(self, faults: Iterable[Fault]) -> None:
        """Resolve every fault's site to rows once, and give each branch
        pin a fault names a pin row of its own (re-laying the planes out
        when the stream brings new ones)."""
        comp = self._compiled
        row_of = self._row_of
        sites = {}
        new_pins = set()
        for fault in faults:
            net_id, gate_id, pin = comp.fault_site(fault)
            sites[fault] = (int(row_of[net_id]), gate_id, pin)
            if gate_id is not None and (gate_id, pin) not in self._pin_rows:
                new_pins.add((gate_id, pin))
        self._sites = sites
        if new_pins:
            self._pin_rows.update(dict.fromkeys(new_pins, -1))
            self._layout()

    def _next_queued(self) -> Fault | None:
        while self._queue:
            fault = self._queue.popleft()
            if fault not in self._dropped:
                return fault
        return None

    def _seat(self, col: int, fault: Fault) -> None:
        self.lanes_seated += 1
        net, gate_id, pin = self._sites[fault]
        self._faults[col] = fault
        self._site_net[col] = net
        self._site_gate[col] = -1 if gate_id is None else self._row_of[gate_id]
        self._stuck[col] = fault.value
        self._backtracks[col] = 0
        self._decisions[col] = 0
        self._depth[col] = 0
        # A stem fault holds its net (pin rows copy it after the force);
        # a branch fault holds only its own pin row.
        row = net if gate_id is None else self._pin_rows[(gate_id, pin)]
        self._forced_row[col] = row
        self._col_of.setdefault(fault, []).append(col)
        value, care = self._faulty_words(col)
        mask = np.uint64(1 << (col % 64))
        self._keep[row, [value, care]] &= ~mask
        self._put[row, care] |= mask
        if fault.value:
            self._put[row, value] |= mask

    def _faulty_words(self, col: int) -> tuple[int, int]:
        """Columns of lane ``col``'s faulty value and care words."""
        w = self._n_words
        word = col // 64
        return w + word, 3 * w + word

    def _unseat(self, col: int) -> None:
        row = self._forced_row[col]
        words = list(self._faulty_words(col))
        mask = np.uint64(1 << (col % 64))
        self._keep[row, words] |= mask
        self._put[row, words] &= ~mask
        fault = self._faults[col]
        seats = self._col_of[fault]
        seats.remove(col)
        if not seats:
            del self._col_of[fault]
        self._retired.discard(col)
        self._faults[col] = None
        # The next tenant starts from all-X.
        self._codes[:, col] = _X
        self._depth[col] = 0

    # ------------------------------------------------------------------
    # the packed implication sweep
    # ------------------------------------------------------------------

    # repro: allow[kernel-purity] O(depth x fold-bucket) sweep; each fold evaluates every lane at once
    @kernel
    def _imply(self) -> None:
        """One five-valued sweep, one fold call per bucket: good and
        faulty machines for all lanes at once, fault forcings
        re-asserted level by level."""
        self.sweeps += 1
        P, keep, put = self._P, self._keep, self._put
        codes = self._codes
        value = np.packbits(codes == 1, axis=1, bitorder="little").view(np.uint64)
        care = np.packbits(codes != _X, axis=1, bitorder="little").view(np.uint64)
        P[self._input_rows] = np.concatenate((value, value, care, care), axis=1)
        P[self._const_rows] = self._const_values
        sources = P[: self._n_sources]
        sources &= keep[: self._n_sources]
        sources |= put[: self._n_sources]
        if self._source_copy is not None:
            self._copy_pins(*self._source_copy)
        for a, b, buckets, copy in self._plan:
            for fold, invert, ga, gb, fanins in buckets:
                P[ga:gb] = eval_gates(fold, invert, P[fanins], 2, axis=1)
            level = P[a:b]
            level &= keep[a:b]
            level |= put[a:b]
            if copy is not None:
                self._copy_pins(*copy)

    def _copy_pins(self, a: int, b: int, nets: np.ndarray) -> None:
        """Fill pin rows ``[a, b)`` from their (already forced) nets and
        force them."""
        pins = self._P[nets]
        pins &= self._keep[a:b]
        pins |= self._put[a:b]
        self._P[a:b] = pins

    # ------------------------------------------------------------------
    # the lock-step search
    # ------------------------------------------------------------------

    # repro: allow[kernel-purity] O(depth) levelized X-path sweep; each level covers every lane's words
    @kernel
    def _frontier(
        self, planes: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """D-frontier state of lanes ``cols`` off the packed planes:
        whether some output sees a D, whether some frontier gate has an
        X-path to an output, and each lane's first frontier gate in rank
        order (``-1`` when its frontier is empty).

        A frontier gate reads a D on some pin and is X in some machine.
        """
        w = self._n_words
        value_good, value_faulty = planes[:, :w], planes[:, w : 2 * w]
        known = planes[:, 2 * w : 3 * w] & planes[:, 3 * w :]
        d = known & (value_good ^ value_faulty)
        xany = ~known
        frontier = np.zeros_like(d)
        if self._gate_pins is not None:
            pins, starts = self._gate_pins
            frontier[self._n_sources : self._sentinel] = np.bitwise_or.reduceat(
                d[pins], starts
            )
        frontier &= xany
        # The branch site's gate sees a D on its stuck pin once the good
        # stem value activates the fault, even with no D on the stem.
        branch = np.flatnonzero(self._site_gate[cols] >= 0)
        col = cols[branch]
        word, bit = col // 64, np.uint64(1) << (col % 64).astype(np.uint64)
        gate, net = self._site_gate[col], self._site_net[col]
        good = value_good[net, word]
        activated = np.where(
            self._stuck[col] == 1, planes[net, 2 * w + word] & ~good, good
        )
        site = (activated & xany[gate, word] & bit) != 0
        np.bitwise_or.at(frontier, (gate[site], word[site]), bit[site])
        in_frontier = frontier.any(axis=1)
        # Levels below the lowest frontier gate reach nothing.
        lowest = np.searchsorted(self._level_ends, in_frontier.argmax(), side="right")
        reach = np.zeros_like(frontier)
        for a, b, pins, starts in self._level_pins[lowest:] if in_frontier.any() else ():
            part = reach[a:b]
            np.bitwise_or.reduceat(reach[pins], starts, out=part)
            part &= xany[a:b]
            part |= frontier[a:b]
        outputs = self._output_rows
        detect = np.bitwise_or.reduce(d[outputs], axis=0)
        x_path = np.bitwise_or.reduce(reach[outputs], axis=0)
        hit = self._rank_rows[in_frontier[self._rank_rows]]
        first = np.full(cols.size, -1, dtype=np.int64)
        if hit.size:
            bits = np.unpackbits(
                frontier[hit].view(np.uint8), axis=1, bitorder="little"
            )[:, cols]
            has = bits.any(axis=0)
            first[has] = hit[bits.argmax(axis=0)[has]]
        word, bit = cols // 64, (cols % 64).astype(np.uint64)
        return (
            (detect[word] >> bit) & 1 == 1,
            (x_path[word] >> bit) & 1 == 1,
            first,
        )

    def _good_state(self, planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The good machine of the node rows for the backtrace: X flags
        unpacked to one byte per (row, lane), and the packed value
        words (a set value bit is a known 1)."""
        w = self._n_words
        x_words = ~planes[:, 2 * w : 3 * w]
        x_good = np.unpackbits(x_words.view(np.uint8), axis=1, bitorder="little")
        return x_good, planes[:, :w]

    # repro: allow[kernel-purity] O(path length) lock-step backtrace; each step moves every walking lane one gate
    @kernel
    def _backtrace(
        self,
        x_good: np.ndarray,
        one_good: np.ndarray,
        cols: np.ndarray,
        node: np.ndarray,
        target: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk each lane's objective ``(node, target)`` back along good
        X nets to an unassigned PI, all lanes one gate per step (a lane
        leaves the walk when it stops).  Returns each lane's PI row and
        value, and whether it reached one (the others met a gate without
        an X fanin)."""
        width = x_good.shape[1]
        x_flat = x_good.ravel()
        n_pins = self._fanin_pad.shape[1]
        walking = np.arange(cols.size, dtype=np.int64)
        at, goal, col = node, target, cols
        while walking.size:
            stop = self._stop[at]
            if stop.any():
                node[walking[stop]] = at[stop]
                target[walking[stop]] = goal[stop]
                keep = ~stop
                walking, at, goal, col = (
                    walking[keep], at[keep], goal[keep], col[keep]
                )
                if not walking.size:
                    break
            fanins = self._fanin_pad[at]
            x_pin = x_flat.take(fanins * width + col[:, None])
            kind, control, invert = self._gate_meta[at].T
            pre = goal ^ invert
            # AND/OR-like: one controlling input suffices (easiest X
            # fanin), else every input must go non-controlling (hardest
            # first); either way the fanin target is ``pre``, and ties go
            # to the first pin, as min()/max() do.
            cost = self._signed_cost.take(
                fanins * 4 + (2 * pre + (pre == control))[:, None]
            )
            pick_control = np.where(x_pin, cost, _BIG).argmin(axis=1)
            # XOR-like: fix the first X fanin against the parity of the
            # other pins' known good values (X counts as 0).
            pick_parity = x_pin.argmax(axis=1)
            parity = kind == _PARITY
            if parity.any():
                lanes = np.flatnonzero(parity)
                pins = fanins[lanes]
                chosen = pins[np.arange(lanes.size, dtype=np.int64), pick_parity[lanes]]
                lane_col = col[lanes, None]
                ones = one_good[pins, lane_col // 64] >> (lane_col % 64).astype(
                    np.uint64
                )
                parity[lanes] = np.bitwise_xor.reduce(
                    ones & (pins != chosen[:, None]), axis=1
                ) & 1
            # A one-input gate's one pin is its first X pin, if any.
            pick = np.where(kind == _CONTROL, pick_control, pick_parity)
            first_pin = np.arange(at.size, dtype=np.int64) * n_pins
            moved = fanins.ravel().take(first_pin + pick)
            has_x = x_pin.ravel().take(first_pin + pick_parity)
            at = np.where(has_x, moved, self._sentinel)
            goal = pre ^ parity
        return node, target, self._is_input[node]

    def _advance(self, cols: np.ndarray) -> list[tuple[int, PodemResult]]:
        """One PODEM step for every seated lane ``cols`` (ascending):
        detect, else objective + backtrace and a decision, else
        backtrack.  Returns the lanes that resolved, in column order."""
        planes = self._P[: self._sentinel + 1]
        detect, x_path, first = self._frontier(planes, cols)
        x_good, one_good = self._good_state(planes)
        width = x_good.shape[1]
        x_flat = x_good.ravel()
        net = self._site_net[cols]
        stuck = self._stuck[cols]
        site_x = x_flat.take(net * width + cols) == 1
        site_value = (one_good[net, cols // 64] >> (cols % 64).astype(np.uint64)) & 1
        # Objective: activate the fault, else drive the first frontier
        # gate's first good-X fanin to its non-controlling value.
        node = net.copy()
        target = 1 - stuck
        seek = ~detect & site_x
        propagate = ~detect & ~site_x & (site_value != stuck) & (first >= 0) & x_path
        lanes = np.flatnonzero(propagate)
        gates = first[lanes]
        fanins = self._fanin_pad[gates]
        x_pin = x_flat.take(fanins * width + cols[lanes, None]) == 1
        node[lanes] = fanins[np.arange(lanes.size), x_pin.argmax(axis=1)]
        target[lanes] = self._objective_target[gates]
        propagate[lanes[~x_pin.any(axis=1)]] = False
        search = np.flatnonzero(seek | propagate)
        pis, values, ok = self._backtrace(
            x_good, one_good, cols[search], node[search], target[search]
        )
        dead = ~detect
        dead[search[ok]] = False
        self._decide(cols[search[ok]], pis[ok], values[ok])
        untestable, aborted = self._backtrack(cols[dead])
        status = {}
        for col in cols[detect].tolist():
            status[col] = PodemStatus.DETECTED
        for col in untestable.tolist():
            status[col] = PodemStatus.UNTESTABLE
        for col in aborted.tolist():
            status[col] = PodemStatus.ABORTED
        return [
            (
                col,
                PodemResult(
                    status[col],
                    self._cube(col) if status[col] is PodemStatus.DETECTED else None,
                    int(self._backtracks[col]),
                    int(self._decisions[col]),
                ),
            )
            for col in sorted(status)
        ]

    def _decide(self, cols: np.ndarray, pis: np.ndarray, values: np.ndarray) -> None:
        """Push one decision per lane and assign its PI."""
        inputs = self._input_index[pis]
        depth = self._depth[cols]
        self._stack_pi[cols, depth] = inputs
        self._stack_val[cols, depth] = values
        self._stack_flip[cols, depth] = False
        self._depth[cols] = depth + 1
        self._codes[inputs, cols] = values
        self._decisions[cols] += 1
        self.decisions_total += cols.size

    def _backtrack(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flip each dead-end lane's most recent untried decision,
        popping (and un-assigning) the tried ones above it.  Returns the
        lanes left with no decision to flip (UNTESTABLE) and the lanes
        whose flip exceeded the backtrack limit (ABORTED)."""
        depth = self._depth[cols]
        span = int(depth.max(initial=0))
        slots = np.arange(span)
        live = slots < depth[:, None]
        untried = live & ~self._stack_flip[cols, :span]
        has = untried.any(axis=1)
        top = np.full(cols.size, -1, dtype=np.int64)
        if span:
            top[has] = span - 1 - untried[has, ::-1].argmax(axis=1)
        lane, slot = np.nonzero(live & (slots > top[:, None]))
        self._codes[self._stack_pi[cols[lane], slot], cols[lane]] = _X
        self._depth[cols] = top + 1
        flip, top = cols[has], top[has]
        self._stack_val[flip, top] ^= 1
        self._stack_flip[flip, top] = True
        self._codes[self._stack_pi[flip, top], flip] = self._stack_val[flip, top]
        self._backtracks[flip] += 1
        self.backtracks_total += flip.size
        return cols[~has], flip[self._backtracks[flip] > self.backtrack_limit]

    def _cube(self, col: int) -> TestCube:
        depth = int(self._depth[col])
        names = self._input_names
        return TestCube.from_dict(
            {
                names[index]: value
                for index, value in zip(
                    self._stack_pi[col, :depth].tolist(),
                    self._stack_val[col, :depth].tolist(),
                )
            }
        )


def _segments(
    fanin_pad: np.ndarray, a: int, b: int, pad: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pins of gate rows ``[a, b)`` of a padded fanin table, in pin
    order, and each gate's first pin: the segmented ``reduceat`` form."""
    rows = fanin_pad[a:b]
    real = rows != pad
    starts = np.concatenate(([0], np.cumsum(real.sum(axis=1)[:-1])))
    return rows[real], starts.astype(np.int64)
