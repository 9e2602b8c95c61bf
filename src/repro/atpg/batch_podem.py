"""Fault-parallel PODEM over the compiled circuit.

:class:`BatchPodem` generates tests for a whole *batch* of target
faults at once: each fault owns one bit **lane**, and both halves of
PODEM — the five-valued implication and the search — run for every
lane together as array code.

**Implication.**  A five-valued value is a (good, faulty) pair of
three-valued ones, and each three-valued value is an interval of two
rails: ``l`` is known-1 and ``u`` not-known-0, so X is (0, 1), a known
0 is (0, 0) and a known 1 is (1, 1).  One plane row carries the rails
``[l_good, l_faulty, u_good, u_faulty]``, each as wide as the lanes.
On rails AND and OR are one ``ufunc.reduce`` over all four, inversion
is a complement plus a swap of the two rails, and XOR is ``unk =
OR(l ^ u)``, ``v = XOR(l)``, ``(v & ~unk, v | unk)``.  One sweep per
round walks the circuit one topological level at a time; rows are
renumbered so each level's gates of one fold (AND, OR, XOR) are one
contiguous **fold group**, its inverting gates last, whose fanins are
padded to its widest gate with the fold's identity row (a known 1 or
a known 0) and gathered pin-major: one gather and one reduce over axis
0 fill the group, and one scatter writes it back with the inverting
gates' rails swapped, so a level costs at most three groups whatever
its arities.  Each level's output passes dense fault-forcing masks: a
stem fault pins both rails of its lane's faulty machine to the stuck
value on its net; a branch fault pins them on a *pin row* — a copy of
the net that only its reading gate's pin reads — so the gate sees the
stuck pin and every other reader sees the net.

**Search.**  Each round advances every lane by one PODEM step in lock
step, on the packed planes:

* the D-frontier is every gate that reads a D net and whose output is
  X in some machine (plus the branch site's gate once the fault is
  activated), and the X-path check is one levelized sweep
  ``reach = frontier | (xany & OR(fanin reach))`` read at the outputs;
* the objective gate is each lane's first frontier gate in a rank
  fixed by (PO distance, node id); its target is the gate's first
  good-machine-X fanin (a frontier gate without one is a dead end);
* the backtrace walks all lanes back together off a table built once:
  for each (gate, goal) the fanins sorted stably by signed cost — the
  easiest first when one controlling input suffices, the hardest first
  when every input must be non-controlling, by level or SCOAP
  difficulty, plain pin order for an XOR — so a step is one gather and
  an ``argmax`` for the first X pin, with the first-index ties of
  ``min()``/``max()``; an XOR's parity is the XOR of its fanins' good
  known-1 bits (the chosen pin is X and adds nothing), and lanes that
  stop park under a mask;
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
from repro.circuit.gates import Fold
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

_FOLDS = tuple(Fold)


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
        """Per-row arrays of the search.  Rows renumber the nodes — the
        sources, then each level's gates by fold, the inverting gates of
        a fold last, ties by node id — so each level's gates are one
        contiguous row range and each fold group one sub-range.  Row
        ``n`` is a sentinel (known 0 in both machines) that pads every
        fanin list of the search to the widest gate, and row ``n + 1`` a
        known 1; the two are the fold identities that pad the sweep's
        groups."""
        comp = self._compiled
        n = comp.n_nodes
        levels = comp.node_levels
        folds = comp.folds
        gates = np.flatnonzero(folds >= 0)
        gates = gates[np.lexsort((gates, comp.inverted[gates], folds[gates], levels[gates]))]
        node_of_row = np.concatenate((np.flatnonzero(folds < 0), gates))
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
        row_folds = np.append(folds[node_of_row], -1)
        invert = np.append(comp.inverted[node_of_row], False).astype(np.int64)
        self._invert = invert
        self._is_xor = (row_folds == Fold.XOR).astype(np.int64)
        self._has_xor = bool(self._is_xor.any())
        #: Value an objective asks of a frontier gate's X fanin: the
        #: non-controlling value, 0 for an XOR.
        self._objective_target = (row_folds == Fold.AND).astype(np.int64)
        self._input_rows = row_of[comp.input_ids]
        self._output_rows = row_of[comp.output_ids]
        w = self._n_words
        self._const_rows = row_ext[np.concatenate((comp.known0_rows, comp.known1_rows))]
        # Constants are known in both machines: both rails 0 for a known
        # 0, both 1 for a known 1.
        self._const_values = np.zeros((self._const_rows.size, 4 * w), dtype=np.uint64)
        self._const_values[comp.known0_rows.size :] = _ALL_ONES
        self._is_input = np.zeros(n + 1, dtype=bool)
        self._is_input[self._input_rows] = True
        #: Where a backtrace stops: a PI, or the sentinel (no X fanin).
        self._stop = self._is_input.copy()
        self._stop[n] = True
        self._input_index = np.full(n + 1, -1, dtype=np.int64)
        self._input_index[self._input_rows] = np.arange(comp.n_inputs)
        self._input_names = [comp.order[i] for i in comp.input_ids]
        self._build_backtrace_order()
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
        # Fold groups of each level: ``(fold, first row, end row, width,
        # first inverting row)``.
        arity = comp.arity[node_of_row]
        self._level_groups = []
        for _, a, b in self._level_rows:
            edges = a + np.flatnonzero(np.diff(row_folds[a:b], prepend=-1))
            groups = []
            for ga, gb in zip(edges.tolist(), edges[1:].tolist() + [b]):
                inverting = ga + int(np.count_nonzero(invert[ga:gb] == 0))
                width = int(arity[ga:gb].max())
                groups.append((_FOLDS[row_folds[ga]], ga, gb, width, inverting))
            self._level_groups.append(groups)
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

    def _build_backtrace_order(self) -> None:
        """The backtrace table ``[row, goal]``: the row's fanins in the
        order a backtrace step tries them, so the first good-X one is
        the pick.  An AND or OR row asked for ``goal`` needs ``pre =
        goal ^ invert`` on its fanins; when ``pre`` is the controlling
        value one input suffices and the fanins sort easiest first,
        else every input must go non-controlling and they sort hardest
        first.  Cost is the logic level, or the SCOAP controllability
        of ``pre``.  The sort is stable, so equal costs keep pin order:
        the first-index ties of ``min()``/``max()``.  An XOR row keeps
        plain pin order (its first X fanin); a one-pin gate's one pin
        is its first X fanin either way."""
        comp = self._compiled
        n = comp.n_nodes
        cost = np.zeros((n + 1, 2), dtype=np.int64)
        if self.heuristic == "scoap":
            from repro.atpg.scoap import compute_scoap

            measures = compute_scoap(self.circuit)
            cost[self._row_of, 0] = [measures.cc0[name] for name in comp.order]
            cost[self._row_of, 1] = [measures.cc1[name] for name in comp.order]
        else:
            cost[self._row_of] = comp.node_levels[:, None]
        control = np.append(comp.folds[self._node_of_row] == Fold.OR, False).astype(np.int64)
        fanins = self._fanin_pad
        order = np.empty((n + 1, 2, fanins.shape[1]), dtype=np.int64)
        for goal in (0, 1):
            pre = goal ^ self._invert
            sign = np.where(pre == control, 1, -1) * (1 - self._is_xor)
            key = cost[fanins, pre[:, None]] * sign[:, None]
            order[:, goal] = np.take_along_axis(
                fanins, np.argsort(key, axis=1, kind="stable"), axis=1
            )
        self._backtrace_order = order

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
        # One backing array carries both rails of both machines: word
        # columns [0, 2w) are the known-1 rail ``l`` and [2w, 4w) the
        # not-known-0 rail ``u``, each split good half / faulty half.
        # The sweep gathers a group's fanin rows once to read all four.
        self._P = np.zeros((n_rows, 4 * w), dtype=np.uint64)
        # Fault forcings as dense masks, ``P[r] = P[r] & keep[r] | put[r]``
        # for every row: ``keep`` clears a forced lane's faulty rails and
        # ``put`` sets both for a stuck-at-1; every other bit passes.
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
        # Each level's rows [a, b) and its fold groups: the fanin rows
        # pin-major, and the scatter of the result's rail halves onto the
        # plane's, swapped for the inverting gates.
        self._plan = []
        for (level, a, b), groups in zip(self._level_rows, self._level_groups):
            rows = []
            for fold, ga, gb, width, inverting in groups:
                halves = np.arange(2 * ga, 2 * gb, dtype=np.int64).reshape(-1, 2)
                halves[inverting - ga :] = halves[inverting - ga :, ::-1]
                fanins = np.ascontiguousarray(pin_fanin[ga:gb, :width].T)
                rows.append((fold, inverting - ga, halves.ravel(), fanins))
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
        words = list(self._faulty_words(col))
        mask = np.uint64(1 << (col % 64))
        self._keep[row, words] &= ~mask
        if fault.value:
            self._put[row, words] |= mask

    def _faulty_words(self, col: int) -> tuple[int, int]:
        """Columns of lane ``col``'s faulty ``l`` and ``u`` words."""
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

    # repro: allow[kernel-purity] O(depth x fold) sweep; each fold group evaluates every lane at once
    @kernel
    def _imply(self) -> None:
        """One five-valued sweep on the interval rails, one reduce per
        fold group: good and faulty machines for all lanes at once,
        fault forcings re-asserted level by level."""
        self.sweeps += 1
        P, keep, put = self._P, self._keep, self._put
        codes = self._codes
        known1 = np.packbits(codes == 1, axis=1, bitorder="little").view(np.uint64)
        maybe1 = np.packbits(codes != 0, axis=1, bitorder="little").view(np.uint64)
        P[self._input_rows] = np.concatenate((known1, known1, maybe1, maybe1), axis=1)
        P[self._const_rows] = self._const_values
        sources = P[: self._n_sources]
        sources &= keep[: self._n_sources]
        sources |= put[: self._n_sources]
        if self._source_copy is not None:
            self._copy_pins(*self._source_copy)
        # Each row as its two rail halves: the scatter target.
        halves = P.reshape(-1, P.shape[1] // 2)
        for a, b, groups, copy in self._plan:
            for fold, inverting, scatter, fanins in groups:
                out = _fold_rails(fold, P[fanins])
                tail = out[inverting:]
                np.invert(tail, out=tail)
                halves[scatter] = out.reshape(-1, halves.shape[1])
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
        x = planes[:, : 2 * w] ^ planes[:, 2 * w :]
        xany = x[:, :w] | x[:, w:]
        # A D: known in both machines, the known-1 rails differ.
        d = planes[:, :w] ^ planes[:, w : 2 * w]
        d &= ~xany
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
        activated = np.where(
            self._stuck[col] == 1, ~planes[net, 2 * w + word], planes[net, word]
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
        """The good machine of the node rows for the search, unpacked to
        one byte per (row, lane): the X flags and the known-1 rail."""
        w = self._n_words
        known1 = np.ascontiguousarray(planes[:, :w])
        x_words = known1 ^ planes[:, 2 * w : 3 * w]
        return (
            np.unpackbits(x_words.view(np.uint8), axis=1, bitorder="little"),
            np.unpackbits(known1.view(np.uint8), axis=1, bitorder="little"),
        )

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
        that stops parks under ``done``).  Returns each lane's PI row
        and value, and whether it reached one (the others met a gate
        without an X fanin)."""
        if not cols.size:
            return node, target, self._is_input[node]
        width = x_good.shape[1]
        x_flat, one_flat = x_good.ravel(), one_good.ravel()
        n_pins = self._fanin_pad.shape[1]
        tables = self._backtrace_order.reshape(-1, n_pins)
        first_pin = np.arange(cols.size, dtype=np.int64) * n_pins
        lane = cols[:, None]
        at, goal = node, target
        done = np.zeros(cols.size, dtype=bool)
        while True:
            new = self._stop[at] > done
            if new.any():
                node[new] = at[new]
                target[new] = goal[new]
                done |= new
                if done.all():
                    break
            # The gate's fanins in trial order: the first X one is the
            # pick (none: the walk meets the sentinel and stops).
            order = tables.take(2 * at + goal, axis=0)
            cells = order * width + lane
            x_pin = x_flat.take(cells)
            pick = first_pin + x_pin.argmax(axis=1)
            goal = goal ^ self._invert[at]
            if self._has_xor:
                # An XOR fixes its pick against the parity of the other
                # pins' good known-1 bits; the X pick itself adds 0.
                parity = np.bitwise_xor.reduce(one_flat.take(cells), axis=1)
                goal ^= parity & self._is_xor[at]
            at = np.where(x_pin.ravel().take(pick), order.ravel().take(pick), self._sentinel)
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
        site_value = one_good.ravel().take(net * width + cols)
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


def _fold_rails(fold: Fold, fanins: np.ndarray) -> np.ndarray:
    """Fold a group's pin-major interval rails ``(width, gates, [l |
    u])`` over the pin axis: AND and OR act on both rails alike; an XOR
    is known only where every pin is, its known-1 rail the parity of
    the pins' ``l``."""
    if fold is Fold.AND:
        return np.bitwise_and.reduce(fanins, axis=0)
    if fold is Fold.OR:
        return np.bitwise_or.reduce(fanins, axis=0)
    half = fanins.shape[-1] // 2
    known1 = fanins[..., :half]
    unknown = np.bitwise_or.reduce(known1 ^ fanins[..., half:], axis=0)
    parity = np.bitwise_xor.reduce(known1, axis=0)
    return np.concatenate((parity & ~unknown, parity | unknown), axis=1)
