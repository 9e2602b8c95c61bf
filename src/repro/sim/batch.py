"""Batched parallel-pattern fault simulation (PPSFP over fault batches).

The legacy engine (:class:`repro.sim.fault.SerialFaultSimulator`) walks
one fault cone at a time, paying one Python-level gate evaluation per
cone node *per fault*.  This engine simulates a whole **batch** of
faults at once:

* faulty node values are stacked along a fault axis — every node touched
  by the batch owns a ``(batch, n_words)`` ``uint64`` array, so one
  numpy call propagates 64 patterns for *all* faults in the batch;
* the batch shares one **cone-union schedule**: the union of the faults'
  output cones is levelized and grouped by (gate type, arity) once per
  distinct fault batch (:class:`_BatchPlan`, built from per-node arrays
  with numpy unions and one sort), then reused for every pattern set
  simulated against that batch (e.g. every Detection Matrix row);
* batches are **cone-local**: every query forms its batches through one
  routine (:meth:`BatchFaultSimulator._batches`) that sorts the faults
  by (reachable-PO bitmask, site level, site node) before chunking, so
  batch-mates share most of their output cones and the union each one
  simulates stays close to its own cone.  Fault rows are independent,
  so the order changes no answer; results are scattered back to the
  caller's fault order;
* fault injection is done by *forcing* rows: a stem fault freezes its
  net's row at the stuck value, a branch fault freezes the reading
  gate's row at the gate function with the faulty pin stuck (one kernel
  call per (gate type, arity) group of branch faults, from forcing
  tables built with the plan).  Forced rows are re-asserted after their
  level evaluates, so a site that lies inside another fault's cone is
  still simulated correctly for the other rows of the batch;
* one fault machine serves 0/1 and 0/1/X: the plane count ``m`` is a
  property of the packed carrier (:class:`~repro.utils.bitvec.
  PackedPatterns` or :class:`~repro.utils.bitvec.PackedPlanes`), and
  fault-free simulation, :meth:`_BatchPlan.detect` and the gate kernel
  (:func:`~repro.circuit.gates.eval_gates`) all take it with the state.
  At ``m = 2`` detection is pessimistic (:mod:`repro.sim.threeval`).

Every pattern argument is :data:`~repro.utils.bitvec.PatternsLike`: the
word-parallel :class:`~repro.utils.bitvec.PackedPatterns` the batched
TPG evolution (:meth:`repro.tpg.base.TestPatternGenerator.evolve_batch`)
emits passes straight through ``as_packed`` with **no** re-packing, so
generated sequences go TPG -> simulator without ever existing as Python
int lists.

**Fault dropping**: :meth:`detection_matrix_rows` streams Detection
Matrix rows (one row per pattern set) over one fixed fault batching, and
the any-pattern queries (:meth:`detected`, :meth:`first_detection_index`,
:meth:`fault_coverage`) are its one-row views, so every "does some
pattern detect this fault" question runs the same scan.  Rows are packed
word-aligned into **chunks** of at most ``CHUNK_BUDGETS ×
row_chunk_words`` words, and each chunk pays one fault-free simulation
for all its rows.  Each fault batch then scans the chunk
**offset-major** — every row's word 0, then every row's word 1, and so
on — in calls of at most ``row_chunk_words × batch_size`` fault × word
cells, with **per-row fault dropping** between calls: a fault stops
being simulated once every row that still has unscanned words has
detected it, and a row stops being scanned once it has detected every
fault still simulated.  One-word rows have nothing to drop and scan
every cell.  A shrinking batch *subsets* its compiled schedule
(:meth:`_BatchPlan.subset` — an index-mask filter over the forced rows)
instead of re-running the pure-Python cone-union/level-grouping
construction for the survivors.  The scan records each (row, fault)
cell's **first detecting pattern** as it goes
(:meth:`first_detection_rows`): a row's words are visited in order, so
its first non-zero detect word and that word's lowest set bit are the
first detection, at no extra fault-machine work; the Detection Matrix
row is the detected-or-not view of those offsets.

:func:`parallel_detection_rows` fans row chunks out over a process pool
for an opt-in ``workers=N`` construction path; the packed pattern state
is shared with the workers through a ``multiprocessing.shared_memory``
block (pickled once per worker on platforms without ``fork``), so job
payloads carry row *indices*, not pattern data.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.circuit.gates import GateType, eval_gates
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.sim.logic import CompiledCircuit
from repro.utils.bitvec import (
    BitVector,
    PackedPatterns,
    PatternsLike,
    as_packed,
)
from repro.utils.kernels import kernel

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Default number of faults simulated per batch.
DEFAULT_BATCH_SIZE = 32

#: Word budget of one detection-row fault-machine call at full batch
#: width: a call simulates at most ``row_chunk_words × batch_size``
#: fault × word cells (64 × 32 = 2048 by default).
DEFAULT_ROW_CHUNK_WORDS = 64

#: A detection-row chunk's fault-free state holds at most this many
#: ``row_chunk_words`` budgets of words (a longer row is its own chunk).
CHUNK_BUDGETS = 4


def offset_dtype(n_patterns: int) -> np.dtype:
    """The first-detection offset dtype of rows of at most
    ``n_patterns`` patterns: the narrowest unsigned integer whose max,
    the "not detected" sentinel, exceeds every offset — ``uint8`` up to
    255 patterns, ``uint16`` up to 65535, wider above that."""
    return np.min_scalar_type(max(0, int(n_patterns)))


def detected_mask(offsets: np.ndarray) -> np.ndarray:
    """The detected-or-not view of first-detection offsets: True where
    an offset is not its dtype's max, the "not detected" sentinel."""
    return offsets != np.iinfo(offsets.dtype).max


@kernel
def _low_bit_index(words: np.ndarray) -> np.ndarray:
    """Bit position of the lowest set bit of each non-zero ``uint64``
    word: the bit is isolated (``w & (~w + 1)``), and a power of two is
    exact in ``float64``, so ``frexp`` reads its exponent exactly."""
    low = words & (~words + np.uint64(1))
    return np.frexp(low.astype(np.float64))[1] - 1


#: Cached cone-union schedules per simulator (LRU).  Callers that batch
#: a stable fault list (Detection Matrix rows, any-pattern queries)
#: hit the same few plans forever; survivor subsets reuse their parent
#: plan via :meth:`_BatchPlan.subset` and never enter the cache.
PLAN_CACHE_SIZE = 256


def _word_columns(state: np.ndarray, m: int, cols: slice | np.ndarray) -> np.ndarray:
    """The pattern-word columns ``cols`` of ``m``-plane state, on every
    plane: a view for a slice at ``m = 1``, else a copy."""
    n_rows = state.shape[0]
    planes = state.reshape(n_rows, m, -1)
    if isinstance(cols, slice):
        return planes[:, :, cols].reshape(n_rows, -1)
    return np.take(planes, cols, axis=2).reshape(n_rows, -1)


def _site_node(compiled: CompiledCircuit, fault: Fault) -> int:
    """The node a fault forces: the stuck net for a stem fault, the
    reading gate for a branch fault."""
    site = fault.site
    return compiled.index[site.gate if site.is_branch else site.net]


class _NodeTables:
    """Per-node structure arrays the plan builder indexes.

    Built once per simulator, so :class:`_BatchPlan` construction is a
    handful of numpy gathers instead of Python set and dict walks over
    every cone node.
    """

    __slots__ = (
        "levels", "gate_types", "arity", "fanin_pad", "type_arity", "group_key",
        "output_ids",
    )

    def __init__(self, compiled: CompiledCircuit) -> None:
        n_nodes = compiled.n_nodes
        self.levels = compiled.node_levels
        self.gate_types = compiled.gate_types
        self.output_ids = compiled.output_ids
        self.arity = np.array(
            [len(fanins) for fanins in compiled.gate_fanins], dtype=np.int64
        )
        width = max(1, int(self.arity.max(initial=0)))
        # Fanin ids padded to a rectangle with the node's own id, so a
        # gather over the padding only ever re-marks the node itself.
        self.fanin_pad = np.repeat(
            np.arange(n_nodes, dtype=np.int64)[:, None], width, axis=1
        )
        for node_id, fanins in enumerate(compiled.gate_fanins):
            self.fanin_pad[node_id, : len(fanins)] = fanins
        # One int key per node encoding (gate type, arity), and one
        # sortable key encoding (level, gate type, arity).
        type_code = {gtype: code for code, gtype in enumerate(GateType)}
        codes = np.array(
            [type_code[gtype] for gtype in compiled.gate_types], dtype=np.int64
        )
        self.type_arity = codes * (width + 1) + self.arity
        self.group_key = (
            self.levels * len(type_code) * (width + 1) + self.type_arity
        )


#: The columns of a plan's per-fault spec table that :meth:`_BatchPlan.
#: detect` reads: the site's buffer row and the stuck value.
_SPEC_ROW, _SPEC_STUCK = 0, 1


class _BatchPlan:
    """The compiled cone-union schedule for one tuple of faults.

    Built once per distinct fault batch and cached by the simulator; the
    expensive structural work (cone unions, level grouping, buffer
    layout, forcing tables) is paid here so :meth:`detect` is pure
    numpy.
    """

    __slots__ = (
        "n_faults",
        "n_buf",
        "boundary_pos",
        "boundary_ids",
        "level_groups",
        "out_pos",
        "out_ids",
        "tables",
        "spec",
        "branch_groups",
        "reforce",
    )

    def __init__(
        self,
        compiled: CompiledCircuit,
        faults: Sequence[Fault],
        cone_of,
        tables: _NodeTables,
    ) -> None:
        nodes = [_site_node(compiled, fault) for fault in faults]
        site_ids = np.array(nodes, dtype=np.int64)
        in_union = np.zeros(compiled.n_nodes, dtype=bool)
        if nodes:
            in_union[np.concatenate([cone_of(node) for node in set(nodes)])] = True
        union_ids = np.flatnonzero(in_union)
        # Buffer membership: every evaluated node, every site, and every
        # fanin an evaluated gate reads (so gathers hit one buffer).
        union_fanins = tables.fanin_pad[union_ids]
        in_buf = in_union.copy()
        in_buf[site_ids] = True
        in_buf[union_fanins] = True
        buf_ids = np.flatnonzero(in_buf)
        pos = np.zeros(compiled.n_nodes, dtype=np.int64)
        pos[buf_ids] = np.arange(buf_ids.size)
        self.n_buf = int(buf_ids.size)
        self.boundary_ids = buf_ids[~in_union[buf_ids]]
        self.boundary_pos = pos[self.boundary_ids]
        # Cone-union schedule: union nodes sorted by (level, type, arity)
        # and cut into groups where the key changes, with fanin ids
        # rewritten to buffer positions.
        levels = tables.levels
        order = np.argsort(tables.group_key[union_ids], kind="stable")
        ordered = union_ids[order]
        keys = tables.group_key[ordered]
        out_pos = pos[ordered]
        fanin_pos = pos[union_fanins[order]]
        starts = np.flatnonzero(np.diff(keys, prepend=-1)).tolist()
        level_groups: list[tuple[int, list[tuple[GateType, np.ndarray, np.ndarray]]]] = []
        for lo, hi in zip(starts, starts[1:] + [ordered.size]):
            node = int(ordered[lo])
            level = int(levels[node])
            group = (
                tables.gate_types[node],
                out_pos[lo:hi],
                np.ascontiguousarray(fanin_pos[lo:hi, : tables.arity[node]]),
            )
            if level_groups and level_groups[-1][0] == level:
                level_groups[-1][1].append(group)
            else:
                level_groups.append((level, [group]))
        self.level_groups = level_groups
        # Observation points: only POs inside the union (or forced as a
        # site) can diverge from the fault-free values.
        observable = in_union.copy()
        observable[site_ids] = True
        self.out_ids = tables.output_ids[observable[tables.output_ids]]
        self.out_pos = pos[self.out_ids]
        # Per-fault injection spec, one row per fault, in the column
        # order _index_forcings unpacks.  `evaluated` marks sites inside
        # the union, whose rows must be re-forced after their level
        # evaluates.  Branch forced values depend on the fault-free
        # values, so only the structure is kept.
        spec = np.array(
            [
                pos[site_ids],
                [fault.value for fault in faults],
                [fault.site.is_branch for fault in faults],
                [fault.site.pin or 0 for fault in faults],
                levels[site_ids],
                in_union[site_ids],
                site_ids,
                tables.arity[site_ids],
                tables.type_arity[site_ids],
            ],
            dtype=np.int64,
        ).T
        self.tables = tables
        self._index_forcings(spec)

    def _index_forcings(self, spec: np.ndarray) -> None:
        """Build the forcing tables from one spec row per fault: the
        branch forcings grouped by (gate type, arity) so each group
        re-evaluates in one kernel call, and the ``(site rows, fault
        rows)`` to re-force per level.  A branch fault's site is the
        reading gate, so its node, arity and key are the gate's."""
        self.spec = spec
        self.n_faults = len(spec)
        branches: dict[int, tuple[int, list, list, list, list]] = {}
        reforce: dict[int, tuple[list, list]] = {}
        for row, (site_row, stuck, branch, pin, level, evaluated, node, arity, key) in (
            enumerate(spec.tolist())
        ):
            if branch:
                group = branches.get(key)
                if group is None:
                    group = branches[key] = (arity, [], [], [], [])
                _, rows, pins, stucks, gates = group
                # The faulty pin's row in the group's flattened gather.
                pins.append(len(rows) * arity + pin)
                rows.append(row)
                stucks.append(stuck)
                gates.append(node)
            if evaluated:
                site_rows, rows = reforce.setdefault(level, ([], []))
                site_rows.append(site_row)
                rows.append(row)
        tables = self.tables
        self.branch_groups = [
            (
                tables.gate_types[gates[0]],
                np.array([rows, pins, stucks], dtype=np.int64),
                tables.fanin_pad[gates, :arity],
            )
            for arity, rows, pins, stucks, gates in branches.values()
        ]
        self.reforce = {
            level: np.array(pair, dtype=np.int64) for level, pair in reforce.items()
        }

    def subset(self, rows: Sequence[int]) -> "_BatchPlan":
        """A plan for the faults at ``rows`` of this plan's batch.

        The expensive structure (cone union, buffer layout, level
        groups, observation points) is *shared* with the parent — the
        union is a superset of the survivors' union, which is correct
        because fault rows are independent: nodes only reachable from
        dropped faults evaluate to fault-free values on every surviving
        row and contribute nothing at the outputs.  Only the forcing
        tables are rebuilt for the survivors, so subsetting after fault
        dropping is O(batch) instead of a cone-union rebuild.
        """
        rows = [int(row) for row in rows]
        if len(set(rows)) != len(rows) or not all(
            0 <= row < self.n_faults for row in rows
        ):
            raise ValueError(f"invalid subset rows {rows!r} of {self.n_faults}")
        clone = _BatchPlan.__new__(_BatchPlan)
        clone.tables = self.tables
        clone.n_buf = self.n_buf
        clone.boundary_pos = self.boundary_pos
        clone.boundary_ids = self.boundary_ids
        clone.level_groups = self.level_groups
        clone.out_pos = self.out_pos
        clone.out_ids = self.out_ids
        clone._index_forcings(self.spec[rows])
        return clone

    def _forced(self, good: np.ndarray, m: int) -> np.ndarray:
        """The forced state row of every fault, ``(n_faults, m *
        n_words)``, against fault-free state ``good``.

        A stem fault pins its net to the stuck value; a branch fault
        re-evaluates the reading gate with the faulty pin stuck.  The
        stuck value is always *known* (every care bit set): the defect
        pins the net whatever the machine knows elsewhere, while X on
        the healthy pins of a branch gate propagates through it.
        """
        n_words = good.shape[1] // m
        stuck_rows = np.zeros((2, good.shape[1]), dtype=np.uint64)
        stuck_rows[1, :n_words] = _ALL_ONES
        stuck_rows[:, n_words:] = _ALL_ONES
        forced = stuck_rows[self.spec[:, _SPEC_STUCK]]
        for gtype, (rows, pins, stuck), fanin_ids in self.branch_groups:
            fanins = good[fanin_ids]
            fanins.reshape(-1, good.shape[1])[pins] = stuck_rows[stuck]
            forced[rows] = eval_gates(gtype, fanins, m, axis=1)
        return forced

    # repro: allow[kernel-purity] O(depth) level walk; each group and each level's re-forcing is word-parallel
    @kernel
    def detect(self, good: np.ndarray, m: int) -> np.ndarray:
        """Per-fault detection words against fault-free state ``good``.

        ``good`` has shape ``(n_nodes, m * n_words)`` with ``m`` planes
        side by side (see :func:`~repro.circuit.gates.eval_gates`); the
        result has shape ``(n_faults, n_words)`` with a bit set where
        some primary output differs from the fault-free value (tail bits
        unmasked).  At ``m = 2`` an output counts only where it is
        **known on both machines and differs** — the pessimistic tester
        view: an X on either side would mask at the compactor, so
        3-valued coverage is ≤ 2-valued coverage, with equality on
        X-free input.
        """
        n_words = good.shape[1] // m
        if not self.out_pos.size:
            return np.zeros((self.n_faults, n_words), dtype=np.uint64)
        buf = np.empty((self.n_buf, self.n_faults, good.shape[1]), dtype=np.uint64)
        if self.boundary_pos.size:
            buf[self.boundary_pos] = good[self.boundary_ids][:, None, :]
        forced = self._forced(good, m)
        buf[self.spec[:, _SPEC_ROW], np.arange(self.n_faults, dtype=np.int64)] = forced
        reforce = self.reforce
        for level, groups in self.level_groups:
            for gtype, out_pos, fanin_pos in groups:
                # Gather shape: (group size, arity, batch, m * n_words).
                buf[out_pos] = eval_gates(gtype, buf[fanin_pos], m, axis=1)
            if level in reforce:
                positions, rows = reforce[level]
                buf[positions, rows] = forced[rows]
        faulty = buf[self.out_pos]
        good_out = good[self.out_ids][:, None, :]
        diff = faulty ^ good_out
        if m == 2:
            diff = diff[..., :n_words] & faulty[..., n_words:] & good_out[..., n_words:]
        return np.bitwise_or.reduce(diff, axis=0)


class BatchFaultSimulator:
    """Batched stuck-at fault simulator bound to one circuit.

    The compiled circuit, per-node cones and batch-order keys, and
    per-batch schedules are all cached, so repeated calls (one per
    Detection Matrix row, one per GA fitness evaluation, ...) only pay
    for numpy work.
    """

    def __init__(
        self,
        circuit: Circuit,
        batch_size: int = DEFAULT_BATCH_SIZE,
        row_chunk_words: int = DEFAULT_ROW_CHUNK_WORDS,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if row_chunk_words < 1:
            raise ValueError(
                f"row_chunk_words must be >= 1, got {row_chunk_words}"
            )
        self.compiled = CompiledCircuit(circuit)
        self.circuit = circuit
        self.batch_size = batch_size
        self.row_chunk_words = row_chunk_words
        self._tables = _NodeTables(self.compiled)
        self._cone_cache: dict[int, np.ndarray] = {}
        self._order_key_cache: dict[int, tuple[int, int, int]] = {}
        self._plan_cache: OrderedDict[tuple[Fault, ...], _BatchPlan] = OrderedDict()
        self._good_buf: np.ndarray | None = None
        #: Plan economics, exposed for tests and perf forensics: full
        #: cone-union constructions vs cache hits vs O(batch) subsets.
        self.plan_builds = 0
        self.plan_cache_hits = 0
        self.plan_subsets = 0
        #: Throughput counter: pattern-axis words per fault-free pass.
        self.words_simulated = 0
        #: Work counter: fault × word cells through the fault machine
        #: (:meth:`_BatchPlan.detect`) of this simulator's queries.
        self.detect_cells = 0
        # Telemetry stays collector-based: the hot loops above touch
        # plain ints only, and a registry samples them at scrape time.
        self._metrics = None

    def attach_metrics(self, metrics) -> None:
        """Export this simulator's counters through ``metrics`` (a
        :class:`repro.obs.MetricsRegistry`).

        Registers a scrape-time collector over the plain ``int``
        counters, so the simulate/scan hot paths stay instruction-
        identical whether telemetry is on or off.  The registry holds
        the collector weakly — it dies with the simulator.  Counters
        from several simulators on one registry sum into one series.
        """
        if metrics is None or not getattr(metrics, "enabled", False):
            return
        if self._metrics is metrics:
            return
        self._metrics = metrics
        metrics.register_collector(self._metric_samples)

    def _metric_samples(self):
        from repro.obs.metrics import Sample

        rows = (
            ("repro_sim_plan_builds_total", self.plan_builds,
             "Cone-union batch plans compiled."),
            ("repro_sim_plan_cache_hits_total", self.plan_cache_hits,
             "Batch plans served from the LRU plan cache."),
            ("repro_sim_plan_subsets_total", self.plan_subsets,
             "O(batch) plan subsets taken when fault dropping retires faults."),
            ("repro_sim_words_simulated_total", self.words_simulated,
             "Pattern-axis 64-bit words through fault-free simulation."),
            ("repro_sim_detect_cells_total", self.detect_cells,
             "Fault x word cells through fault-machine simulation."),
        )
        return [Sample(name, "counter", (), value, help) for name, value, help in rows]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def plan_for(self, faults: Sequence[Fault]) -> _BatchPlan:
        """The compiled cone-union schedule for one fault batch.

        Public accessor over the LRU plan cache, so engines layered on
        the simulator — the batch PODEM's implication step, drop loops
        in :mod:`repro.atpg.engine` — share the same levelized
        schedules (and the same cache economics) as the detection
        queries instead of recompiling cone unions on the side.
        """
        return self._plan(tuple(faults))

    def detection_matrix(
        self, patterns: PatternsLike, faults: Sequence[Fault]
    ) -> np.ndarray:
        """Boolean matrix ``(n_patterns, n_faults)``: entry ``[p, f]`` is
        True iff pattern ``p`` detects fault ``f``."""
        carrier = self._pack(patterns)
        n_patterns = carrier.n_patterns
        result = np.zeros((n_patterns, len(faults)), dtype=bool)
        if not n_patterns or not faults:
            return result
        good = self._good_values(carrier.words, carrier.m)
        for indices, batch in self._batches(faults):
            detect = self._run_detect(self._plan(batch), good, carrier.m)
            bits = np.unpackbits(
                np.ascontiguousarray(detect).view(np.uint8).reshape(len(batch), -1),
                axis=1,
                bitorder="little",
            )
            result[:, indices] = bits[:, :n_patterns].astype(bool).T
        return result

    def detected(
        self, patterns: PatternsLike, faults: Sequence[Fault]
    ) -> list[bool]:
        """Per-fault flag: does *any* pattern detect the fault?  The
        detected-or-not view of a one-row :meth:`first_detection_rows`
        scan, so a fault stops being simulated once a word detects it."""
        row = next(self.first_detection_rows([patterns], faults))
        return detected_mask(row).tolist()

    def first_detection_index(
        self, patterns: PatternsLike, faults: Sequence[Fault]
    ) -> list[int | None]:
        """For each fault, the index of the first detecting pattern
        (``None`` if undetected): the one-row view of
        :meth:`first_detection_rows`."""
        row = next(self.first_detection_rows([patterns], faults))
        return [
            int(offset) if hit else None
            for offset, hit in zip(row.tolist(), detected_mask(row).tolist())
        ]

    def fault_coverage(
        self, patterns: PatternsLike, faults: Sequence[Fault]
    ) -> float:
        """Fraction of ``faults`` detected by ``patterns`` (0..1)."""
        if not faults:
            return 1.0
        flags = self.detected(patterns, faults)
        return sum(flags) / len(faults)

    def detection_matrix_rows(
        self,
        pattern_sets: Iterable[PatternsLike],
        faults: Sequence[Fault],
        row_chunk_words: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Stream Detection Matrix rows: one boolean ``(n_faults,)`` row
        per pattern set, ``row[f]`` True iff some pattern detects fault
        ``f`` — the detected-or-not view of :meth:`first_detection_rows`,
        whose scan (and arguments) it shares."""
        for row in self.first_detection_rows(pattern_sets, faults, row_chunk_words):
            yield detected_mask(row)

    def first_detection_rows(
        self,
        pattern_sets: Iterable[PatternsLike],
        faults: Sequence[Fault],
        row_chunk_words: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Stream first-detection rows: one ``(n_faults,)`` row per
        pattern set, ``row[f]`` the index of the first pattern that
        detects fault ``f``, or the dtype's max if none does.  Every row
        has dtype :func:`offset_dtype` of the longest pattern set
        (``uint8`` while no set exceeds 255 patterns).

        The fault batching is fixed up front, so every row reuses the
        same cached cone-union schedules.  ``row_chunk_words`` (default:
        the simulator's) is the word budget of one fault-machine call at
        full batch width: a call simulates at most ``row_chunk_words ×
        batch_size`` fault × word cells.  Rows are packed word-aligned
        into chunks of at most ``CHUNK_BUDGETS × row_chunk_words`` words
        (a longer row is a chunk of its own), and each chunk pays one
        fault-free simulation for all its rows.  Each fault batch then
        scans the chunk offset-major with per-row fault dropping
        (:meth:`_scan_rows`): a fault stops being simulated once every
        row that still has unscanned words has detected it, and a row
        stops being scanned once it has detected every fault still
        simulated.  Offsets are the same under any budget and any
        chunking; one-word rows scan every fault × word cell, exactly as
        an unchunked schedule does.
        """
        carriers = [self._pack(patterns) for patterns in pattern_sets]
        dtype = offset_dtype(max((c.n_patterns for c in carriers), default=0))
        yield from self._offset_rows(carriers, faults, dtype, row_chunk_words)

    def _offset_rows(
        self,
        carriers: list[PackedPatterns],
        faults: Sequence[Fault],
        dtype: np.dtype,
        row_chunk_words: int | None = None,
    ) -> Iterator[np.ndarray]:
        """:meth:`first_detection_rows` over packed rows, at a given
        offset ``dtype`` (a worker shares its table's dtype)."""
        faults = list(faults)
        budget = (
            self.row_chunk_words if row_chunk_words is None else row_chunk_words
        )
        if budget < 1:
            raise ValueError(f"row_chunk_words must be >= 1, got {budget}")
        limit = CHUNK_BUDGETS * budget
        order, plans = self._batch_plans(faults)
        chunk: list[PackedPatterns] = []
        chunk_words = 0
        for carrier in carriers:
            if chunk and chunk_words + carrier.n_words > limit:
                yield from self._row_chunk(chunk, order, plans, budget, dtype)
                chunk, chunk_words = [], 0
            chunk.append(carrier)
            chunk_words += carrier.n_words
        if chunk:
            yield from self._row_chunk(chunk, order, plans, budget, dtype)

    def _row_chunk(
        self,
        chunk: list[PackedPatterns],
        order: np.ndarray,
        plans: list[_BatchPlan],
        budget: int,
        dtype: np.dtype,
    ) -> Iterator[np.ndarray]:
        """Simulate one word-aligned chunk of packed rows together and
        yield its per-row first-detection rows in order.  ``plans``
        cover the faults in batch order; ``order`` maps batch order back
        to the caller's fault columns."""
        n_faults = order.size
        sentinel = np.iinfo(dtype).max
        # A fresh table per chunk: the yielded rows are views of it that
        # no later chunk touches.
        rows = np.full((len(chunk), n_faults), sentinel, dtype=dtype)
        non_empty = [index for index, c in enumerate(chunk) if c.n_words]
        if non_empty and n_faults:
            pieces = [chunk[index] for index in non_empty]
            m = pieces[0].m
            lengths = np.array([c.n_words for c in pieces], dtype=np.int64)
            starts = np.cumsum(lengths) - lengths
            if len(pieces) == 1:
                # A single row passes through without a copy (TPG
                # evolution banks arrive packed).
                words = pieces[0].words
            else:
                # Word-aligned join, plane by plane.
                width = pieces[0].width
                words = np.concatenate(
                    [p.words.reshape(width, m, -1) for p in pieces], axis=2
                ).reshape(width, -1)
            good = self._good_values(words, m)
            mask = np.concatenate([p.tail_mask() for p in pieces])
            # Every (row, word offset) pair of the chunk, offset-major:
            # all rows' word 0, then all rows' word 1, and so on.
            offsets = np.arange(int(lengths.max()))
            pair_offset, pair_row = np.nonzero(offsets[:, None] < lengths)
            pairs = (pair_row, starts[pair_row] + pair_offset, pair_offset * 64)
            found = np.full((len(pieces), n_faults), sentinel, dtype=dtype)
            column = 0
            for plan in plans:
                self._scan_rows(
                    plan, good, m, mask, pairs, budget,
                    found[:, column : column + plan.n_faults],
                )
                column += plan.n_faults
            rows[np.array(non_empty)[:, None], order] = found
        yield from rows

    def _scan_rows(
        self,
        plan: _BatchPlan,
        good: np.ndarray,
        m: int,
        mask: np.ndarray,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
        budget: int,
        first: np.ndarray,
    ) -> None:
        """Fill ``first`` (``(n_rows, plan.n_faults)``, all sentinel)
        with one fault batch's per-row first-detection offsets over a
        chunk, by a budgeted offset-major scan with fault dropping.

        ``pairs`` is ``(row, chunk word column, first pattern of the
        word)`` per word of the chunk, in scan order.  Each call
        simulates the next ``budget × batch_size // live`` pending
        columns for the ``live`` faults still simulated, so every call
        carries at most ``budget × batch_size`` fault × word cells, and
        about that many while enough columns are pending (a
        near-constant call size keeps the allocator from fragmenting).
        A hit's offset is its word's first pattern plus the lowest set
        bit of the masked detect word; a cell keeps the least offset
        seen.  After each call a fault that every row with pending words
        has detected is retired (an O(batch) plan subset), and the
        pending words of a row that has detected every live fault are
        dropped.  Neither can change an offset: a row's words are
        scanned in order, so a row that has detected a fault has
        already scanned every earlier word, and a retired fault or a
        dropped row has no first detection left to find.
        """
        pending_row, pending_col, pending_base = pairs
        live = np.arange(plan.n_faults)
        while pending_row.size:
            take = budget * self.batch_size // live.size
            row, col, base = pending_row[:take], pending_col[:take], pending_base[:take]
            pending_row = pending_row[take:]
            pending_col = pending_col[take:]
            pending_base = pending_base[take:]
            if (np.diff(col) == 1).all():
                # One run of adjacent words (always so for one-word
                # rows): at m = 1, simulate a view, not a gathered copy.
                window = _word_columns(good, m, slice(col[0], col[-1] + 1))
            else:
                window = _word_columns(good, m, col)
            words = self._run_detect(plan, window, m) & mask[col]
            seen = first[:, live]
            fault, pair = np.nonzero(words)
            if fault.size:
                offset = base[pair] + _low_bit_index(words[fault, pair])
                np.minimum.at(seen, (row[pair], fault), offset.astype(first.dtype))
                first[:, live] = seen
            waiting = np.unique(pending_row)
            open_found = detected_mask(seen[waiting])
            retire = open_found.all(axis=0)
            finished = waiting[open_found[:, ~retire].all(axis=1)]
            if finished.size:
                keep = ~np.isin(pending_row, finished)
                pending_row = pending_row[keep]
                pending_col = pending_col[keep]
                pending_base = pending_base[keep]
            if pending_row.size and retire.any():
                survivors = np.flatnonzero(~retire)
                plan = plan.subset(survivors)
                self.plan_subsets += 1
                live = live[survivors]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _pack(self, patterns: PatternsLike) -> PackedPatterns:
        """The packed carrier for one pattern argument; its ``m`` is the
        plane count every later step runs at (the three-valued engine
        packs planes instead)."""
        return as_packed(patterns, self.compiled.n_inputs)

    def _run_detect(self, plan: _BatchPlan, good: np.ndarray, m: int) -> np.ndarray:
        """:meth:`_BatchPlan.detect`, counting its fault × word cells."""
        self.detect_cells += plan.n_faults * (good.shape[1] // m)
        return plan.detect(good, m)

    @kernel
    def _good_values(self, words: np.ndarray, m: int) -> np.ndarray:
        """Fault-free state of every node for packed input ``words``
        with ``m`` planes, in a buffer reused across calls."""
        if self._good_buf is None or self._good_buf.shape[1] != words.shape[1]:
            self._good_buf = np.empty(
                (self.compiled.n_nodes, words.shape[1]), dtype=np.uint64
            )
        self.words_simulated += words.shape[1] // m
        return self.compiled.simulate(words, m, out=self._good_buf)

    def _batches(
        self, faults: Sequence[Fault]
    ) -> list[tuple[list[int], tuple[Fault, ...]]]:
        """Cut ``faults`` into ``(caller indices, fault tuple)`` batches
        in cone-local order — the one batching routine of every query.

        Faults are stably sorted by their site node's order key
        (reachable-PO bitmask, level, node id), so batch-mates share
        most of their output cones and each batch's cone union stays
        small.  Fault rows are independent, so no answer depends on the
        order; callers scatter results back through the indices.
        """
        compiled = self.compiled
        keys = [self._order_key(_site_node(compiled, f)) for f in faults]
        order = sorted(range(len(faults)), key=keys.__getitem__)
        batches = []
        for start in range(0, len(order), self.batch_size):
            indices = order[start : start + self.batch_size]
            batches.append((indices, tuple(faults[i] for i in indices)))
        return batches

    def _batch_plans(
        self, faults: Sequence[Fault]
    ) -> tuple[np.ndarray, list[_BatchPlan]]:
        """Every batch plan for ``faults`` plus the batch-order -> caller
        column map, as the detection-row paths consume them."""
        batches = self._batches(faults)
        order = np.array(
            [i for indices, _ in batches for i in indices], dtype=np.int64
        )
        return order, [self._plan(batch) for _, batch in batches]

    def _cone(self, node_id: int) -> np.ndarray:
        cone = self._cone_cache.get(node_id)
        if cone is None:
            cone = np.array(self.compiled.output_cone_ids(node_id), dtype=np.int64)
            self._cone_cache[node_id] = cone
        return cone

    def _order_key(self, node_id: int) -> tuple[int, int, int]:
        """Batch-order key of a site node: (bitmask of the POs its
        output cone reaches, level, node id)."""
        key = self._order_key_cache.get(node_id)
        if key is None:
            outputs = self.compiled.output_ids
            reached = np.isin(outputs, self._cone(node_id)) | (outputs == node_id)
            mask = int.from_bytes(
                np.packbits(reached, bitorder="little").tobytes(), "little"
            )
            key = (mask, int(self.compiled.node_levels[node_id]), node_id)
            self._order_key_cache[node_id] = key
        return key

    def _plan(self, faults: tuple[Fault, ...]) -> _BatchPlan:
        plan = self._plan_cache.get(faults)
        if plan is None:
            plan = _BatchPlan(self.compiled, faults, self._cone, self._tables)
            self.plan_builds += 1
            self._plan_cache[faults] = plan
            while len(self._plan_cache) > PLAN_CACHE_SIZE:
                self._plan_cache.popitem(last=False)
        else:
            self.plan_cache_hits += 1
            self._plan_cache.move_to_end(faults)
        return plan


# ----------------------------------------------------------------------
# opt-in multiprocessing path (row-parallel Detection Matrix rows)
# ----------------------------------------------------------------------


class _SharedRowState:
    """Read-only state every worker needs: the packed pattern rows plus
    the simulator (circuit compiled, fault-batch plans pre-built).

    On ``fork`` platforms the parent builds this once, backs the word
    array with a ``multiprocessing.shared_memory`` block, and publishes
    it as a module global *before* spawning the pool — children inherit
    the mapping, so job payloads carry only row indices and nothing is
    re-pickled or re-compiled per job.  On spawn platforms the same
    object is reconstructed once per worker from pickled pieces (the
    fallback documented on :func:`parallel_detection_rows`).
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: list[Fault],
        batch_size: int,
        words: np.ndarray,
        row_word_starts: np.ndarray,
        row_pattern_counts: np.ndarray,
    ) -> None:
        self.circuit = circuit
        self.faults = faults
        self.batch_size = batch_size
        self.words = words
        self.row_word_starts = row_word_starts  # (n_rows + 1,) word offsets
        self.row_pattern_counts = row_pattern_counts
        self._simulator: BatchFaultSimulator | None = None

    def simulator(self) -> BatchFaultSimulator:
        if self._simulator is None:
            self._simulator = BatchFaultSimulator(
                self.circuit, batch_size=self.batch_size
            )
        return self._simulator

    def prebuild_plans(self) -> None:
        """Compile the circuit and every fault-batch plan now (parent
        side, before forking) so children inherit them read-only.

        Goes through the same :meth:`BatchFaultSimulator._batch_plans`
        call as :meth:`~BatchFaultSimulator.detection_matrix_rows`, so
        a worker's rows find every plan in the inherited cache."""
        self.simulator()._batch_plans(self.faults)

    def row(self, index: int) -> PackedPatterns:
        lo = int(self.row_word_starts[index])
        hi = int(self.row_word_starts[index + 1])
        return PackedPatterns(
            self.words[:, lo:hi], int(self.row_pattern_counts[index])
        )

    def rows(self, start: int, stop: int) -> list[PackedPatterns]:
        return [self.row(index) for index in range(start, stop)]


_shared_row_state: _SharedRowState | None = None


def _init_spawned_worker(
    circuit: Circuit,
    faults: list[Fault],
    batch_size: int,
    words: np.ndarray,
    row_word_starts: np.ndarray,
    row_pattern_counts: np.ndarray,
) -> None:
    """Pool initializer for the pickle fallback: rebuild the shared
    state once per worker (not once per job)."""
    global _shared_row_state
    _shared_row_state = _SharedRowState(
        circuit, faults, batch_size, words, row_word_starts, row_pattern_counts
    )


def _worker_row_range(job: tuple[int, int]) -> tuple[int, np.ndarray]:
    """Simulate first-detection rows ``[start, stop)`` against the
    shared (fork-inherited or initializer-rebuilt) pattern state, at the
    whole table's offset dtype."""
    start, stop = job
    state = _shared_row_state
    assert state is not None, "worker pool not initialised"
    dtype = offset_dtype(state.row_pattern_counts.max(initial=0))
    table = np.empty((stop - start, len(state.faults)), dtype=dtype)
    rows = state.simulator()._offset_rows(state.rows(start, stop), state.faults, dtype)
    for index, row in enumerate(rows):
        table[index] = row
    return start, table


def _row_jobs(n_rows: int, workers: int) -> list[tuple[int, int]]:
    """Split ``n_rows`` into ``(start, stop)`` jobs, ~4 per worker.

    Jobs are index ranges into the shared packed-row state — their
    pickled payload is O(1) per job regardless of how many patterns the
    rows hold (the regression suite pins this).
    """
    chunk = max(1, -(-n_rows // (workers * 4)))
    return [
        (start, min(start + chunk, n_rows)) for start in range(0, n_rows, chunk)
    ]


def _pack_rows(
    pattern_sets: Sequence[Sequence[BitVector] | PackedPatterns], width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack every row word-aligned into one contiguous buffer; returns
    ``(words, row_word_starts, row_pattern_counts)``."""
    packed_rows = [as_packed(patterns, width) for patterns in pattern_sets]
    starts = np.zeros(len(packed_rows) + 1, dtype=np.int64)
    counts = np.array([p.n_patterns for p in packed_rows], dtype=np.int64)
    for index, packed in enumerate(packed_rows):
        starts[index + 1] = starts[index] + packed.n_words
    total_words = int(starts[-1])
    words = np.empty((width, total_words), dtype=np.uint64)
    for index, packed in enumerate(packed_rows):
        words[:, starts[index] : starts[index + 1]] = packed.words
    return words, starts, counts


def parallel_detection_rows(
    circuit: Circuit,
    pattern_sets: Sequence[Sequence[BitVector] | PackedPatterns],
    faults: Sequence[Fault],
    workers: int,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> np.ndarray:
    """Build the ``(n_rows, n_faults)`` first-detection table (see
    :meth:`BatchFaultSimulator.first_detection_rows`) with a process
    pool: rows are independent, so they shard cleanly.

    The pattern rows are packed word-parallel **once** in the parent.
    On ``fork`` start methods the packed words live in a
    ``multiprocessing.shared_memory`` block and the compiled simulator
    (circuit + fault-batch plans) is published as a module global, so
    every worker inherits the read-only state and each job's payload is
    a bare ``(start, stop)`` row range — O(1), not O(n_patterns).  On
    spawn platforms the packed state is pickled once per *worker*
    through the pool initializer (never per job).  Row order (and every
    entry, dtype included) is identical to the serial path.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    packed_rows = [as_packed(patterns, circuit.n_inputs) for patterns in pattern_sets]
    n_rows = len(packed_rows)
    dtype = offset_dtype(max((p.n_patterns for p in packed_rows), default=0))
    table = np.full((n_rows, len(faults)), np.iinfo(dtype).max, dtype=dtype)
    if n_rows == 0 or not faults:
        return table
    if workers == 1:
        simulator = BatchFaultSimulator(circuit, batch_size=batch_size)
        for row, values in enumerate(
            simulator.first_detection_rows(packed_rows, faults)
        ):
            table[row] = values
        return table
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    words, row_word_starts, row_pattern_counts = _pack_rows(
        packed_rows, circuit.n_inputs
    )
    jobs = _row_jobs(n_rows, workers)
    use_fork = multiprocessing.get_start_method() == "fork"
    shm = None
    global _shared_row_state
    try:
        if use_fork:
            from multiprocessing import shared_memory

            shm = shared_memory.SharedMemory(
                create=True, size=max(1, words.nbytes)
            )
            shared_words = np.ndarray(
                words.shape, dtype=np.uint64, buffer=shm.buf
            )
            shared_words[:] = words
            state = _SharedRowState(
                circuit,
                list(faults),
                batch_size,
                shared_words,
                row_word_starts,
                row_pattern_counts,
            )
            # Pay compilation + plan construction once, pre-fork: the
            # children inherit the schedules copy-on-write.
            state.prebuild_plans()
            _shared_row_state = state
            pool = ProcessPoolExecutor(max_workers=workers)
        else:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_spawned_worker,
                initargs=(
                    circuit,
                    list(faults),
                    batch_size,
                    words,
                    row_word_starts,
                    row_pattern_counts,
                ),
            )
        with pool:
            for start, rows in pool.map(_worker_row_range, jobs):
                table[start : start + rows.shape[0]] = rows
    finally:
        _shared_row_state = None
        if shm is not None:
            shm.close()
            shm.unlink()
    return table
