"""Batched parallel-pattern fault simulation over fanout-free regions.

The legacy engine (:class:`repro.sim.fault.SerialFaultSimulator`) walks
one fault cone at a time, paying one Python-level gate evaluation per
cone node *per fault*.  This engine needs far fewer machines than
faults, because of the circuit's **fanout-free regions** (FFRs).  A
net is an FFR **root** (a *stem*) when it is a primary output, or when
it is read on a number of gate pins other than one (a fanout stem, a
net one gate reads on two pins, or a dangling net).  Every other net
has exactly one reader and belongs to its reader's region, so the
regions are trees hanging off their roots.  Inside a tree a fault's
effect reaches the root along one path, and no side input of that path
depends on the fault.  So a fault is detected by a pattern exactly when
three things hold on that pattern (critical-path tracing plus stem
simulation: Antreich & Schulz, IEEE TCAD 1987; Maamari & Rajski, IEEE
TCAD 1990):

* **activation** — the good value of the faulty net is known and is
  the complement of the stuck value;
* **criticality** — the path from the fault site (the net for a stem
  fault, the faulty pin for a branch fault) to its root is sensitized
  on the good machine: every gate on it is critical and every other
  fanin of it is a *known* non-controlling value (AND/NAND/OR/NOR),
  every other fanin is known (XOR/XNOR), or it is a NOT/BUF;
* **root detection** — a flip of the root is observed at some primary
  output.

The first two are words of the good machine.  :meth:`BatchFaultSimulator.
_trace` computes every pin's criticality word once per chunk of good
state, walking the compiled circuit's fold buckets (see
:mod:`repro.sim.logic`) backward with one :func:`_critical_pins` kernel
call per bucket: what blocks a flip is a pin's value against its fold
(a known 0 for AND, a known 1 for OR, an X for XOR), never the output
inversion, and a padding pin holds the fold's identity, which lets
every flip through.  The third is the one fault machine left, one
**stem machine** per root:

* stem machines are stacked along a batch axis — every node touched by
  the batch owns a ``(batch, n_words)`` ``uint64`` array, so one numpy
  call propagates 64 patterns for *all* roots in the batch;
* the batch shares one **cone-union schedule**: the union of the roots'
  output cones is cut into fold buckets by the compiled circuit's one
  bucketing rule (:meth:`~repro.sim.logic.CompiledCircuit.fold_buckets`)
  once per distinct root batch (:class:`_BatchPlan`, built from per-node
  arrays with numpy unions and one sort), then reused for every pattern
  set simulated against that batch (e.g. every Detection Matrix row);
  a level costs at most one kernel call per fold and arity bucket;
* batches are **cone-local**: every query forms its batches through one
  routine (:meth:`BatchFaultSimulator._batches`) that groups the faults
  by root and sorts the roots by a rank computed once per simulator —
  (reachable-PO bitmask, level, node) — before chunking, so batch-mates
  share most of their output cones.
  Machine rows are independent, so the order changes no answer;
  results are scattered back to the caller's fault order;
* a stem machine *forces* its root's row to the complement of the good
  row (an X stays X), re-asserted after the root's level evaluates, so
  a root inside another root's cone is still simulated correctly for
  the other rows of the batch;
* a fault's detect word is ``activation & criticality & root detect``
  (:func:`_region_detect`), a few gathers per fault instead of a
  machine per fault;
* one engine serves 0/1 and 0/1/X: the packed carrier picks the plane
  count ``m`` (1 for :class:`~repro.utils.bitvec.PackedPatterns`, 2 for
  :class:`~repro.utils.bitvec.PackedPlanes`), and fault-free
  simulation, tracing, :meth:`_BatchPlan.detect` and the gate kernel
  (:func:`~repro.circuit.gates.eval_gates`) all take it with the state.
  At ``m = 2`` detection is pessimistic: activation and every side
  input must be known, and an output counts only where both machines
  are known and differ, which is exactly what a per-fault 0/1/X machine
  reports.

Every pattern argument is :data:`~repro.utils.bitvec.PlanesLike`:
planes pass through, anything else packs 2-valued, and the
word-parallel :class:`~repro.utils.bitvec.PackedPatterns` the batched
TPG evolution (:meth:`repro.tpg.base.TestPatternGenerator.evolve_batch`)
emits passes straight through ``as_packed`` with **no** re-packing, so
generated sequences go TPG -> simulator without ever existing as Python
int lists.  A multi-row call that mixes carriers lifts its 2-valued
rows to X-free planes.

**Fault dropping**: :meth:`detection_matrix_rows` streams Detection
Matrix rows (one row per pattern set) over one fixed batching, and the
any-pattern queries (:meth:`detected`, :meth:`first_detection_index`,
:meth:`fault_coverage`) are its one-row views, so every "does some
pattern detect this fault" question runs the same scan.  Rows are packed
word-aligned into **chunks** of at most ``CHUNK_BUDGETS ×
row_chunk_words`` words, and each chunk pays one fault-free simulation
and one trace for all its rows.  Each root batch then scans the chunk
**offset-major** — every row's word 0, then every row's word 1, and so
on — in calls of at most ``row_chunk_words × batch_size`` stem-machine
× word cells, with **per-row fault dropping** between calls: a fault
retires once every row that still has unscanned words has detected it,
a root's machine stops once every fault in its region has retired, and
a row stops being scanned once it has detected every fault still live.
One-word rows have nothing to drop and scan every cell.  A shrinking
batch *subsets* its compiled schedule (:meth:`_BatchPlan.subset` — an
index-mask filter over the forced rows) instead of re-running the
cone-union/bucketing construction for the survivors.
The scan records each (row, fault) cell's **first detecting pattern**
as it goes (:meth:`first_detection_rows`): a row's words are visited
in order, so its first non-zero detect word and that word's lowest set
bit are the first detection; the Detection Matrix row is the
detected-or-not view of those offsets.  The ``detect_cells`` counter
counts stem-machine × word cells.

:func:`parallel_detection_rows` builds the whole first-detection table
through the caller's simulator, or, for an opt-in ``workers=N``, over a
process pool whose workers each build a simulator with the caller's
settings: the packed rows reach every worker once, through the pool
initializer, so jobs carry row *ranges*, not pattern data, and each job
hands its work counters back to the caller's simulator.  Both take a
``prior`` table of each row's first ``n`` patterns (a shorter evolution
of the same seeds) and scan only the words past it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.circuit.gates import Fold, eval_gates
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.sim.logic import CompiledCircuit
from repro.utils.bitvec import PackedPatterns, PackedPlanes, PlanesLike, as_packed, as_planes
from repro.utils.kernels import kernel

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Default number of stem machines (FFR roots) simulated per batch.
DEFAULT_BATCH_SIZE = 32

#: Word budget of one detection-row stem-machine call at full batch
#: width: a call simulates at most ``row_chunk_words × batch_size``
#: stem-machine × word cells (64 × 32 = 2048 by default).
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


def _below(offsets: np.ndarray, limit, dtype: np.dtype) -> np.ndarray:
    """``offsets`` where below ``limit`` (broadcast), else ``dtype``'s
    sentinel, as ``dtype``."""
    return np.where(offsets < limit, offsets.astype(dtype), np.iinfo(dtype).max)


def prefix_offsets(offsets: np.ndarray, n_patterns: int) -> np.ndarray:
    """The first-detection table of each row's first ``n_patterns``
    patterns, derived from a table of at least that many: an offset
    below ``n_patterns`` stands, anything else becomes the sentinel,
    at dtype :func:`offset_dtype` of ``n_patterns`` — exactly what a
    scan of the shorter rows returns, with no simulation."""
    return _below(offsets, n_patterns, offset_dtype(n_patterns))


#: A prior first-detection table ``(n, table)``: ``table[r, f]`` is the
#: first pattern among row ``r``'s first ``n`` that detects fault ``f``,
#: or a value ``>= n`` if none does.
Prior = tuple[int, np.ndarray]


def _seed_rows(
    carriers: Sequence[PackedPatterns | PackedPlanes],
    n_faults: int,
    dtype: np.dtype,
    prior: Prior | None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Where a scan of ``carriers`` starts: a table of the offsets a
    ``prior`` already settles (``None`` without one), and each row's
    count of leading words settled.  With ``(n, table)``, a row's
    offsets below ``min(n, its length)`` are settled, every other cell
    is ``dtype``'s sentinel, and its first ``n // 64`` words (all of
    them once ``n`` reaches its length) need no scan."""
    if prior is None:
        return None, np.zeros(len(carriers), dtype=np.int64)
    n, table = prior
    if table.shape != (len(carriers), n_faults):
        raise ValueError(
            f"prior table shape {table.shape} != (rows, faults) "
            f"{(len(carriers), n_faults)}"
        )
    if n < 0 or np.iinfo(table.dtype).max < n:
        raise ValueError(f"a {table.dtype} prior table cannot cover {n} patterns")
    n_patterns = np.array([c.n_patterns for c in carriers], dtype=np.int64)
    n_words = np.array([c.n_words for c in carriers], dtype=np.int64)
    seeded = _below(table, np.minimum(n, n_patterns)[:, None], dtype)
    return seeded, np.where(n >= n_patterns, n_words, n // 64)


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


#: The columns of a region table (one row per fault, built by
#: :meth:`BatchFaultSimulator._regions`): the fault's FFR root (a node
#: id, or the root's row in its batch plan), the net whose good value
#: activates it, the stuck value, and its criticality row in the trace
#: table (a pin, or the all-ones row for a fault on a root).
_ROOT, _SITE, _STUCK, _CRIT = 0, 1, 2, 3

#: Activation flips the good value plane of a stuck-at-1 site.
_STUCK_FILL = np.array([0, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)


class _NodeTables:
    """Per-node and per-pin structure arrays the tracer, the region
    tables and the batch order index, built once per simulator.  Pins
    are numbered gate by gate (``pin_start[g] + p`` is pin ``p`` of gate
    ``g``); row ``n_pins`` of a trace table is the all-ones criticality
    of a root, and row ``n_pins + 1`` takes the padding pins of the
    trace buckets.
    """

    __slots__ = (
        "pin_start", "n_pins", "crit_row", "ffr_root", "trace_buckets", "rank",
    )

    def __init__(self, compiled: CompiledCircuit) -> None:
        arity = compiled.arity
        self.pin_start = np.cumsum(arity) - arity
        self.n_pins = int(arity.sum())
        # Every pin's gate and the net it reads, in pin order.
        pin_gate = np.repeat(np.arange(compiled.n_nodes, dtype=np.int64), arity)
        table = compiled.fanin_table
        pin_net = table[np.arange(table.shape[1]) < arity[:, None]]
        self._index_regions(compiled, pin_gate, pin_net)
        self._rank_roots(compiled, pin_gate, pin_net)

    def _index_regions(
        self, compiled: CompiledCircuit, pin_gate: np.ndarray, pin_net: np.ndarray
    ) -> None:
        """Fanout-free regions: each node's root and criticality row,
        and the backward trace schedule.  A node is a root when it is a
        PO or is read on a number of pins other than one; any other
        node's region, root and criticality are its one reader's."""
        n_nodes = compiled.n_nodes
        arity = compiled.arity
        is_root = np.bincount(pin_net, minlength=n_nodes) != 1
        is_root[compiled.output_ids] = True
        self.crit_row = np.full(n_nodes, self.n_pins, dtype=np.int64)
        self.crit_row[pin_net] = np.arange(self.n_pins)
        self.crit_row[is_root] = self.n_pins
        # Each non-root points at its one reader; pointer doubling walks
        # every chain to its root in O(log depth) gathers.
        root = np.arange(n_nodes, dtype=np.int64)
        root[pin_net] = pin_gate
        root[is_root] = np.flatnonzero(is_root)
        while True:
            hop = root[root]
            if (hop == root).all():
                break
            root = hop
        self.ffr_root = root
        # The simulator's fold buckets from the highest level down: a
        # gate's reader sits on a higher level, so its criticality is
        # final when its bucket runs.  Each bucket: (fold, the gates'
        # criticality rows, padded fanin rows, the pins' trace rows with
        # padding pins on the spare row).
        self.trace_buckets = []
        for _, buckets in reversed(compiled.plan):
            for fold, _, out_ids, fanins in buckets:
                slots = np.arange(fanins.shape[1], dtype=np.int64)
                pins = np.where(
                    slots < arity[out_ids][:, None],
                    self.pin_start[out_ids][:, None] + slots,
                    self.n_pins + 1,
                )
                self.trace_buckets.append((fold, self.crit_row[out_ids], fanins, pins))

    def _rank_roots(
        self, compiled: CompiledCircuit, pin_gate: np.ndarray, pin_net: np.ndarray
    ) -> None:
        """Every node's batch-order rank: nodes sorted by (bitmask of the
        POs its output cone reaches, level, node id), the bitmask read
        as a little-endian integer.  One reverse-topological pass ORs
        each gate's packed reach bytes into its fanins, level by level."""
        n_nodes = compiled.n_nodes
        levels = compiled.node_levels
        outputs = compiled.output_ids
        bit = np.arange(outputs.size)
        reach = np.zeros((n_nodes, -(-outputs.size // 8)), dtype=np.uint8)
        np.bitwise_or.at(reach, (outputs, bit // 8), (1 << bit % 8).astype(np.uint8))
        pin_level = levels[pin_gate]
        by_level = np.argsort(-pin_level, kind="stable")
        bounds = np.flatnonzero(np.diff(pin_level[by_level], prepend=-1) != 0)
        for lo, hi in zip(bounds, np.append(bounds[1:], by_level.size)):
            pins = by_level[lo:hi]
            np.bitwise_or.at(reach, pin_net[pins], reach[pin_gate[pins]])
        # The most significant byte is the last: lexsort's last key is
        # its primary one.
        keys = (np.arange(n_nodes), levels, *reach.T)
        self.rank = np.empty(n_nodes, dtype=np.int64)
        self.rank[np.lexsort(keys)] = np.arange(n_nodes)


@kernel
def _critical_pins(
    fold: Fold, fanins: np.ndarray, gate_crit: np.ndarray, m: int
) -> np.ndarray:
    """Criticality words of every pin of a fold bucket.

    ``fanins`` is the bucket's good fanin state ``(gates, width, m *
    n_words)`` (padding pins hold the fold's identity), ``gate_crit``
    the gates' own criticality ``(gates, n_words)``.  A pin is critical
    where its gate is and every *other* fanin lets a flip through: a
    known 1 for AND, a known 0 for OR, any known value for XOR, so a
    padding pin always does and a one-pin gate passes its criticality
    through; the inversion plays no part.  At ``m = 1`` every value is
    known.  The others' AND is a prefix AND times a suffix AND.
    Result: ``(gates, width, n_words)``.
    """
    n_words = gate_crit.shape[-1]
    width = fanins.shape[1]
    if width == 1 or (fold is Fold.XOR and m == 1):
        return np.repeat(gate_crit[:, None, :], width, axis=1)
    value = fanins[..., :n_words]
    if fold is Fold.AND:
        # value & ~care == 0, so a set value bit is a known 1.
        passing = value
    elif fold is Fold.XOR:
        passing = fanins[..., n_words:]
    elif m == 1:
        passing = ~value
    else:
        passing = value ^ fanins[..., n_words:]
    if width == 2:
        # Each pin's one other pin.
        return passing[:, ::-1] & gate_crit[:, None, :]
    prefix = np.bitwise_and.accumulate(passing, axis=1)
    suffix = np.bitwise_and.accumulate(passing[:, ::-1], axis=1)[:, ::-1]
    crit = np.empty(value.shape, dtype=np.uint64)
    crit[:, 0] = suffix[:, 1]
    crit[:, -1] = prefix[:, -2]
    crit[:, 1:-1] = prefix[:, :-2] & suffix[:, 2:]
    crit &= gate_crit[:, None, :]
    return crit


@kernel
def _region_detect(
    regions: np.ndarray,
    stems: np.ndarray,
    good: np.ndarray,
    crit: np.ndarray,
    m: int,
) -> np.ndarray:
    """Per-fault detect words ``(n_faults, n_words)``: activation &
    criticality & root detection, tail bits unmasked.

    ``regions`` is a region table whose root column holds rows of
    ``stems``, the batch plan's root detect words; ``good`` and
    ``crit`` are the good state and trace table over the same words.
    Activation is a known good value that is the complement of the
    stuck value.
    """
    n_words = stems.shape[1]
    site = good[regions[:, _SITE]]
    words = site[:, :n_words] ^ _STUCK_FILL[regions[:, _STUCK]][:, None]
    if m == 2:
        words &= site[:, n_words:]
    words &= crit[regions[:, _CRIT]]
    words &= stems[regions[:, _ROOT]]
    return words


#: The column of a plan's per-root spec table that :meth:`_BatchPlan.
#: detect` reads: the root's buffer row (the others are its level and
#: whether the cone union evaluates it, so it must be re-forced).
_SPEC_ROW = 0


class _BatchPlan:
    """The compiled cone-union schedule of one tuple of stem machines.

    Built once per distinct root batch and cached by the simulator; the
    expensive structural work (cone unions, fold buckets, buffer
    layout, forcing tables) is paid here so :meth:`detect` is pure
    numpy.
    """

    __slots__ = (
        "roots",
        "n_roots",
        "n_buf",
        "boundary_pos",
        "boundary_ids",
        "levels",
        "out_pos",
        "out_ids",
        "spec",
        "reforce",
    )

    def __init__(
        self,
        compiled: CompiledCircuit,
        roots: Sequence[int],
        cone_of,
    ) -> None:
        site_ids = np.array(roots, dtype=np.int64)
        in_union = np.zeros(compiled.n_rows, dtype=bool)
        if site_ids.size:
            in_union[np.concatenate([cone_of(int(r)) for r in site_ids])] = True
        union_ids = np.flatnonzero(in_union)
        # Buffer membership: every evaluated node, every root, and every
        # fanin row an evaluated gate reads, identity rows included (so
        # gathers hit one buffer).
        in_buf = in_union.copy()
        in_buf[site_ids] = True
        in_buf[compiled.fanin_table[union_ids]] = True
        buf_ids = np.flatnonzero(in_buf)
        pos = np.zeros(compiled.n_rows, dtype=np.int64)
        pos[buf_ids] = np.arange(buf_ids.size)
        self.n_buf = int(buf_ids.size)
        self.boundary_ids = buf_ids[~in_union[buf_ids]]
        self.boundary_pos = pos[self.boundary_ids]
        # Cone-union schedule: the union's fold buckets, with fanin rows
        # rewritten to buffer positions.
        ids, levels = compiled.fold_buckets(union_ids)
        out_pos = pos[ids]
        fanin_pos = pos[compiled.fanin_table[ids]]
        self.levels = [
            (
                level,
                [
                    (fold, invert, out_pos[lo:hi], fanin_pos[lo:hi, :width])
                    for fold, lo, hi, width, invert in buckets
                ],
            )
            for level, buckets in levels
        ]
        # Observation points: only POs inside the union (or forced as a
        # root) can diverge from the fault-free values.
        observable = in_union.copy()
        observable[site_ids] = True
        outputs = compiled.output_ids
        self.out_ids = outputs[observable[outputs]]
        self.out_pos = pos[self.out_ids]
        spec = np.array(
            [pos[site_ids], compiled.node_levels[site_ids], in_union[site_ids]],
            dtype=np.int64,
        ).T
        self._index_forcings(site_ids, spec)

    def _index_forcings(self, roots: np.ndarray, spec: np.ndarray) -> None:
        """Keep the roots and their spec rows, and build the ``(buffer
        rows, machine rows)`` to re-force per level."""
        self.roots = roots
        self.spec = spec
        self.n_roots = len(spec)
        reforce: dict[int, tuple[list, list]] = {}
        for row, (site_row, level, evaluated) in enumerate(spec.tolist()):
            if evaluated:
                site_rows, rows = reforce.setdefault(level, ([], []))
                site_rows.append(site_row)
                rows.append(row)
        self.reforce = {
            level: np.array(pair, dtype=np.int64) for level, pair in reforce.items()
        }

    def subset(self, rows: Sequence[int]) -> "_BatchPlan":
        """A plan for the stem machines at ``rows`` of this plan's batch.

        The expensive structure (cone union, buffer layout, level
        buckets, observation points) is *shared* with the parent — the
        union is a superset of the survivors' union, which is correct
        because machine rows are independent: nodes only reachable from
        dropped roots evaluate to fault-free values on every surviving
        row and contribute nothing at the outputs.  Only the forcing
        tables are rebuilt for the survivors, so subsetting after fault
        dropping is O(batch) instead of a cone-union rebuild.
        """
        rows = [int(row) for row in rows]
        if len(set(rows)) != len(rows) or not all(
            0 <= row < self.n_roots for row in rows
        ):
            raise ValueError(f"invalid subset rows {rows!r} of {self.n_roots}")
        clone = _BatchPlan.__new__(_BatchPlan)
        clone.n_buf = self.n_buf
        clone.boundary_pos = self.boundary_pos
        clone.boundary_ids = self.boundary_ids
        clone.levels = self.levels
        clone.out_pos = self.out_pos
        clone.out_ids = self.out_ids
        clone._index_forcings(self.roots[rows], self.spec[rows])
        return clone

    # repro: allow[kernel-purity] O(depth) level walk; each bucket and each level's re-forcing is word-parallel
    @kernel
    def detect(self, good: np.ndarray, m: int) -> np.ndarray:
        """Per-root detection words against fault-free state ``good``.

        ``good`` has shape ``(n_nodes, m * n_words)`` with ``m`` planes
        side by side (see :func:`~repro.circuit.gates.eval_gates`); the
        result has shape ``(n_roots, n_words)`` with a bit set where a
        flip of the root makes some primary output differ from the
        fault-free value (tail bits unmasked).  Each machine forces its
        root to the complement of the good row, where an X stays X (the
        NOT of the gate kernel).  At ``m = 2`` an output counts only
        where it is **known on both machines and differs** — the
        pessimistic tester view: an X on either side would mask at the
        compactor, so 3-valued coverage is ≤ 2-valued coverage, with
        equality on X-free input.
        """
        n_words = good.shape[1] // m
        if not self.out_pos.size:
            return np.zeros((self.n_roots, n_words), dtype=np.uint64)
        buf = np.empty((self.n_buf, self.n_roots, good.shape[1]), dtype=np.uint64)
        if self.boundary_pos.size:
            buf[self.boundary_pos] = good[self.boundary_ids][:, None, :]
        forced = eval_gates(Fold.AND, 1, good[self.roots][:, None, :], m, axis=1)
        buf[self.spec[:, _SPEC_ROW], np.arange(self.n_roots, dtype=np.int64)] = forced
        reforce = self.reforce
        for level, buckets in self.levels:
            for fold, invert, out_pos, fanin_pos in buckets:
                # Gather shape: (bucket size, width, batch, m * n_words).
                buf[out_pos] = eval_gates(fold, invert, buf[fanin_pos], m, axis=1)
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

    The compiled circuit, its fanout-free regions, per-node cones and
    batch-order ranks, and per-batch stem-machine schedules are all
    cached, so repeated calls (one per Detection Matrix row, one per GA
    fitness evaluation, ...) only pay for numpy work.
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
        self._region_cache: dict[Fault, tuple[int, int, int, int]] = {}
        self._plan_cache: OrderedDict[tuple[int, ...], _BatchPlan] = OrderedDict()
        self._good_buf: np.ndarray | None = None
        #: Plan economics, exposed for tests and perf forensics: full
        #: cone-union constructions vs cache hits vs O(batch) subsets.
        self.plan_builds = 0
        self.plan_cache_hits = 0
        self.plan_subsets = 0
        #: Throughput counter: pattern-axis words per fault-free pass.
        self.words_simulated = 0
        #: Work counter: stem-machine × word cells through the fault
        #: machine (:meth:`_BatchPlan.detect`) of this simulator's
        #: queries — one machine per FFR root, not per fault.
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
             "Stem-machine cone-union batch plans compiled."),
            ("repro_sim_plan_cache_hits_total", self.plan_cache_hits,
             "Batch plans served from the LRU plan cache."),
            ("repro_sim_plan_subsets_total", self.plan_subsets,
             "O(batch) plan subsets taken when fault dropping retires stems."),
            ("repro_sim_words_simulated_total", self.words_simulated,
             "Pattern-axis 64-bit words through fault-free simulation."),
            ("repro_sim_detect_cells_total", self.detect_cells,
             "Stem-machine x word cells through fault-machine simulation."),
        )
        return [Sample(name, "counter", (), value, help) for name, value, help in rows]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def detection_matrix(
        self, patterns: PlanesLike, faults: Sequence[Fault]
    ) -> np.ndarray:
        """Boolean matrix ``(n_patterns, n_faults)``: entry ``[p, f]`` is
        True iff pattern ``p`` detects fault ``f``."""
        carrier = self._pack(patterns)
        n_patterns = carrier.n_patterns
        result = np.zeros((n_patterns, len(faults)), dtype=bool)
        if not n_patterns or not faults:
            return result
        m = carrier.m
        good = self._good_values(carrier.words, m)
        crit = self._trace(good, m)
        for indices, regions, roots in self._batches(faults):
            stems = self._run_detect(self._plan(roots), good, m)
            detect = _region_detect(regions, stems, good, crit, m)
            bits = np.unpackbits(
                detect.view(np.uint8).reshape(len(indices), -1),
                axis=1,
                bitorder="little",
            )
            result[:, indices] = bits[:, :n_patterns].astype(bool).T
        return result

    def detected(
        self, patterns: PlanesLike, faults: Sequence[Fault]
    ) -> list[bool]:
        """Per-fault flag: does *any* pattern detect the fault?  The
        detected-or-not view of a one-row :meth:`first_detection_rows`
        scan, so a fault stops being simulated once a word detects it."""
        row = next(self.first_detection_rows([patterns], faults))
        return detected_mask(row).tolist()

    def first_detection_index(
        self, patterns: PlanesLike, faults: Sequence[Fault]
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
        self, patterns: PlanesLike, faults: Sequence[Fault]
    ) -> float:
        """Fraction of ``faults`` detected by ``patterns`` (0..1)."""
        if not faults:
            return 1.0
        flags = self.detected(patterns, faults)
        return sum(flags) / len(faults)

    def detection_matrix_rows(
        self,
        pattern_sets: Iterable[PlanesLike],
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
        pattern_sets: Iterable[PlanesLike],
        faults: Sequence[Fault],
        row_chunk_words: int | None = None,
        prior: Prior | None = None,
    ) -> Iterator[np.ndarray]:
        """Stream first-detection rows: one ``(n_faults,)`` row per
        pattern set, ``row[f]`` the index of the first pattern that
        detects fault ``f``, or the dtype's max if none does.  Every row
        has dtype :func:`offset_dtype` of the longest pattern set
        (``uint8`` while no set exceeds 255 patterns).

        The batching is fixed up front, so every row reuses the same
        cached cone-union schedules.  ``row_chunk_words`` (default: the
        simulator's) is the word budget of one stem-machine call at full
        batch width: a call simulates at most ``row_chunk_words ×
        batch_size`` stem-machine × word cells.  Rows are packed
        word-aligned into chunks of at most ``CHUNK_BUDGETS ×
        row_chunk_words`` words (a longer row is a chunk of its own),
        and each chunk pays one fault-free simulation and one trace for
        all its rows.  Each root batch then scans the chunk offset-major
        with per-row fault dropping (:meth:`_scan_rows`): a fault
        retires once every row that still has unscanned words has
        detected it, a root's machine stops once its region's faults
        have all retired, and a row stops being scanned once it has
        detected every live fault.  Offsets are the same under any
        budget and any chunking; one-word rows scan every stem-machine
        × word cell, exactly as an unchunked schedule does.

        ``prior`` is ``(n, table)``: the first-detection table of each
        row's first ``n`` patterns (the same rows and faults, any
        unsigned dtype wide enough for ``n``), e.g. the table of a
        shorter evolution of the same seeds.  A row's scan then starts
        at word ``n // 64``: the prefix's offsets are final, a partial
        word is scanned again (keeping the least offset), and faults
        and rows the prefix already settles never reach a stem machine.
        The rows equal a scan without ``prior``, dtype included.
        """
        carriers, dtype = self._pack_rows(pattern_sets)
        yield from self._offset_rows(carriers, faults, dtype, row_chunk_words, prior)

    def _offset_rows(
        self,
        carriers: list[PackedPatterns | PackedPlanes],
        faults: Sequence[Fault],
        dtype: np.dtype,
        row_chunk_words: int | None = None,
        prior: Prior | None = None,
    ) -> Iterator[np.ndarray]:
        """:meth:`first_detection_rows` over packed rows, at a given
        offset ``dtype`` (a pool job keeps the whole table's dtype)."""
        faults = list(faults)
        budget = (
            self.row_chunk_words if row_chunk_words is None else row_chunk_words
        )
        if budget < 1:
            raise ValueError(f"row_chunk_words must be >= 1, got {budget}")
        limit = CHUNK_BUDGETS * budget
        seeded, skips = _seed_rows(carriers, len(faults), dtype, prior)
        # Every batch's (plan, region table), and the batch-order ->
        # caller column map.
        cut = self._batches(faults)
        order = np.concatenate(
            [indices for indices, _, _ in cut] or [np.zeros(0, dtype=np.int64)]
        )
        batches = [(self._plan(roots), regions) for _, regions, roots in cut]
        bounds = []
        start = chunk_words = 0
        for stop, carrier in enumerate(carriers):
            words = carrier.n_words - skips[stop]
            if stop > start and chunk_words + words > limit:
                bounds.append((start, stop))
                start, chunk_words = stop, 0
            chunk_words += words
        if start < len(carriers):
            bounds.append((start, len(carriers)))
        sentinel = np.iinfo(dtype).max
        for start, stop in bounds:
            # A table of the chunk's own: the yielded rows are views of
            # it that no later chunk touches.
            rows = (
                np.full((stop - start, len(faults)), sentinel, dtype=dtype)
                if seeded is None
                else seeded[start:stop]
            )
            yield from self._row_chunk(
                carriers[start:stop], skips[start:stop], rows, order, batches, budget
            )

    def _row_chunk(
        self,
        chunk: list[PackedPatterns | PackedPlanes],
        skips: np.ndarray,
        rows: np.ndarray,
        order: np.ndarray,
        batches: list[tuple[_BatchPlan, np.ndarray]],
        budget: int,
    ) -> Iterator[np.ndarray]:
        """Simulate one word-aligned chunk of packed rows together and
        yield its per-row first-detection rows in order.  ``skips`` are
        the leading words of each row a prior table settled, and
        ``rows`` the chunk's table (caller's fault columns): the offsets
        already settled, sentinel elsewhere, filled in place.
        ``batches`` are ``(plan, region table)`` pairs covering the
        faults in batch order; ``order`` maps batch order back to the
        caller's fault columns."""
        n_faults = order.size
        non_empty = [index for index, c in enumerate(chunk) if c.n_words > skips[index]]
        if non_empty and n_faults:
            pieces = [chunk[index] for index in non_empty]
            skip = skips[non_empty]
            m = pieces[0].m
            width = pieces[0].width
            lengths = np.array([c.n_words for c in pieces], dtype=np.int64) - skip
            starts = np.cumsum(lengths) - lengths
            if len(pieces) == 1 and not skip[0]:
                # A single row passes through without a copy (TPG
                # evolution banks arrive packed).
                words = pieces[0].words
            else:
                # Word-aligned join of the unsettled words, plane by plane.
                words = np.concatenate(
                    [p.words.reshape(width, m, -1)[:, :, s:] for p, s in zip(pieces, skip)],
                    axis=2,
                ).reshape(width, -1)
            good = self._good_values(words, m)
            crit = self._trace(good, m)
            mask = np.concatenate([p.tail_mask()[s:] for p, s in zip(pieces, skip)])
            # Every (row, word offset) pair of the chunk, offset-major:
            # all rows' first unsettled word, then their next, and so on.
            offsets = np.arange(int(lengths.max()))
            pair_offset, pair_row = np.nonzero(offsets[:, None] < lengths)
            pairs = (
                pair_row,
                starts[pair_row] + pair_offset,
                (skip[pair_row] + pair_offset) * 64,
            )
            found = rows[non_empty][:, order]
            column = 0
            for plan, regions in batches:
                self._scan_rows(
                    plan, regions, good, crit, m, mask, pairs, budget,
                    found[:, column : column + len(regions)],
                )
                column += len(regions)
            rows[np.array(non_empty)[:, None], order] = found
        yield from rows

    def _scan_rows(
        self,
        plan: _BatchPlan,
        regions: np.ndarray,
        good: np.ndarray,
        crit: np.ndarray,
        m: int,
        mask: np.ndarray,
        pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
        budget: int,
        first: np.ndarray,
    ) -> None:
        """Fill ``first`` (``(n_rows, len(regions))``: the offsets a
        prior table settled, sentinel elsewhere) with one root batch's
        per-row first-detection offsets over a chunk, by a budgeted
        offset-major scan with fault dropping.

        ``regions`` is the batch's region table (roots as rows of
        ``plan``), ``crit`` the chunk's trace table.  ``pairs`` is
        ``(row, chunk word column, first pattern of the word)`` per word
        of the chunk, in scan order.  Each call simulates the next
        ``budget × batch_size // live`` pending columns for the ``live``
        stem machines still simulated, so every call carries at most
        ``budget × batch_size`` stem-machine × word cells, and about
        that many while enough columns are pending (a near-constant call
        size keeps the allocator from fragmenting).  A hit's offset is
        its word's first pattern plus the lowest set bit of the masked
        detect word; a cell keeps the least offset seen.  Before each
        call (the first included, so what a prior table settles is never
        simulated) a fault that every row with pending words has
        detected is retired, a root whose faults have all retired leaves
        the plan (an O(batch) subset), and the pending words of a row
        that has detected every live fault are dropped.  None can change
        an offset: a row's words are scanned in order after any settled
        prefix, so a row that has detected a fault has already covered
        every earlier pattern, and a retired fault or a dropped row has
        no first detection left to find.
        """
        pending_row, pending_col, pending_base = pairs
        live = np.arange(len(regions))
        while True:
            seen = first[:, live]
            waiting = np.unique(pending_row)
            open_found = detected_mask(seen[waiting])
            retire = open_found.all(axis=0)
            finished = waiting[open_found[:, ~retire].all(axis=1)]
            if finished.size:
                keep = ~np.isin(pending_row, finished)
                pending_row = pending_row[keep]
                pending_col = pending_col[keep]
                pending_base = pending_base[keep]
            if not pending_row.size:
                return
            if retire.any():
                live = live[~retire]
                seen = seen[:, ~retire]
                regions = regions[~retire]
                used = np.unique(regions[:, _ROOT])
                if used.size < plan.n_roots:
                    plan = plan.subset(used)
                    self.plan_subsets += 1
                    regions[:, _ROOT] = np.searchsorted(used, regions[:, _ROOT])
            take = budget * self.batch_size // plan.n_roots
            row, col, base = pending_row[:take], pending_col[:take], pending_base[:take]
            pending_row = pending_row[take:]
            pending_col = pending_col[take:]
            pending_base = pending_base[take:]
            if (np.diff(col) == 1).all():
                # One run of adjacent words (always so for one-word
                # rows): at m = 1, simulate a view, not a gathered copy.
                cols = slice(col[0], col[-1] + 1)
            else:
                cols = col
            window = _word_columns(good, m, cols)
            stems = self._run_detect(plan, window, m)
            words = _region_detect(regions, stems, window, crit[:, cols], m) & mask[col]
            fault, pair = np.nonzero(words)
            if fault.size:
                offset = base[pair] + _low_bit_index(words[fault, pair])
                np.minimum.at(seen, (row[pair], fault), offset.astype(first.dtype))
                first[:, live] = seen

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _pack(self, patterns: PlanesLike) -> PackedPatterns | PackedPlanes:
        """The packed carrier of one pattern argument, width checked; its
        ``m`` is the plane count every later step runs at.  Planes pass
        through (0/1/X); anything else packs 2-valued."""
        if isinstance(patterns, PackedPlanes):
            return as_planes(patterns, self.compiled.n_inputs)
        return as_packed(patterns, self.compiled.n_inputs)

    def _pack_rows(
        self, pattern_sets: Iterable[PlanesLike]
    ) -> tuple[list[PackedPatterns | PackedPlanes], np.dtype]:
        """Every row's carrier and the table's offset dtype.  When any
        row carries planes, the 2-valued rows are lifted to X-free
        planes, so the whole table runs at one ``m``."""
        carriers = [self._pack(patterns) for patterns in pattern_sets]
        if any(carrier.m == 2 for carrier in carriers):
            carriers = [as_planes(c, self.compiled.n_inputs) for c in carriers]
        dtype = offset_dtype(max((c.n_patterns for c in carriers), default=0))
        return carriers, dtype

    def _run_detect(self, plan: _BatchPlan, good: np.ndarray, m: int) -> np.ndarray:
        """:meth:`_BatchPlan.detect`, counting its stem-machine × word
        cells."""
        self.detect_cells += plan.n_roots * (good.shape[1] // m)
        return plan.detect(good, m)

    @kernel
    def _good_values(self, words: np.ndarray, m: int) -> np.ndarray:
        """Fault-free state of every row (nodes, then the identity rows)
        for packed input ``words`` with ``m`` planes, in a buffer reused
        across calls."""
        if self._good_buf is None or self._good_buf.shape[1] != words.shape[1]:
            self._good_buf = np.empty(
                (self.compiled.n_rows, words.shape[1]), dtype=np.uint64
            )
        self.words_simulated += words.shape[1] // m
        self.compiled.simulate(words, m, out=self._good_buf)
        return self._good_buf

    # repro: allow[kernel-purity] O(depth) backward walk over fold buckets; each bucket traces all its pins word-parallel
    @kernel
    def _trace(self, good: np.ndarray, m: int) -> np.ndarray:
        """Every pin's criticality word to its FFR root over fault-free
        state ``good`` (identity rows included): a ``(n_pins + 2,
        n_words)`` table whose row ``n_pins`` (a root's criticality) is
        all ones and whose last row takes the padding pins.  One
        :func:`_critical_pins` call per fold bucket, highest level
        first; a non-root node's criticality is the row of its one
        reading pin.
        """
        tables = self._tables
        crit = np.empty((tables.n_pins + 2, good.shape[1] // m), dtype=np.uint64)
        crit[tables.n_pins] = _ALL_ONES
        for fold, gate_rows, fanin_ids, pin_ids in tables.trace_buckets:
            crit[pin_ids] = _critical_pins(fold, good[fanin_ids], crit[gate_rows], m)
        return crit

    def _regions(self, faults: Sequence[Fault]) -> np.ndarray:
        """The region table of ``faults`` (columns ``_ROOT`` as node
        ids, ``_SITE``, ``_STUCK``, ``_CRIT``).  A stem fault is
        activated at its net and critical as the net is; a branch fault
        is activated at the net its pin reads and critical as the pin
        is, in the reading gate's region."""
        cache = self._region_cache
        tables = self._tables
        index = self.compiled.index
        rows = []
        for fault in faults:
            row = cache.get(fault)
            if row is None:
                net, gate, pin = self.compiled.fault_site(fault)
                if gate is not None:
                    row = (
                        int(tables.ffr_root[gate]),
                        net,
                        fault.value,
                        int(tables.pin_start[gate]) + pin,
                    )
                else:
                    row = (
                        int(tables.ffr_root[net]), net, fault.value,
                        int(tables.crit_row[net]),
                    )
                cache[fault] = row
            rows.append(row)
        return np.array(rows, dtype=np.int64).reshape(len(rows), 4)

    def _batches(
        self, faults: Sequence[Fault]
    ) -> list[tuple[np.ndarray, np.ndarray, tuple[int, ...]]]:
        """Cut ``faults`` into ``(caller indices, region table, root
        tuple)`` batches in cone-local order — the one batching routine
        of every query.

        Faults are grouped by FFR root, and the roots sorted by their
        precomputed rank (reachable-PO bitmask, level, node id) and cut
        ``batch_size`` to a batch, so batch-mates share most of their
        output cones and each batch's cone union stays small.  A batch's
        region table holds its faults' roots as rows of the root tuple.
        Rows are independent, so no answer depends on the order; callers
        scatter results back through the indices.
        """
        regions = self._regions(faults)
        roots = np.unique(regions[:, _ROOT])
        roots = roots[np.argsort(self._tables.rank[roots])]
        position = np.zeros(self.compiled.n_nodes, dtype=np.int64)
        position[roots] = np.arange(roots.size)
        fault_rank = position[regions[:, _ROOT]]
        order = np.argsort(fault_rank, kind="stable")
        firsts = np.arange(0, roots.size, self.batch_size)
        bounds = np.searchsorted(fault_rank[order], np.append(firsts, roots.size))
        batches = []
        for first, lo, hi in zip(firsts.tolist(), bounds[:-1], bounds[1:]):
            indices = order[lo:hi]
            batch = regions[indices]
            batch[:, _ROOT] = fault_rank[indices] - first
            batch_roots = tuple(roots[first : first + self.batch_size].tolist())
            batches.append((indices, batch, batch_roots))
        return batches

    def _cone(self, node_id: int) -> np.ndarray:
        cone = self._cone_cache.get(node_id)
        if cone is None:
            cone = np.array(self.compiled.output_cone_ids(node_id), dtype=np.int64)
            self._cone_cache[node_id] = cone
        return cone

    def _plan(self, roots: tuple[int, ...]) -> _BatchPlan:
        plan = self._plan_cache.get(roots)
        if plan is None:
            plan = _BatchPlan(self.compiled, roots, self._cone)
            self.plan_builds += 1
            self._plan_cache[roots] = plan
            while len(self._plan_cache) > PLAN_CACHE_SIZE:
                self._plan_cache.popitem(last=False)
        else:
            self.plan_cache_hits += 1
            self._plan_cache.move_to_end(roots)
        return plan


# ----------------------------------------------------------------------
# first-detection tables, serial or over a process pool
# ----------------------------------------------------------------------

#: The work counters a pool job hands back to the caller's simulator.
_COUNTERS = ("words_simulated", "detect_cells", "plan_builds", "plan_cache_hits", "plan_subsets")

#: A pool worker's ``(simulator, carriers, faults, dtype, prior)``, set
#: once per worker by :func:`_init_worker`.
_worker_state: tuple | None = None


def _offset_table(
    simulator: BatchFaultSimulator,
    carriers: list[PackedPatterns | PackedPlanes],
    faults: list[Fault],
    dtype: np.dtype,
    prior: Prior | None = None,
) -> np.ndarray:
    """The ``(len(carriers), len(faults))`` first-detection table of
    packed rows through ``simulator``, from ``prior`` if given."""
    table = np.empty((len(carriers), len(faults)), dtype=dtype)
    rows = simulator._offset_rows(carriers, faults, dtype, prior=prior)
    for index, row in enumerate(rows):
        table[index] = row
    return table


def _init_worker(
    circuit: Circuit,
    batch_size: int,
    row_chunk_words: int,
    carriers: list[PackedPatterns | PackedPlanes],
    faults: list[Fault],
    dtype: np.dtype,
    prior: Prior | None = None,
) -> None:
    """Pool initializer: build this worker's simulator with the caller's
    settings, and keep the packed rows and the prior table for its
    jobs."""
    global _worker_state
    simulator = BatchFaultSimulator(
        circuit, batch_size=batch_size, row_chunk_words=row_chunk_words
    )
    _worker_state = (simulator, carriers, faults, dtype, prior)


def _worker_rows(job: tuple[int, int]) -> tuple[int, np.ndarray, list[int]]:
    """Rows ``[start, stop)`` of the table, plus the work counters they
    added to this worker's simulator."""
    start, stop = job
    simulator, carriers, faults, dtype, prior = _worker_state
    if prior is not None:
        prior = (prior[0], prior[1][start:stop])
    before = [getattr(simulator, name) for name in _COUNTERS]
    table = _offset_table(simulator, carriers[start:stop], faults, dtype, prior)
    work = [getattr(simulator, name) - was for name, was in zip(_COUNTERS, before)]
    return start, table, work


def _row_jobs(n_rows: int, workers: int) -> list[tuple[int, int]]:
    """Split ``n_rows`` into ``(start, stop)`` jobs, ~4 per worker.

    Workers receive the packed rows (and any prior table) once, through
    the pool initializer, so a job is a bare row range: its pickled payload is O(1) however
    many patterns the rows hold (the regression suite pins this).
    """
    chunk = max(1, -(-n_rows // (workers * 4)))
    return [
        (start, min(start + chunk, n_rows)) for start in range(0, n_rows, chunk)
    ]


def parallel_detection_rows(
    simulator: BatchFaultSimulator,
    pattern_sets: Sequence[PlanesLike],
    faults: Sequence[Fault],
    workers: int,
    prior: Prior | None = None,
) -> np.ndarray:
    """The ``(n_rows, n_faults)`` first-detection table of
    ``pattern_sets`` (see :meth:`BatchFaultSimulator.first_detection_rows`,
    whose ``prior`` it takes too), built by ``simulator`` itself at
    ``workers=1`` and by a process pool of ``workers`` above that: rows
    are independent, so they shard.

    Every row is packed once, by ``simulator._pack_rows``, so 0/1/X
    planes stay planes.  Each worker receives the simulator's
    ``batch_size`` and ``row_chunk_words`` with the packed rows, the
    faults and the prior table once, through the pool initializer (inherited under fork,
    pickled once per worker under spawn), and builds its own simulator;
    the caller's object is never pickled.  Jobs are bare ``(start,
    stop)`` row ranges, and each returns its rows and the work counters
    it added, which are summed into ``simulator``.  The table, dtype
    included, is identical to the serial one.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    carriers, dtype = simulator._pack_rows(pattern_sets)
    if workers == 1 or not carriers or not faults:
        return _offset_table(simulator, carriers, faults, dtype, prior)
    from concurrent.futures import ProcessPoolExecutor

    table = np.empty((len(carriers), len(faults)), dtype=dtype)
    jobs = _row_jobs(len(carriers), workers)
    settings = (simulator.circuit, simulator.batch_size, simulator.row_chunk_words)
    with ProcessPoolExecutor(
        min(workers, len(jobs)),
        initializer=_init_worker,
        initargs=(*settings, carriers, faults, dtype, prior),
    ) as pool:
        for start, rows, work in pool.map(_worker_rows, jobs):
            table[start : start + len(rows)] = rows
            for name, value in zip(_COUNTERS, work):
                setattr(simulator, name, getattr(simulator, name) + value)
    return table
