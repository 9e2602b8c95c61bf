"""Bit-parallel true-value logic simulation.

A :class:`CompiledCircuit` lowers the string-keyed :class:`Circuit` to
integer arrays once; simulation then evaluates 64 patterns per
``uint64`` word with numpy bitwise ops.

The compiler *normalizes* and *levelizes*: every gate becomes one of
three folds (AND, OR, XOR) plus an output inversion
(:func:`repro.circuit.gates.gate_form`), and the gates of one
topological level and fold form one **fold bucket**, padded to its
widest gate with the fold's identity (a known 1 for AND, a known 0 for
OR and XOR, held in two rows after the nodes), its inverting gates
last.  A bucket is one gather plus one
:func:`repro.circuit.gates.eval_gates` call, so a level costs at most
three calls (more only where :data:`PAD_LIMIT` splits a ragged bucket
by arity).  :meth:`CompiledCircuit.fold_buckets` is the one bucketing
rule: the fault tracer, the stem machines and fault injection sweep
its buckets too (the batch PODEM folds each level and fold as one
group on rails of its own).  :meth:`CompiledCircuit.simulate`
is the one walk for 0/1 words (``m = 1``) and 0/1/X value + care
planes (``m = 2``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.circuit.gates import FOLD_IDENTITY, Fold, GateType, eval_gates, gate_form
from repro.circuit.netlist import Circuit
from repro.utils.bitvec import (
    WORD_BITS,
    BitVector,
    PackedPatterns,
    as_packed,
    n_words_for,
    tail_mask,
    unpack_words,
)

if TYPE_CHECKING:
    from repro.faults.model import Fault

__all__ = [
    "CompiledCircuit",
    "simulate_patterns",
    "n_words_for",
    "tail_mask",
    "WORD_BITS",
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Padding bound of a fold bucket: the gates of one level and fold share
#: one call, padded to the widest, unless that would make the call
#: gather more than this many times the bucket's real pins; then the
#: bucket splits between two arities.
PAD_LIMIT = 1.5

_FOLDS = tuple(Fold)


class CompiledCircuit:
    """A circuit lowered for fast repeated simulation.

    Attributes of interest:

    * ``order`` — node names in topological order;
    * ``index`` — name -> dense node id (ids follow ``order``);
    * ``gate_types`` / ``gate_fanins`` — per-node gate type and fanin ids
      (sources have empty fanins);
    * ``plan`` — the levelized fold buckets every sweep walks.
    """

    def __init__(self, circuit: Circuit) -> None:
        if circuit.is_sequential():
            raise ValueError(
                f"circuit {circuit.name!r} is sequential; take full_scan_view() first"
            )
        self.circuit = circuit
        self.order: list[str] = circuit.topo_order()
        self.index: dict[str, int] = {name: i for i, name in enumerate(self.order)}
        self.n_nodes = len(self.order)
        self.input_ids = np.array(
            [self.index[name] for name in circuit.inputs], dtype=np.int64
        )
        self.output_ids = np.array(
            [self.index[name] for name in circuit.outputs], dtype=np.int64
        )
        self.gate_types: list[GateType] = []
        self.gate_fanins: list[tuple[int, ...]] = []
        input_set = set(circuit.inputs)
        for name in self.order:
            if name in input_set:
                self.gate_types.append(GateType.INPUT)
                self.gate_fanins.append(())
            else:
                gate = circuit.gates[name]
                self.gate_types.append(gate.gtype)
                self.gate_fanins.append(
                    tuple(self.index[f] for f in gate.fanins)
                )
        # Fanout adjacency in dense ids (for cone walks in the fault sim).
        fanout: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for node_id, fanins in enumerate(self.gate_fanins):
            for fanin_id in fanins:
                fanout[fanin_id].append(node_id)
        self.fanout_ids: list[tuple[int, ...]] = [tuple(f) for f in fanout]
        # Topological levels: sources at 0, gates at 1 + max(fanin level).
        levels = np.zeros(self.n_nodes, dtype=np.int64)
        for node_id, fanins in enumerate(self.gate_fanins):
            if fanins:
                levels[node_id] = 1 + max(int(levels[f]) for f in fanins)
        self.node_levels: np.ndarray = levels
        #: State buffers carry two rows after the nodes: a known 1 and a
        #: known 0, the identities that pad ragged fold buckets.
        self.n_rows = self.n_nodes + 2
        self.one_row = self.n_nodes
        self.zero_row = self.n_nodes + 1
        self._build_eval_plan()

    def _build_eval_plan(self) -> None:
        """Normalize every gate to its fold form (:func:`~repro.circuit.
        gates.gate_form`) and cut the levels into fold buckets."""
        n = self.n_nodes
        self.arity = np.array([len(f) for f in self.gate_fanins], dtype=np.int64)
        folds = np.full(n, -1, dtype=np.int64)
        inverted = np.zeros(n, dtype=bool)
        widest = max(1, int(self.arity.max(initial=0)))
        table = np.full((n, widest), self.zero_row, dtype=np.int64)
        known0: list[int] = []
        known1: list[int] = []
        for node_id, gtype in enumerate(self.gate_types):
            if gtype is GateType.CONST0:
                known0.append(node_id)
            elif gtype is GateType.CONST1:
                known1.append(node_id)
            elif gtype is not GateType.INPUT:
                fold, invert = gate_form(gtype)
                folds[node_id] = fold
                inverted[node_id] = invert
                if FOLD_IDENTITY[fold]:
                    table[node_id] = self.one_row
                fanins = self.gate_fanins[node_id]
                table[node_id, : len(fanins)] = fanins
        #: Rows that hold a known 0 / a known 1 whatever the inputs: the
        #: constants, then the identity row.
        self.known0_rows = np.array(known0 + [self.zero_row], dtype=np.int64)
        self.known1_rows = np.array(known1 + [self.one_row], dtype=np.int64)
        #: Per node: its fold (``-1`` for a source) and output inversion.
        self.folds = folds
        self.inverted = inverted
        #: Per node: fanin rows padded to the widest gate with the row of
        #: its fold's identity (``one_row`` or ``zero_row``).
        self.fanin_table = table
        #: The levelized plan, level by level: ``(level, buckets)`` with
        #: each bucket ``(fold, invert, output ids, padded fanin rows)``
        #: — one :func:`~repro.circuit.gates.eval_gates` call.
        ids, levels = self.fold_buckets(np.flatnonzero(folds >= 0))
        self.plan: list[tuple[int, list[tuple]]] = [
            (
                level,
                [
                    (fold, invert, ids[lo:hi], table[ids[lo:hi], :width])
                    for fold, lo, hi, width, invert in buckets
                ],
            )
            for level, buckets in levels
        ]

    def fold_buckets(
        self, gate_ids: np.ndarray
    ) -> tuple[np.ndarray, list[tuple[int, list[tuple[Fold, int, int, int, int | slice]]]]]:
        """Cut gates ``gate_ids`` into fold buckets: ``(ids, levels)``
        where ``ids`` is the gates reordered bucket by bucket and
        ``levels`` lists ``(level, [(fold, lo, hi, width, invert)])``,
        levels ascending, each bucket the gates ``ids[lo:hi]`` padded to
        ``width`` with ``invert`` the :func:`~repro.circuit.gates.
        eval_gates` argument.

        There is one bucket per level and fold, split between two
        arities wherever taking the narrower gates in would pad it past
        :data:`PAD_LIMIT` times its real pins.  Within a bucket the
        gates that invert come last, so ``invert`` is ``0`` or a tail
        slice, and each part is in node id order.
        """
        gate_ids = np.asarray(gate_ids, dtype=np.int64)
        levels = self.node_levels[gate_ids]
        folds = self.folds[gate_ids]
        arity = self.arity[gate_ids]
        order = np.lexsort((gate_ids, -arity, folds, levels))
        ids = gate_ids[order]
        levels, folds, arity = levels[order], folds[order], arity[order]
        segment = (np.diff(levels, prepend=-1) != 0) | (np.diff(folds, prepend=-1) != 0)
        runs = np.flatnonzero(segment | (np.diff(arity, prepend=-1) != 0)).tolist()
        cuts: list[int] = []
        widths: list[int] = []
        gates = pins = width = 0
        for start, stop, new, wide in zip(
            runs, runs[1:] + [ids.size], segment[runs].tolist(), arity[runs].tolist()
        ):
            count = stop - start
            if new or (gates + count) * width > PAD_LIMIT * (pins + count * wide):
                cuts.append(start)
                widths.append(wide)
                width, gates, pins = wide, 0, 0
            gates += count
            pins += count * wide
        bounds = cuts + [ids.size]
        inverted = self.inverted[ids].astype(np.int64)
        bucket = np.repeat(np.arange(len(cuts)), np.diff(bounds))
        ids = ids[np.lexsort((ids, inverted, bucket))]
        keeps = (np.diff(bounds) - np.add.reduceat(inverted, cuts)).tolist() if cuts else []
        plan: list[tuple[int, list[tuple[Fold, int, int, int, int | slice]]]] = []
        for lo, hi, width, keep, level, fold in zip(
            cuts, bounds[1:], widths, keeps, levels[cuts].tolist(), folds[cuts].tolist()
        ):
            part = (_FOLDS[fold], lo, hi, width, 0 if keep == hi - lo else slice(keep, None))
            if plan and plan[-1][0] == level:
                plan[-1][1].append(part)
            else:
                plan.append((level, [part]))
        return ids, plan

    @property
    def n_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self.input_ids)

    @property
    def n_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self.output_ids)

    def source_state(
        self, input_words: np.ndarray, m: int = 1, out: np.ndarray | None = None
    ) -> np.ndarray:
        """A ``(n_rows, m * n_words)`` state buffer with the inputs,
        the constants and the two identity rows set (gate rows are left
        for a sweep to fill).  ``out`` optionally supplies the buffer."""
        if input_words.shape[0] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input rows, got {input_words.shape[0]}"
            )
        shape = (self.n_rows, input_words.shape[1])
        if out is not None:
            if out.shape != shape or out.dtype != np.uint64:
                raise ValueError(
                    f"out buffer must be uint64 {shape}, got {out.dtype} {out.shape}"
                )
            values = out
        else:
            values = np.empty(shape, dtype=np.uint64)
        values[self.input_ids, :] = input_words
        # Constants are known whatever the inputs carry: a known 0 is
        # value 0 with every care bit set, a known 1 all ones on every
        # plane.
        n_words = input_words.shape[1] // m
        values[self.known0_rows, :n_words] = 0
        values[self.known0_rows, n_words:] = _ALL_ONES
        values[self.known1_rows, :] = _ALL_ONES
        return values

    def simulate(
        self, input_words: np.ndarray, m: int = 1, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Simulate packed input state with ``m`` planes per word.

        ``input_words`` has shape ``(n_inputs, m * n_words)``: plain 0/1
        words for ``m = 1``, value then care planes side by side for
        ``m = 2`` (the ``words`` of :class:`~repro.utils.bitvec.
        PackedPatterns` / :class:`~repro.utils.bitvec.PackedPlanes`).
        The result has shape ``(n_nodes, m * n_words)`` and holds every
        node's state (node id order).  On all-care input the ``m = 2``
        value plane is bit-identical to the ``m = 1`` simulation.
        ``out`` optionally supplies a preallocated ``(n_rows, m *
        n_words)`` state buffer — the node rows, then the two identity
        rows that pad ragged fanins — and the result is a view of its
        node rows (callers that simulate in a loop reuse one buffer
        instead of reallocating per call).
        """
        values = self.source_state(input_words, m, out)
        for _, buckets in self.plan:
            for fold, invert, out_ids, fanins in buckets:
                # Gather shape: (bucket size, width, m * n_words); fold
                # the fanin axis.
                values[out_ids, :] = eval_gates(fold, invert, values[fanins], m, axis=1)
        return values[: self.n_nodes]

    def simulate_patterns(
        self, patterns: Sequence[BitVector] | PackedPatterns
    ) -> list[BitVector]:
        """Simulate individual patterns; returns one output vector per
        pattern (bit ``k`` = value of ``circuit.outputs[k]``).

        Accepts a plain sequence (packed here) or an already-packed
        :class:`~repro.utils.bitvec.PackedPatterns`.
        """
        if not len(patterns):
            return []
        packed = as_packed(patterns, self.n_inputs)
        values = self.simulate(packed.words)
        output_words = values[self.output_ids, :]
        return unpack_words(output_words, packed.n_patterns)

    def fault_site(self, fault: Fault) -> tuple[int, int | None, int | None]:
        """Resolve ``fault`` to ``(net id, reading gate id, pin)`` — the
        gate and pin are ``None`` for a stem fault.

        Raises :class:`KeyError` when the net is not in the circuit, or
        when a branch fault names a pin that does not exist or does not
        read its net (so no engine simulates a different fault than the
        one it was given).
        """
        site = fault.site
        net_id = self.index.get(site.net)
        if net_id is None:
            raise KeyError(f"fault site net {site.net!r} not in circuit")
        if not site.is_branch:
            return net_id, None, None
        gate_id = self.index.get(site.gate)
        fanins = self.gate_fanins[gate_id] if gate_id is not None else ()
        pin = site.pin
        if not isinstance(pin, int) or not 0 <= pin < len(fanins):
            raise KeyError(f"fault site {site} does not match a gate pin")
        if fanins[pin] != net_id:
            raise KeyError(
                f"fault site {site}: gate pin reads {self.order[fanins[pin]]!r}"
            )
        return net_id, gate_id, pin

    def output_cone_ids(self, node_id: int) -> list[int]:
        """Transitive fanout of ``node_id`` in topological order,
        excluding ``node_id`` itself."""
        in_cone = np.zeros(self.n_nodes, dtype=bool)
        frontier = [node_id]
        members: list[int] = []
        while frontier:
            current = frontier.pop()
            for fanout_id in self.fanout_ids[current]:
                if not in_cone[fanout_id]:
                    in_cone[fanout_id] = True
                    members.append(fanout_id)
                    frontier.append(fanout_id)
        members.sort()
        return members


def simulate_patterns(
    circuit: Circuit, patterns: Sequence[BitVector]
) -> list[BitVector]:
    """One-shot convenience wrapper around :class:`CompiledCircuit`."""
    return CompiledCircuit(circuit).simulate_patterns(patterns)


# ``n_words_for`` / ``tail_mask`` live in :mod:`repro.utils.bitvec`
# (next to the packing they describe) and are re-exported here for the
# simulator-facing import path.
