"""Bit-parallel true-value logic simulation.

A :class:`CompiledCircuit` lowers the string-keyed :class:`Circuit` to
integer arrays once; simulation then evaluates 64 patterns per
``uint64`` word with numpy bitwise ops.

The compiler is *levelized*: gates are grouped by topological level and,
within a level, by (gate type, fanin arity).  Each group is evaluated
with a single fancy-indexed gather plus one reduction over the fanin
axis (:func:`repro.circuit.gates.eval_gates`), so simulation cost is a
handful of numpy calls per level instead of one Python-level gate
evaluation (and fanin list build) per node.  :meth:`CompiledCircuit.
simulate` is the one walk for 0/1 words (``m = 1``) and 0/1/X value +
care planes (``m = 2``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.circuit.gates import GateType, eval_gates
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


class CompiledCircuit:
    """A circuit lowered for fast repeated simulation.

    Attributes of interest:

    * ``order`` — node names in topological order;
    * ``index`` — name -> dense node id (ids follow ``order``);
    * ``gate_types`` / ``gate_fanins`` — per-node gate type and fanin ids
      (sources have empty fanins).
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
        self._build_eval_plan()

    def _build_eval_plan(self) -> None:
        """Group gates by (level, type, arity) into vectorised eval groups."""
        const0: list[int] = []
        const1: list[int] = []
        grouped: dict[tuple[int, GateType, int], tuple[list[int], list[tuple[int, ...]]]] = {}
        for node_id, gtype in enumerate(self.gate_types):
            if gtype is GateType.INPUT:
                continue
            if gtype is GateType.CONST0:
                const0.append(node_id)
                continue
            if gtype is GateType.CONST1:
                const1.append(node_id)
                continue
            fanins = self.gate_fanins[node_id]
            key = (int(self.node_levels[node_id]), gtype, len(fanins))
            outs, fins = grouped.setdefault(key, ([], []))
            outs.append(node_id)
            fins.append(fanins)
        self.const0_ids = np.array(const0, dtype=np.int64)
        self.const1_ids = np.array(const1, dtype=np.int64)
        #: Level-ordered eval groups: (gate type, output ids, fanin id matrix).
        self.eval_groups: list[tuple[GateType, np.ndarray, np.ndarray]] = []
        #: The same groups keyed by topological level — the *levelized
        #: plan*.  Consumers that must interleave per-level work with the
        #: sweep (multi-fault injection re-asserts its forcings after
        #: each level; the stem-region trace walks it top down) walk
        #: this instead of ``eval_groups``.
        self.eval_levels: list[
            tuple[int, list[tuple[GateType, np.ndarray, np.ndarray]]]
        ] = []
        by_level: dict[int, list[tuple[GateType, np.ndarray, np.ndarray]]] = {}
        for level, gtype, arity in sorted(grouped, key=lambda k: k[0]):
            group = (
                gtype,
                np.array(grouped[(level, gtype, arity)][0], dtype=np.int64),
                np.array(grouped[(level, gtype, arity)][1], dtype=np.int64),
            )
            self.eval_groups.append(group)
            by_level.setdefault(level, []).append(group)
        self.eval_levels = sorted(by_level.items())

    @property
    def n_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self.input_ids)

    @property
    def n_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self.output_ids)

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
        ``out`` optionally supplies a preallocated result buffer of the
        right shape (callers that simulate in a loop reuse one buffer
        instead of reallocating per call).
        """
        if input_words.shape[0] != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} input rows, got {input_words.shape[0]}"
            )
        shape = (self.n_nodes, input_words.shape[1])
        if out is not None:
            if out.shape != shape or out.dtype != np.uint64:
                raise ValueError(
                    f"out buffer must be uint64 {shape}, got {out.dtype} {out.shape}"
                )
            values = out
        else:
            values = np.empty(shape, dtype=np.uint64)
        values[self.input_ids, :] = input_words
        # Constants are known whatever the inputs carry: CONST0 is value
        # 0 with every care bit set, CONST1 is all ones on every plane.
        n_words = input_words.shape[1] // m
        if self.const0_ids.size:
            values[self.const0_ids, :n_words] = 0
            values[self.const0_ids, n_words:] = _ALL_ONES
        if self.const1_ids.size:
            values[self.const1_ids, :] = _ALL_ONES
        for gtype, out_ids, fanin_matrix in self.eval_groups:
            # Gather shape: (group size, arity, m * n_words); reduce the
            # fanin axis with the group's gate function.
            values[out_ids, :] = eval_gates(gtype, values[fanin_matrix], m, axis=1)
        return values

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
