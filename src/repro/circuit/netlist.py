"""The netlist data model: :class:`Gate` and :class:`Circuit`.

A :class:`Circuit` is a named DAG of gates.  Node names are strings (as
in ``.bench`` files); the simulators compile circuits down to integer
arrays once, so the string-keyed model stays convenient without costing
simulation speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.circuit.gates import GateType


@dataclass(frozen=True)
class Gate:
    """A single gate: output net ``name``, driven by ``gtype`` over
    ``fanins`` (names of the fanin nets, in order)."""

    name: str
    gtype: GateType
    fanins: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.fanins)
        lo, hi = self.gtype.min_fanin, self.gtype.max_fanin
        if n < lo or (hi is not None and n > hi):
            bound = f"{lo}" if hi == lo else f"{lo}..{hi if hi is not None else 'inf'}"
            raise ValueError(
                f"gate {self.name!r}: {self.gtype.name} takes {bound} fanins, got {n}"
            )


class Circuit:
    """A combinational (or, pre-scan, sequential) gate-level circuit.

    Parameters
    ----------
    name:
        Circuit identifier (e.g. ``"c880"``).
    inputs:
        Primary input net names, in declaration order.
    outputs:
        Primary output net names.  Outputs may name any net (an input or
        a gate output).
    gates:
        The gates, keyed implicitly by their output net name.
    """

    def __init__(
        self,
        name: str,
        inputs: Iterable[str],
        outputs: Iterable[str],
        gates: Iterable[Gate],
    ) -> None:
        self.name = name
        self.inputs: list[str] = list(inputs)
        self.outputs: list[str] = list(outputs)
        self.gates: dict[str, Gate] = {}
        for gate in gates:
            if gate.name in self.gates:
                raise ValueError(f"duplicate gate output net {gate.name!r}")
            if gate.gtype is GateType.INPUT:
                raise ValueError(
                    f"gate {gate.name!r}: INPUT nodes belong in `inputs`, not `gates`"
                )
            self.gates[gate.name] = gate
        input_set = set(self.inputs)
        if len(input_set) != len(self.inputs):
            raise ValueError("duplicate primary input names")
        overlap = input_set & self.gates.keys()
        if overlap:
            raise ValueError(f"nets driven both as input and gate output: {sorted(overlap)}")
        self._topo_cache: list[str] | None = None
        self._fanout_cache: dict[str, tuple[str, ...]] | None = None
        self._level_cache: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """All net names: inputs first, then gate outputs (insertion order)."""
        return self.inputs + list(self.gates)

    def node_type(self, name: str) -> GateType:
        """The gate type driving net ``name`` (``INPUT`` for PIs)."""
        if name in self.gates:
            return self.gates[name].gtype
        if name in set(self.inputs):
            return GateType.INPUT
        raise KeyError(f"unknown net {name!r} in circuit {self.name!r}")

    def fanins(self, name: str) -> tuple[str, ...]:
        """Fanin nets of ``name`` (empty for PIs and constants)."""
        gate = self.gates.get(name)
        return gate.fanins if gate is not None else ()

    def is_sequential(self) -> bool:
        """True if the circuit contains any DFF."""
        return any(g.gtype is GateType.DFF for g in self.gates.values())

    @property
    def n_inputs(self) -> int:
        """Number of primary inputs."""
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        """Number of primary outputs."""
        return len(self.outputs)

    @property
    def n_gates(self) -> int:
        """Number of gates (excluding primary inputs)."""
        return len(self.gates)

    # ------------------------------------------------------------------
    # derived structure (cached)
    # ------------------------------------------------------------------

    def topo_order(self) -> list[str]:
        """All nets in topological order (every fanin precedes its gate).

        DFF outputs are treated as sources (their fanin is a *next-state*
        dependency, not a combinational one), so sequential circuits
        still levelize.  Raises :class:`ValueError` on combinational
        cycles.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        order: list[str] = list(self.inputs)
        order.extend(
            g.name
            for g in self.gates.values()
            if g.gtype is GateType.DFF or g.gtype.is_source
        )
        placed = set(order)
        # Kahn's algorithm over the remaining combinational gates.
        remaining: dict[str, set[str]] = {}
        dependents: dict[str, list[str]] = {}
        for gate in self.gates.values():
            if gate.name in placed:
                continue
            pending = {f for f in gate.fanins if f not in placed}
            remaining[gate.name] = pending
            for fanin in pending:
                dependents.setdefault(fanin, []).append(gate.name)
        ready = [name for name, pending in remaining.items() if not pending]
        while ready:
            name = ready.pop()
            order.append(name)
            placed.add(name)
            for dependent in dependents.get(name, ()):
                pending = remaining[dependent]
                pending.discard(name)
                if not pending:
                    ready.append(dependent)
        if len(order) != len(self.inputs) + len(self.gates):
            stuck = sorted(set(self.gates) - placed)
            raise ValueError(
                f"circuit {self.name!r} has a combinational cycle involving {stuck[:5]}"
            )
        self._topo_cache = order
        return order

    def fanouts(self, name: str) -> tuple[str, ...]:
        """Gates that read net ``name``."""
        if self._fanout_cache is None:
            fanout: dict[str, list[str]] = {node: [] for node in self.nodes}
            for gate in self.gates.values():
                for fanin in gate.fanins:
                    fanout[fanin].append(gate.name)
            self._fanout_cache = {k: tuple(v) for k, v in fanout.items()}
        return self._fanout_cache[name]

    def levels(self) -> dict[str, int]:
        """Logic level of every net (PIs/sources at 0)."""
        if self._level_cache is None:
            levels: dict[str, int] = {}
            for node in self.topo_order():
                fanins = self.fanins(node)
                if not fanins or self.node_type(node) is GateType.DFF:
                    levels[node] = 0
                else:
                    levels[node] = 1 + max(levels[f] for f in fanins)
            self._level_cache = levels
        return self._level_cache

    def depth(self) -> int:
        """Maximum logic level in the circuit."""
        levels = self.levels()
        return max(levels.values()) if levels else 0

    def stats(self) -> Mapping[str, int]:
        """Summary statistics (PI/PO/gate counts, depth, per-type counts)."""
        per_type: dict[str, int] = {}
        for gate in self.gates.values():
            per_type[gate.gtype.name] = per_type.get(gate.gtype.name, 0) + 1
        return {
            "inputs": self.n_inputs,
            "outputs": self.n_outputs,
            "gates": self.n_gates,
            "depth": self.depth(),
            **{f"n_{k.lower()}": v for k, v in sorted(per_type.items())},
        }

    def copy(self, name: str | None = None) -> "Circuit":
        """A structural copy (gates are immutable and shared)."""
        return Circuit(
            name or self.name,
            list(self.inputs),
            list(self.outputs),
            list(self.gates.values()),
        )

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, {self.n_inputs} PI, {self.n_outputs} PO, "
            f"{self.n_gates} gates)"
        )
