"""Cycle-accurate simulation of sequential (pre-scan) circuits.

The catalog's ISCAS'89 members are sequential netlists; the reseeding
flow tests their full-scan *view*, but the view is only trustworthy if
it matches the real machine.  :class:`SequentialSimulator` steps the raw
netlist cycle by cycle (DFFs hold state), which lets the test suite
verify the full-scan contract:

    one combinational evaluation of ``full_scan_view(C)`` with the
    flip-flop state presented on the pseudo-PIs equals one clock of
    ``C`` — POs match, and the pseudo-POs equal the next state.

It also simulates the *hardware* TPG registers directly when a TPG is
realised as a sequential netlist.
"""

from __future__ import annotations

from typing import Mapping

from repro.circuit.gates import GateType, eval_gate_3v_scalar
from repro.circuit.netlist import Circuit
from repro.utils.bitvec import BitVector


class SequentialSimulator:
    """Two-phase clocked simulation of a circuit with DFFs.

    Each :meth:`step` evaluates the combinational logic with the current
    state, captures the primary outputs, then updates every DFF from its
    data input (all flip-flops clock together, as in the ISCAS'89
    single-clock model).
    """

    def __init__(self, circuit: Circuit, initial_state: Mapping[str, int] | None = None) -> None:
        self.circuit = circuit
        self._order = circuit.topo_order()
        self._input_set = set(circuit.inputs)
        self.dff_names = [
            name
            for name in circuit.gates
            if circuit.gates[name].gtype is GateType.DFF
        ]
        self.state: dict[str, int] = {name: 0 for name in self.dff_names}
        if initial_state is not None:
            self.load_state(initial_state)

    def load_state(self, state: Mapping[str, int]) -> None:
        """Set flip-flop values (a scan-load, conceptually)."""
        unknown = set(state) - set(self.state)
        if unknown:
            raise KeyError(f"not flip-flops: {sorted(unknown)}")
        for name, value in state.items():
            if value not in (0, 1):
                raise ValueError(f"flip-flop {name!r} value must be 0/1, got {value!r}")
            self.state[name] = value

    def state_vector(self) -> BitVector:
        """Current state as a bit vector (bit k = ``dff_names[k]``)."""
        if not self.dff_names:
            raise ValueError("circuit has no flip-flops")
        return BitVector.from_bits([self.state[n] for n in self.dff_names])

    def evaluate(self, pattern: BitVector) -> dict[str, int]:
        """Combinational evaluation at the current state (no clock)."""
        if pattern.width != len(self.circuit.inputs):
            raise ValueError(
                f"pattern width {pattern.width} != {len(self.circuit.inputs)} inputs"
            )
        values: dict[str, int] = {}
        for name in self._order:
            if name in self._input_set:
                values[name] = pattern.bit(self.circuit.inputs.index(name))
                continue
            gate = self.circuit.gates[name]
            if gate.gtype is GateType.DFF:
                values[name] = self.state[name]
            elif gate.gtype is GateType.CONST0:
                values[name] = 0
            elif gate.gtype is GateType.CONST1:
                values[name] = 1
            else:
                values[name] = eval_gate_3v_scalar(
                    gate.gtype, [values[f] for f in gate.fanins]
                )
        return values

    def step(self, pattern: BitVector) -> BitVector:
        """One clock: returns the PO vector sampled before the edge."""
        values = self.evaluate(pattern)
        outputs = BitVector.from_bits(
            [values[net] for net in self.circuit.outputs]
        )
        for name in self.dff_names:
            data_net = self.circuit.gates[name].fanins[0]
            self.state[name] = values[data_net]
        return outputs

    def run(self, patterns: list[BitVector]) -> list[BitVector]:
        """Apply a pattern sequence; one PO vector per clock."""
        return [self.step(p) for p in patterns]
