"""Slow, obviously-correct reference simulator.

Evaluates one pattern at a time with plain Python ints, and injects
faults by overriding the value a reader sees.  It exists to cross-check
the packed engines (:mod:`repro.sim.logic`, :mod:`repro.sim.fault`) in
the property-based tests — the two implementations share no evaluation
code beyond the :class:`GateType` enum.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.circuit.gates import GateType, eval_gate_3v_scalar
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.utils.bitvec import BitVector


class ReferenceSimulator:
    """Single-pattern interpreter over a combinational circuit."""

    def __init__(self, circuit: Circuit) -> None:
        if circuit.is_sequential():
            raise ValueError(
                f"circuit {circuit.name!r} is sequential; take full_scan_view() first"
            )
        self.circuit = circuit
        self._order = circuit.topo_order()
        self._input_set = set(circuit.inputs)

    def node_values(
        self, pattern: BitVector, fault: Fault | None = None
    ) -> Mapping[str, int]:
        """Evaluate every net for ``pattern``; optionally with ``fault``
        injected.  ``pattern`` bit ``k`` drives ``circuit.inputs[k]``."""
        if pattern.width != len(self.circuit.inputs):
            raise ValueError(
                f"pattern width {pattern.width} != {len(self.circuit.inputs)} inputs"
            )
        values: dict[str, int] = {}
        for name in self._order:
            if name in self._input_set:
                value = pattern.bit(self.circuit.inputs.index(name))
            else:
                gate = self.circuit.gates[name]
                if gate.gtype is GateType.CONST0:
                    value = 0
                elif gate.gtype is GateType.CONST1:
                    value = 1
                else:
                    fanin_values = [
                        self._read(values, gate.name, pin, net, fault)
                        for pin, net in enumerate(gate.fanins)
                    ]
                    value = eval_gate_3v_scalar(gate.gtype, fanin_values)
            if fault is not None and not fault.site.is_branch and fault.site.net == name:
                value = fault.value
            values[name] = value
        return values

    def outputs(self, pattern: BitVector, fault: Fault | None = None) -> BitVector:
        """Primary output vector for ``pattern`` (bit ``k`` = output ``k``)."""
        values = self.node_values(pattern, fault)
        return BitVector.from_bits([values[net] for net in self.circuit.outputs])

    def detects(self, pattern: BitVector, fault: Fault) -> bool:
        """True iff ``pattern`` detects ``fault`` at some primary output."""
        return self.outputs(pattern) != self.outputs(pattern, fault)

    def detected_set(
        self, patterns: Sequence[BitVector], faults: Sequence[Fault]
    ) -> set[Fault]:
        """All faults detected by at least one pattern (quadratic; tests only)."""
        good = [self.outputs(p) for p in patterns]
        result: set[Fault] = set()
        for fault in faults:
            for pattern, good_output in zip(patterns, good):
                if self.outputs(pattern, fault) != good_output:
                    result.add(fault)
                    break
        return result

    def _read(
        self,
        values: Mapping[str, int],
        gate_name: str,
        pin: int,
        net: str,
        fault: Fault | None,
    ) -> int:
        if (
            fault is not None
            and fault.site.is_branch
            and fault.site.gate == gate_name
            and fault.site.pin == pin
            and fault.site.net == net
        ):
            return fault.value
        return values[net]
