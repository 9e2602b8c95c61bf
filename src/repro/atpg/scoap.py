"""SCOAP testability measures (Goldstein's controllability/observability).

Combinational SCOAP assigns every net three integers:

* ``CC0(n)`` / ``CC1(n)`` — the minimum "effort" (number of circuit-line
  assignments) to drive net ``n`` to 0 / 1; primary inputs cost 1.
* ``CO(n)`` — the effort to propagate the value of ``n`` to a primary
  output; primary outputs cost 0.

The measures guide the PODEM backtrace: when one controlling input
suffices, pick the *easiest* (lowest CC); when all inputs must go
non-controlling, attack the *hardest* first (highest CC) so conflicts
surface early.  ``BatchPodem(..., heuristic="scoap")`` enables this;
the default remains the cheaper logic-level heuristic, and the ablation
benchmark (``benchmarks/test_ablation_heuristics.py``) compares them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit

#: Effectively-infinite effort (unreachable nets, e.g. behind constants).
INF = 10**9


@dataclass(frozen=True)
class ScoapMeasures:
    """Per-net SCOAP values for one circuit."""

    cc0: dict[str, int]
    cc1: dict[str, int]
    co: dict[str, int]

    def controllability(self, net: str, value: int) -> int:
        """CC0 or CC1 of ``net``, by target value."""
        return self.cc1[net] if value else self.cc0[net]


def compute_scoap(circuit: Circuit) -> ScoapMeasures:
    """Compute combinational SCOAP measures for ``circuit``."""
    if circuit.is_sequential():
        raise ValueError(
            f"circuit {circuit.name!r} is sequential; take full_scan_view() first"
        )
    cc0: dict[str, int] = {}
    cc1: dict[str, int] = {}
    for net in circuit.topo_order():
        gtype = circuit.node_type(net)
        if gtype is GateType.INPUT:
            cc0[net] = cc1[net] = 1
            continue
        fanins = circuit.fanins(net)
        zeros = [cc0[f] for f in fanins]
        ones = [cc1[f] for f in fanins]
        cc0[net], cc1[net] = _gate_controllability(gtype, zeros, ones)
    co: dict[str, int] = {net: INF for net in circuit.nodes}
    for output in circuit.outputs:
        co[output] = 0
    for net in reversed(circuit.topo_order()):
        # Observability flows backward: a net is observable through any
        # of its reading gates; keep the cheapest path.
        for gate_name in circuit.fanouts(net):
            gate = circuit.gates[gate_name]
            gate_co = co[gate_name]
            if gate_co >= INF:
                continue
            through = _pin_observability(
                gate.gtype,
                gate_co,
                [(f, cc0[f], cc1[f]) for f in gate.fanins],
                net,
            )
            if through < co[net]:
                co[net] = through
    return ScoapMeasures(cc0, cc1, co)


def _capped(total: int) -> int:
    return min(total, INF)


def _gate_controllability(
    gtype: GateType, zeros: list[int], ones: list[int]
) -> tuple[int, int]:
    """(CC0, CC1) of a gate output from its fanin controllabilities."""
    if gtype is GateType.CONST0:
        return (1, INF)
    if gtype is GateType.CONST1:
        return (INF, 1)
    if gtype is GateType.BUF:
        return (zeros[0] + 1, ones[0] + 1)
    if gtype is GateType.NOT:
        return (ones[0] + 1, zeros[0] + 1)
    if gtype is GateType.AND:
        return (_capped(min(zeros) + 1), _capped(sum(ones) + 1))
    if gtype is GateType.NAND:
        return (_capped(sum(ones) + 1), _capped(min(zeros) + 1))
    if gtype is GateType.OR:
        return (_capped(sum(zeros) + 1), _capped(min(ones) + 1))
    if gtype is GateType.NOR:
        return (_capped(min(ones) + 1), _capped(sum(zeros) + 1))
    if gtype in (GateType.XOR, GateType.XNOR):
        # Cheapest way to reach each parity over all fanin value picks:
        # DP over (cost, parity).
        even, odd = 0, INF
        for zero_cost, one_cost in zip(zeros, ones):
            new_even = min(_capped(even + zero_cost), _capped(odd + one_cost))
            new_odd = min(_capped(even + one_cost), _capped(odd + zero_cost))
            even, odd = new_even, new_odd
        if gtype is GateType.XOR:
            return (_capped(even + 1), _capped(odd + 1))
        return (_capped(odd + 1), _capped(even + 1))
    raise ValueError(f"no controllability rule for {gtype!r}")


def _pin_observability(
    gtype: GateType,
    gate_co: int,
    fanins: list[tuple[str, int, int]],
    pin_net: str,
) -> int:
    """CO of reading ``pin_net`` through one gate: gate CO plus the cost
    of holding the *other* inputs at non-masking values."""
    others = [(net, c0, c1) for net, c0, c1 in fanins if net != pin_net]
    if gtype in (GateType.BUF, GateType.NOT):
        side = 0
    elif gtype in (GateType.AND, GateType.NAND):
        side = sum(c1 for _, __, c1 in others)  # others must be 1
    elif gtype in (GateType.OR, GateType.NOR):
        side = sum(c0 for _, c0, __ in others)  # others must be 0
    elif gtype in (GateType.XOR, GateType.XNOR):
        side = sum(min(c0, c1) for _, c0, c1 in others)  # any known value
    else:
        raise ValueError(f"no observability rule for {gtype!r}")
    return _capped(gate_co + side + 1)
