"""The recursive PODEM: the scalar oracle of the batch PODEM.

PODEM (Path-Oriented DEcision Making) deterministic test generation.

PODEM searches the primary-input space directly: it repeatedly derives
an *objective* (activate the fault, then advance the D-frontier toward a
primary output), *backtraces* the objective to an unassigned PI, assigns
it, and re-implies by five-valued simulation.  Conflicts flip the most
recent untried decision; exhausting the decision tree proves the fault
untestable (redundant).

The implementation keeps the textbook search structure but runs the
five-valued simulation on dense integer arrays (three-valued components
encoded 0/1/2, 2 = X) — the hot loop allocates no objects.

:class:`~repro.atpg.batch_podem.BatchPodem`, the engine the ATPG
runs, makes exactly this search's decisions lane by lane; the
differential suite and the throughput floor pin it against
:class:`Podem`, fault for fault.
"""

from __future__ import annotations

import heapq

from repro.atpg.batch_podem import PodemResult, PodemStatus, TestCube
from repro.circuit.gates import GateType, controlling_value, inversion_parity
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault

_X3 = 2

# Dense gate-type codes for the hot loop.
_INPUT, _AND, _NAND, _OR, _NOR, _XOR, _XNOR, _NOT, _BUF, _C0, _C1 = range(11)
_TYPE_CODE = {
    GateType.INPUT: _INPUT,
    GateType.AND: _AND,
    GateType.NAND: _NAND,
    GateType.OR: _OR,
    GateType.NOR: _NOR,
    GateType.XOR: _XOR,
    GateType.XNOR: _XNOR,
    GateType.NOT: _NOT,
    GateType.BUF: _BUF,
    GateType.CONST0: _C0,
    GateType.CONST1: _C1,
}
_NOT3 = (1, 0, _X3)


class Podem:
    """PODEM bound to one combinational circuit.

    ``backtrack_limit`` bounds search effort per fault; hitting it
    yields ``ABORTED`` (the fault's testability stays unresolved).
    """

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 250,
        heuristic: str = "level",
    ) -> None:
        if circuit.is_sequential():
            raise ValueError(
                f"circuit {circuit.name!r} is sequential; take full_scan_view() first"
            )
        if heuristic not in ("level", "scoap"):
            raise ValueError(f"unknown backtrace heuristic {heuristic!r}")
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.heuristic = heuristic
        order = circuit.topo_order()
        self._order = order
        self._id = {name: i for i, name in enumerate(order)}
        self._name = order
        n = len(order)
        input_set = set(circuit.inputs)
        self._is_input = [name in input_set for name in order]
        self._gtype = [0] * n
        self._fanins: list[tuple[int, ...]] = [()] * n
        levels = circuit.levels()
        self._level = [levels[name] for name in order]
        for node_id, name in enumerate(order):
            if name in input_set:
                self._gtype[node_id] = _INPUT
            else:
                gate = circuit.gates[name]
                self._gtype[node_id] = _TYPE_CODE[gate.gtype]
                self._fanins[node_id] = tuple(self._id[f] for f in gate.fanins)
        fanout: list[list[int]] = [[] for _ in range(n)]
        for node_id, fanins in enumerate(self._fanins):
            for fanin_id in fanins:
                fanout[fanin_id].append(node_id)
        self._fanouts = [tuple(f) for f in fanout]
        self._output_ids = [self._id[name] for name in circuit.outputs]
        self._is_output = [False] * n
        for output_id in self._output_ids:
            self._is_output[output_id] = True
        self._po_distance = self._compute_po_distance()
        # controlling value / inversion per dense code
        self._control = [None] * 11
        self._invert = [0] * 11
        for gtype, code in _TYPE_CODE.items():
            if gtype in (GateType.INPUT, GateType.CONST0, GateType.CONST1):
                continue
            self._control[code] = controlling_value(gtype)
            self._invert[code] = inversion_parity(gtype)
        # backtrace difficulty estimates: logic levels by default, SCOAP
        # controllabilities on request
        if heuristic == "scoap":
            from repro.atpg.scoap import compute_scoap

            measures = compute_scoap(circuit)
            self._cc = [
                (measures.cc0[name], measures.cc1[name]) for name in order
            ]
        else:
            self._cc = None
        # scratch value arrays reused across simulations
        self._good = [_X3] * n
        self._faulty = [_X3] * n
        self._d_nets: set[int] = set()
        self._seen_stamp = [0] * n
        self._generation = 0
        # current fault context (set by generate())
        self._site_net_id = -1
        self._site_gate_id: int | None = None
        self._site_pin: int | None = None
        self._stuck = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def generate(self, fault: Fault) -> PodemResult:
        """Search for a test cube detecting ``fault``."""
        site_net_id, site_gate_id, site_pin = self._check_fault(fault)
        self._site_net_id = site_net_id
        self._site_gate_id = site_gate_id
        self._site_pin = site_pin
        self._stuck = fault.value
        stuck = fault.value
        self._reset_values()
        decisions: list[list] = []  # [pi_id, value, flipped]
        backtracks = 0
        total_decisions = 0
        while True:
            if self._detected():
                cube = TestCube.from_dict(
                    {self._name[d[0]]: d[1] for d in decisions}
                )
                return PodemResult(
                    PodemStatus.DETECTED, cube, backtracks, total_decisions
                )
            objective = self._objective(site_net_id, stuck)
            backtrace = (
                self._backtrace(objective) if objective is not None else None
            )
            if backtrace is None:
                flipped = False
                while decisions:
                    last = decisions[-1]
                    if not last[2]:
                        last[1] = 1 - last[1]
                        last[2] = True
                        self._assign(last[0], last[1])
                        backtracks += 1
                        flipped = True
                        break
                    self._assign(last[0], _X3)
                    decisions.pop()
                if not flipped:
                    return PodemResult(
                        PodemStatus.UNTESTABLE, None, backtracks, total_decisions
                    )
                if backtracks > self.backtrack_limit:
                    return PodemResult(
                        PodemStatus.ABORTED, None, backtracks, total_decisions
                    )
                continue
            pi_id, value = backtrace
            decisions.append([pi_id, value, False])
            self._assign(pi_id, value)
            total_decisions += 1

    # ------------------------------------------------------------------
    # five-valued simulation with fault injection (hot loop)
    # ------------------------------------------------------------------

    def _reset_values(self) -> None:
        """Re-initialise the value arrays for a fresh fault: everything
        X, constants propagated, the stem stuck value injected."""
        n = len(self._good)
        self._good = good = [_X3] * n
        self._faulty = faulty = [_X3] * n
        self._d_nets = set()
        gtypes = self._gtype
        all_fanins = self._fanins
        site_net_id = self._site_net_id
        site_gate_id = self._site_gate_id
        site_pin = self._site_pin
        stuck = self._stuck
        for node_id in range(n):
            code = gtypes[node_id]
            if code == _INPUT:
                g = f = _X3
            elif code == _C0:
                g = f = 0
            elif code == _C1:
                g = f = 1
            else:
                fanins = all_fanins[node_id]
                g = _eval3(code, fanins, good)
                if node_id == site_gate_id:
                    f = _eval3_branch(code, fanins, faulty, site_pin, stuck)
                else:
                    f = _eval3(code, fanins, faulty)
            if node_id == site_net_id and site_gate_id is None:
                f = stuck
            good[node_id] = g
            faulty[node_id] = f
            if g != _X3 and f != _X3 and g != f:
                self._d_nets.add(node_id)

    def _assign(self, pi_id: int, value: int) -> None:
        """Set a PI to 0/1/X and propagate the change event-driven
        through its fanout cone (early cutoff on unchanged nodes)."""
        good = self._good
        faulty = self._faulty
        site_net_id = self._site_net_id
        site_gate_id = self._site_gate_id
        site_pin = self._site_pin
        stuck = self._stuck
        d_nets = self._d_nets
        gtypes = self._gtype
        all_fanins = self._fanins
        fanouts = self._fanouts

        new_faulty = stuck if (pi_id == site_net_id and site_gate_id is None) else value
        if good[pi_id] == value and faulty[pi_id] == new_faulty:
            return
        good[pi_id] = value
        faulty[pi_id] = new_faulty
        _update_d(d_nets, pi_id, value, new_faulty)

        pending: list[int] = []
        in_queue: set[int] = set()
        for fanout_id in fanouts[pi_id]:
            heapq.heappush(pending, fanout_id)
            in_queue.add(fanout_id)
        while pending:
            node_id = heapq.heappop(pending)
            in_queue.discard(node_id)
            code = gtypes[node_id]
            fanins = all_fanins[node_id]
            g = _eval3(code, fanins, good)
            if node_id == site_gate_id:
                f = _eval3_branch(code, fanins, faulty, site_pin, stuck)
            else:
                f = _eval3(code, fanins, faulty)
            if node_id == site_net_id and site_gate_id is None:
                f = stuck
            if g == good[node_id] and f == faulty[node_id]:
                continue
            good[node_id] = g
            faulty[node_id] = f
            _update_d(d_nets, node_id, g, f)
            for fanout_id in fanouts[node_id]:
                if fanout_id not in in_queue:
                    heapq.heappush(pending, fanout_id)
                    in_queue.add(fanout_id)

    # ------------------------------------------------------------------
    # search machinery
    # ------------------------------------------------------------------

    def _detected(self) -> bool:
        good, faulty = self._good, self._faulty
        for output_id in self._output_ids:
            g = good[output_id]
            f = faulty[output_id]
            if g != _X3 and f != _X3 and g != f:
                return True
        return False

    def _d_frontier(self) -> list[int]:
        """Gates reading a D-bearing net whose own output is still
        undetermined in at least one machine.  Walks only the fanouts of
        the (incrementally maintained) D nets."""
        good, faulty = self._good, self._faulty
        frontier: list[int] = []
        self._generation += 1
        stamp = self._generation
        seen = self._seen_stamp
        for d_net in self._d_nets:
            # A stuck branch is itself a fault effect even when the stem
            # carries none; the branch's reading gate handles that below.
            for fanout_id in self._fanouts[d_net]:
                if seen[fanout_id] == stamp:
                    continue
                seen[fanout_id] = stamp
                if good[fanout_id] != _X3 and faulty[fanout_id] != _X3:
                    continue
                frontier.append(fanout_id)
        # The branch-site gate sees a D on its stuck pin whenever the stem
        # good value activates the fault, even if the stem net is not a D.
        gate_id = self._site_gate_id
        if (
            gate_id is not None
            and seen[gate_id] != stamp
            and good[self._site_net_id] == 1 - self._stuck
            and (good[gate_id] == _X3 or faulty[gate_id] == _X3)
        ):
            frontier.append(gate_id)
        return frontier

    def _x_path_exists(self, frontier: list[int]) -> bool:
        good, faulty = self._good, self._faulty
        self._generation += 1
        stamp = self._generation
        seen = self._seen_stamp
        stack = list(frontier)
        while stack:
            node_id = stack.pop()
            if seen[node_id] == stamp:
                continue
            seen[node_id] = stamp
            if self._is_output[node_id]:
                return True
            for fanout_id in self._fanouts[node_id]:
                if seen[fanout_id] == stamp:
                    continue
                if good[fanout_id] != _X3 and faulty[fanout_id] != _X3:
                    continue  # fully determined net blocks the path
                stack.append(fanout_id)
        return False

    def _objective(self, site_net_id: int, stuck: int) -> tuple[int, int] | None:
        """The next (net, value) goal, or None when the state is a dead
        end (activation impossible, frontier dead, or no X-path)."""
        site_good = self._good[site_net_id]
        if site_good == stuck:
            return None  # cannot activate
        if site_good == _X3:
            return (site_net_id, 1 - stuck)
        frontier = self._d_frontier()
        if not frontier:
            return None
        if not self._x_path_exists(frontier):
            return None
        distances = self._po_distance
        # Tie-break equal PO distances by node id: frontier membership is
        # a set, so without this the choice would depend on hash/iteration
        # order (and could differ across Python builds or equivalent
        # implementations of the same search).
        gate_id = min(
            frontier,
            key=lambda g: (
                distances[g] if distances[g] is not None else 1 << 30,
                g,
            ),
        )
        control = self._control[self._gtype[gate_id]]
        good = self._good
        for fanin_id in self._fanins[gate_id]:
            if good[fanin_id] == _X3:
                target = 0 if control is None else 1 - control
                return (fanin_id, target)
        return None

    def _backtrace(self, objective: tuple[int, int]) -> tuple[int, int] | None:
        """Map an objective to an unassigned-PI assignment along X nets."""
        good = self._good
        node_id, target = objective
        for _ in range(len(good) + 1):
            if self._is_input[node_id]:
                return (node_id, target)
            code = self._gtype[node_id]
            if code in (_C0, _C1):
                return None
            fanins = self._fanins[node_id]
            x_fanins = [f for f in fanins if good[f] == _X3]
            if not x_fanins:
                return None
            if code in (_NOT, _BUF):
                target ^= self._invert[code]
                node_id = fanins[0]
                continue
            control = self._control[code]
            pre_inversion = target ^ self._invert[code]
            if control is not None:
                if pre_inversion == control:
                    # One controlling input suffices: pick the easiest.
                    node_id = min(
                        x_fanins, key=lambda f: self._difficulty(f, control)
                    )
                    target = control
                else:
                    # All inputs must go non-controlling: hardest first.
                    node_id = max(
                        x_fanins, key=lambda f: self._difficulty(f, 1 - control)
                    )
                    target = 1 - control
            else:
                # XOR/XNOR: fix one X input; needed value depends on the
                # parity of the other (known) inputs, unknowns as 0.
                chosen = x_fanins[0]
                other_parity = 0
                for fanin_id in fanins:
                    if fanin_id == chosen:
                        continue
                    g = good[fanin_id]
                    other_parity ^= g if g != _X3 else 0
                node_id = chosen
                target = pre_inversion ^ other_parity
        return None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _difficulty(self, node_id: int, value: int) -> int:
        """How hard the backtrace expects setting ``node_id`` to ``value``
        to be: SCOAP controllability when enabled, logic depth otherwise."""
        if self._cc is not None:
            return self._cc[node_id][value]
        return self._level[node_id]

    def _check_fault(self, fault: Fault) -> tuple[int, int | None, int | None]:
        site = fault.site
        net_id = self._id.get(site.net)
        if net_id is None:
            raise KeyError(f"fault site net {site.net!r} not in circuit")
        if not site.is_branch:
            return net_id, None, None
        gate = self.circuit.gates.get(site.gate)
        if gate is None or site.pin >= len(gate.fanins):
            raise KeyError(f"fault site {site} does not match a gate pin")
        if gate.fanins[site.pin] != site.net:
            raise KeyError(
                f"fault site {site}: gate pin reads {gate.fanins[site.pin]!r}"
            )
        return net_id, self._id[site.gate], site.pin

    def _compute_po_distance(self) -> list[int | None]:
        """Shortest fanout distance from each net to any PO (None if the
        net cannot reach an output)."""
        n = len(self._name)
        distance: list[int | None] = [None] * n
        for node_id in range(n - 1, -1, -1):
            if self._is_output[node_id]:
                distance[node_id] = 0
                continue
            best: int | None = None
            for fanout_id in self._fanouts[node_id]:
                fanout_distance = distance[fanout_id]
                if fanout_distance is not None:
                    candidate = fanout_distance + 1
                    if best is None or candidate < best:
                        best = candidate
            distance[node_id] = best
        return distance


def _update_d(d_nets: set[int], node_id: int, good: int, faulty: int) -> None:
    """Maintain the set of D-bearing nets after a value change."""
    if good != _X3 and faulty != _X3 and good != faulty:
        d_nets.add(node_id)
    else:
        d_nets.discard(node_id)


def _eval3(code: int, fanins: tuple[int, ...], values: list[int]) -> int:
    """Three-valued gate evaluation over dense value arrays."""
    if code == _AND or code == _NAND:
        result = 1
        for fanin_id in fanins:
            v = values[fanin_id]
            if v == 0:
                result = 0
                break
            if v == _X3:
                result = _X3
        return _NOT3[result] if code == _NAND else result
    if code == _OR or code == _NOR:
        result = 0
        for fanin_id in fanins:
            v = values[fanin_id]
            if v == 1:
                result = 1
                break
            if v == _X3:
                result = _X3
        return _NOT3[result] if code == _NOR else result
    if code == _XOR or code == _XNOR:
        result = 0
        for fanin_id in fanins:
            v = values[fanin_id]
            if v == _X3:
                return _X3
            result ^= v
        return _NOT3[result] if code == _XNOR else result
    if code == _NOT:
        return _NOT3[values[fanins[0]]]
    if code == _BUF:
        return values[fanins[0]]
    raise AssertionError(f"unexpected gate code {code}")


def _eval3_branch(
    code: int,
    fanins: tuple[int, ...],
    values: list[int],
    stuck_pin: int,
    stuck: int,
) -> int:
    """Like :func:`_eval3`, with pin ``stuck_pin`` forced to ``stuck``
    (faulty-machine evaluation of the gate reading a stuck branch)."""
    pin_values = [
        stuck if pin == stuck_pin else values[fanin_id]
        for pin, fanin_id in enumerate(fanins)
    ]
    if code == _AND or code == _NAND:
        result = 1
        for v in pin_values:
            if v == 0:
                result = 0
                break
            if v == _X3:
                result = _X3
        return _NOT3[result] if code == _NAND else result
    if code == _OR or code == _NOR:
        result = 0
        for v in pin_values:
            if v == 1:
                result = 1
                break
            if v == _X3:
                result = _X3
        return _NOT3[result] if code == _NOR else result
    if code == _XOR or code == _XNOR:
        result = 0
        for v in pin_values:
            if v == _X3:
                return _X3
            result ^= v
        return _NOT3[result] if code == _XNOR else result
    if code == _NOT:
        return _NOT3[pin_values[0]]
    if code == _BUF:
        return pin_values[0]
    raise AssertionError(f"unexpected gate code {code}")
