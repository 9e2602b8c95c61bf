"""Hypothesis differential for the normalized gate form.

Every levelized sweep evaluates fold buckets: gates of one level and
fold (AND, OR, XOR), padded to the bucket's widest gate with the fold's
identity row, with the inverting gates last.  Random circuits here mix
every gate type, arities 1-9, CONST0/CONST1 fanins and a net read twice
by one gate, and three engines built on the buckets are checked against
per-gate scalar walks over :func:`eval_gate_3v_scalar`:

* :meth:`CompiledCircuit.simulate` at ``m = 1`` and ``m = 2``;
* stem-region detection (:class:`BatchFaultSimulator`) against the
  per-fault :class:`SerialFaultSimulator`;
* multi-fault injection (:func:`simulate_with_faults`);
* the batch PODEM's implication sweep, which folds each level's gates
  of one fold as one group on five-valued interval rails, against a
  scalar five-valued walk on every node and pin row, lane and machine;
* the batch PODEM against the recursive :class:`Podem`, fault for
  fault.

Tier-1 runs a few examples of each; the ``slow`` twins run many more.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.batch_podem import BatchPodem
from repro.circuit.gates import X3, GateType
from repro.circuit.netlist import Circuit, Gate
from repro.diagnosis.inject import simulate_with_faults
from repro.faults.model import full_fault_list
from repro.sim.batch import BatchFaultSimulator
from repro.sim.logic import CompiledCircuit
from repro.utils.bitvec import BitVector, PackedPlanes

from oracles.podem import Podem
from oracles.scalar import eval_gate_3v_scalar
from oracles.serial import SerialFaultSimulator

_LOGIC = [
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
]


@st.composite
def circuits(draw) -> Circuit:
    """A random combinational circuit over every gate type: arities
    1-9, two constants, and one gate that reads a net on two pins."""
    n_inputs = draw(st.integers(min_value=2, max_value=6))
    inputs = [f"i{k}" for k in range(n_inputs)]
    gates = [Gate("k0", GateType.CONST0), Gate("k1", GateType.CONST1)]
    nets = inputs + ["k0", "k1"]
    n_gates = draw(st.integers(min_value=4, max_value=30))
    twice = draw(st.integers(min_value=0, max_value=n_gates - 1))
    for index in range(n_gates):
        gtype = draw(st.sampled_from(_LOGIC))
        if gtype in (GateType.NOT, GateType.BUF):
            arity = 1
        else:
            arity = draw(st.integers(min_value=2 if index == twice else 1, max_value=9))
        fanins = draw(st.lists(st.sampled_from(nets), min_size=arity, max_size=arity))
        if index == twice and arity > 1:
            fanins[1] = fanins[0]
        name = f"g{index}"
        gates.append(Gate(name, gtype, tuple(fanins)))
        nets.append(name)
    readers = {f for gate in gates for f in gate.fanins}
    outputs = [g.name for g in gates[2:] if g.name not in readers]
    outputs += draw(st.lists(st.sampled_from(nets[n_inputs + 2 :]), max_size=3))
    return Circuit("fold", inputs, list(dict.fromkeys(outputs)), gates)


def _scalar_walk(
    circuit: Circuit,
    codes: np.ndarray,
    stems: dict[str, int] | None = None,
    branches: dict[tuple[str, int], int] | None = None,
) -> dict[str, np.ndarray]:
    """Every net's codes, one gate and one pattern at a time, with stem
    faults holding their net and branch faults their gate's pin."""
    stems = stems or {}
    branches = branches or {}
    n_patterns = codes.shape[1]
    values = {name: codes[k] for k, name in enumerate(circuit.inputs)}
    for name in values:
        if name in stems:
            values[name] = np.full(n_patterns, stems[name])
    for name in circuit.topo_order():
        if name in values:
            continue
        gate = circuit.gates[name]
        column = []
        for p in range(n_patterns):
            pins = [
                branches.get((name, pin), int(values[net][p]))
                for pin, net in enumerate(gate.fanins)
            ]
            column.append(eval_gate_3v_scalar(gate.gtype, pins))
        values[name] = np.full(n_patterns, stems[name]) if name in stems else np.array(column)
    return values


def _words(codes: np.ndarray, m: int) -> np.ndarray:
    """Packed ``m``-plane input state of a code matrix (0/1 at m = 1)."""
    words = PackedPlanes.from_codes(codes).words
    return words[:, : words.shape[1] // 2] if m == 1 else words


def _codes(state: np.ndarray, n_patterns: int, m: int) -> np.ndarray:
    """Per-node codes 0/1/2 of packed ``m``-plane state."""
    bits = np.unpackbits(
        state.view(np.uint8).reshape(state.shape[0], m, -1), axis=2, bitorder="little"
    )[:, :, :n_patterns]
    if m == 1:
        return bits[:, 0]
    return np.where(bits[:, 1] == 1, bits[:, 0], X3)


def check_simulate(circuit: Circuit, seed: int) -> None:
    compiled = CompiledCircuit(circuit)
    rng = np.random.default_rng(seed)
    n_patterns = 70
    for m, alphabet in ((1, 2), (2, 3)):
        codes = rng.integers(0, alphabet, size=(circuit.n_inputs, n_patterns))
        got = _codes(compiled.simulate(_words(codes, m), m), n_patterns, m)
        want = _scalar_walk(circuit, codes)
        for node, name in enumerate(compiled.order):
            assert got[node].tolist() == want[name].tolist(), (m, name)


def check_stem_regions(circuit: Circuit, seed: int) -> None:
    rng = random.Random(seed)
    patterns = [BitVector.random(circuit.n_inputs, rng) for _ in range(67)]
    faults = full_fault_list(circuit)
    fast = BatchFaultSimulator(circuit, batch_size=4).detection_matrix(patterns, faults)
    slow = SerialFaultSimulator(circuit).detection_matrix(patterns, faults)
    np.testing.assert_array_equal(fast, slow)


def check_injection(circuit: Circuit, seed: int) -> None:
    rng = np.random.default_rng(seed)
    faults = full_fault_list(circuit)
    picked = {}
    for index in rng.permutation(len(faults))[:3].tolist():
        picked.setdefault(faults[index].site, faults[index])
    chosen = list(picked.values())
    n_patterns = 70
    codes = rng.integers(0, 2, size=(circuit.n_inputs, n_patterns))
    compiled = CompiledCircuit(circuit)
    got = _codes(simulate_with_faults(compiled, _words(codes, 1), chosen), n_patterns, 1)
    stems = {f.site.net: f.value for f in chosen if not f.site.is_branch}
    branches = {(f.site.gate, f.site.pin): f.value for f in chosen if f.site.is_branch}
    want = _scalar_walk(circuit, codes, stems, branches)
    for node, name in enumerate(compiled.order):
        assert got[node].tolist() == want[name].tolist(), (name, chosen)


def _rail_codes(planes: np.ndarray, machine: int, n_words: int, n_lanes: int) -> np.ndarray:
    """Per-row codes 0/1/2 of one machine of the batch PODEM's interval
    rails ``[l_good, l_faulty, u_good, u_faulty]``."""
    def bits(rail: int) -> np.ndarray:
        words = np.ascontiguousarray(planes[:, rail * n_words : (rail + 1) * n_words])
        return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")[:, :n_lanes]

    known1, maybe1 = bits(machine), bits(2 + machine)
    assert not np.any(known1 & ~maybe1), "l must imply u"
    return np.where(known1 == maybe1, known1, X3)


def check_planes(circuit: Circuit, seed: int) -> None:
    rng = np.random.default_rng(seed)
    n_lanes = 70
    podem = BatchPodem(circuit, batch_size=n_lanes)
    faults = full_fault_list(circuit)
    # One random stem or branch fault per lane; about one lane in eight
    # stays empty, its faulty machine the good one.
    lanes = {
        col: faults[index]
        for col, index in enumerate(rng.integers(0, len(faults), size=n_lanes).tolist())
        if rng.random() >= 0.125
    }
    podem._prepare_sites(lanes.values())
    for col, fault in lanes.items():
        podem._seat(col, fault)
    codes = rng.integers(0, 3, size=(circuit.n_inputs, n_lanes)).astype(np.uint8)
    podem._codes[:, :n_lanes] = codes
    podem._imply()
    w = podem._n_words
    good = _rail_codes(podem._P, 0, w, n_lanes)
    faulty = _rail_codes(podem._P, 1, w, n_lanes)
    want_good = _scalar_walk(circuit, codes)
    want_faulty = {name: column.copy() for name, column in want_good.items()}
    forced_pins: dict[tuple[str, int], dict[int, int]] = {}
    for fault in set(lanes.values()):
        cols = [col for col, f in lanes.items() if f == fault]
        site = fault.site
        if site.is_branch:
            branch = (site.gate, site.pin)
            walk = _scalar_walk(circuit, codes[:, cols], branches={branch: fault.value})
            forced_pins.setdefault(branch, {}).update(dict.fromkeys(cols, fault.value))
        else:
            walk = _scalar_walk(circuit, codes[:, cols], stems={site.net: fault.value})
        for name, column in walk.items():
            want_faulty[name][cols] = column
    compiled = podem._compiled
    for node, name in enumerate(compiled.order):
        row = podem._row_of[node]
        assert good[row].tolist() == want_good[name].tolist(), ("good", name)
        assert faulty[row].tolist() == want_faulty[name].tolist(), ("faulty", name)
    # A pin row reads its net, and holds the stuck value in the lanes of
    # its own branch fault.
    for (gate_id, pin), row in podem._pin_rows.items():
        net = compiled.order[compiled.gate_fanins[gate_id][pin]]
        want = want_faulty[net].copy()
        for col, value in forced_pins.get((compiled.order[gate_id], pin), {}).items():
            want[col] = value
        assert good[row].tolist() == want_good[net].tolist(), ("good pin", gate_id, pin)
        assert faulty[row].tolist() == want.tolist(), ("faulty pin", gate_id, pin)


def check_podem(circuit: Circuit) -> None:
    faults = full_fault_list(circuit)
    oracle = Podem(circuit)
    for fault, got in BatchPodem(circuit, batch_size=64).stream(faults):
        want = oracle.generate(fault)
        assert (got.status, got.cube, got.backtracks, got.decisions) == (
            want.status, want.cube, want.backtracks, want.decisions
        ), fault


_SEEDS = st.integers(min_value=0, max_value=2**31)


@settings(max_examples=15, deadline=None)
@given(circuit=circuits(), seed=_SEEDS)
def test_simulate_matches_scalar_walk(circuit, seed):
    check_simulate(circuit, seed)


@settings(max_examples=10, deadline=None)
@given(circuit=circuits(), seed=_SEEDS)
def test_stem_regions_match_serial(circuit, seed):
    check_stem_regions(circuit, seed)


@settings(max_examples=10, deadline=None)
@given(circuit=circuits(), seed=_SEEDS)
def test_injection_matches_scalar_walk(circuit, seed):
    check_injection(circuit, seed)


@settings(max_examples=10, deadline=None)
@given(circuit=circuits(), seed=_SEEDS)
def test_podem_planes_match_scalar_walk(circuit, seed):
    check_planes(circuit, seed)


@settings(max_examples=5, deadline=None)
@given(circuit=circuits())
def test_podem_matches_recursive(circuit):
    check_podem(circuit)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(circuit=circuits(), seed=_SEEDS)
def test_simulate_matches_scalar_walk_many(circuit, seed):
    check_simulate(circuit, seed)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(circuit=circuits(), seed=_SEEDS)
def test_stem_regions_match_serial_many(circuit, seed):
    check_stem_regions(circuit, seed)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(circuit=circuits(), seed=_SEEDS)
def test_injection_matches_scalar_walk_many(circuit, seed):
    check_injection(circuit, seed)


@pytest.mark.slow
@settings(max_examples=150, deadline=None)
@given(circuit=circuits(), seed=_SEEDS)
def test_podem_planes_match_scalar_walk_many(circuit, seed):
    check_planes(circuit, seed)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(circuit=circuits())
def test_podem_matches_recursive_many(circuit):
    check_podem(circuit)
