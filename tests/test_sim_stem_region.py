"""Differential tests for stem-region fault simulation.

:class:`~repro.sim.batch.BatchFaultSimulator` runs one fault machine per
fanout-free-region root and derives every fault's detect word from a
good-machine trace (activation & criticality & root detection).  That
is only sound if the region structure is right, so these tests pin the
engine to two per-fault oracles on circuits built to stress it:

* at ``m = 1``, :class:`~repro.sim.fault.SerialFaultSimulator`, which
  forces each fault and re-simulates its cone;
* at ``m = 2``, a scalar per-fault 0/1/X machine written here on
  :func:`~repro.circuit.gates.eval_gate_3v_scalar`: the stuck value is
  known, and a pattern detects a fault where some primary output is
  known on both machines and differs.

The generated circuits mix reconvergent fanout, XOR-heavy logic, gates
that read one net on two pins, dangling nets and primary outputs that
also feed gates, and the pattern sets straddle 64-bit word boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit.gates import X3, GateType, eval_gate_3v_scalar
from repro.circuit.netlist import Circuit, Gate
from repro.faults.model import full_fault_list
from repro.sim.batch import BatchFaultSimulator, detected_mask, offset_dtype
from repro.sim.fault import SerialFaultSimulator
from repro.utils.bitvec import BitVector, PackedPlanes

MIXED = (
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
)
XOR_HEAVY = (
    GateType.XOR, GateType.XNOR, GateType.XOR, GateType.XNOR,
    GateType.AND, GateType.NOR, GateType.NOT,
)


@st.composite
def circuits(draw, max_gates: int = 24):
    """A random combinational circuit.  Fanins are drawn with
    replacement (so a gate may read one net on two pins) and favour
    recent nets (deep, reconvergent cones); outputs are any nets, so
    some POs also feed gates and unread non-PO nets dangle."""
    types = draw(st.sampled_from([MIXED, XOR_HEAVY]))
    n_inputs = draw(st.integers(min_value=1, max_value=6))
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    nets = [f"i{k}" for k in range(n_inputs)]
    gates = []
    for k in range(n_gates):
        gtype = draw(st.sampled_from(types + (GateType.CONST0,) * (k == 0)))
        if gtype is GateType.CONST0:
            arity = 0
        elif gtype in (GateType.NOT, GateType.BUF):
            arity = 1
        else:
            arity = draw(st.integers(min_value=1, max_value=4))
        window = nets[-draw(st.integers(min_value=2, max_value=6)):]
        fanins = tuple(draw(st.sampled_from(window)) for _ in range(arity))
        gates.append(Gate(f"g{k}", gtype, fanins))
        nets.append(f"g{k}")
    outputs = draw(
        st.lists(st.sampled_from(nets), min_size=1, max_size=4, unique=True)
    )
    if nets[-1] not in outputs:
        outputs.append(nets[-1])
    return Circuit("stem-region", nets[:n_inputs], outputs, gates)


def _eval_3v(circuit, topo, inputs: dict[str, int], fault=None) -> dict[str, int]:
    """One scalar 0/1/X pass, with ``fault`` (if any) injected: a stem
    fault pins its net, a branch fault pins one pin of its gate."""
    values: dict[str, int] = {}
    for name in topo:
        if name in inputs:
            value = inputs[name]
        else:
            gate = circuit.gates[name]
            pins = [values[net] for net in gate.fanins]
            if fault is not None and fault.site.gate == name:
                pins[fault.site.pin] = fault.value
            value = eval_gate_3v_scalar(gate.gtype, pins)
        if fault is not None and not fault.site.is_branch and fault.site.net == name:
            value = fault.value
        values[name] = value
    return values


def _scalar_matrix_3v(circuit, codes: np.ndarray, faults) -> np.ndarray:
    """The per-fault 0/1/X reference: ``[p, f]`` is True iff some PO
    is known on both machines and differs under pattern ``p``."""
    topo = circuit.topo_order()
    matrix = np.zeros((codes.shape[1], len(faults)), dtype=bool)
    for p in range(codes.shape[1]):
        inputs = {name: int(codes[k, p]) for k, name in enumerate(circuit.inputs)}
        good = _eval_3v(circuit, topo, inputs)
        for j, fault in enumerate(faults):
            bad = _eval_3v(circuit, topo, inputs, fault)
            matrix[p, j] = any(
                good[o] != X3 and bad[o] != X3 and good[o] != bad[o]
                for o in circuit.outputs
            )
    return matrix


def _first_rows(matrices: list[np.ndarray], n_faults: int) -> np.ndarray:
    """First-detection rows from per-row pattern x fault matrices."""
    dtype = offset_dtype(max((m.shape[0] for m in matrices), default=0))
    table = np.full((len(matrices), n_faults), np.iinfo(dtype).max, dtype=dtype)
    for row, matrix in enumerate(matrices):
        hit = matrix.any(axis=0)
        table[row, hit] = matrix.argmax(axis=0)[hit]
    return table


def _splits(n_patterns: int, cuts: list[int]) -> list[tuple[int, int]]:
    bounds = sorted({0, n_patterns, *(min(c, n_patterns) for c in cuts)})
    return list(zip(bounds, bounds[1:]))


def _bit_patterns(circuit, bits: np.ndarray) -> list[BitVector]:
    return [
        BitVector(int("".join(str(b) for b in column[::-1]) or "0", 2), circuit.n_inputs)
        for column in bits.T
    ]


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    circuit=circuits(),
    n_patterns=st.integers(min_value=1, max_value=200),
    cuts=st.lists(st.integers(min_value=1, max_value=200), max_size=3),
    seed=st.integers(min_value=0, max_value=2**31),
    batch_size=st.sampled_from([1, 3, 32]),
    row_chunk_words=st.sampled_from([1, 2, 64]),
)
def test_two_valued_matches_serial(
    circuit, n_patterns, cuts, seed, batch_size, row_chunk_words
):
    faults = full_fault_list(circuit)
    rng = np.random.default_rng(seed)
    patterns = _bit_patterns(circuit, rng.integers(0, 2, (circuit.n_inputs, n_patterns)))
    serial = SerialFaultSimulator(circuit)
    engine = BatchFaultSimulator(
        circuit, batch_size=batch_size, row_chunk_words=row_chunk_words
    )
    expected = serial.detection_matrix(patterns, faults)
    np.testing.assert_array_equal(engine.detection_matrix(patterns, faults), expected)
    rows = [patterns[lo:hi] for lo, hi in _splits(n_patterns, cuts)]
    table = np.array(list(engine.first_detection_rows(rows, faults)))
    np.testing.assert_array_equal(
        table, _first_rows([serial.detection_matrix(r, faults) for r in rows], len(faults))
    )
    assert engine.first_detection_index(patterns, faults) == (
        serial.first_detection_index(patterns, faults)
    )


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    circuit=circuits(max_gates=14),
    n_patterns=st.integers(min_value=1, max_value=70),
    cut=st.integers(min_value=1, max_value=70),
    x_percent=st.sampled_from([0, 10, 40]),
    seed=st.integers(min_value=0, max_value=2**31),
    row_chunk_words=st.sampled_from([1, 64]),
)
def test_three_valued_matches_scalar_reference(
    circuit, n_patterns, cut, x_percent, seed, row_chunk_words
):
    faults = full_fault_list(circuit)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 2, (circuit.n_inputs, n_patterns)).astype(np.uint8)
    codes[rng.integers(0, 100, codes.shape) < x_percent] = X3
    expected = _scalar_matrix_3v(circuit, codes, faults)
    engine = BatchFaultSimulator(
        circuit, batch_size=3, row_chunk_words=row_chunk_words
    )
    np.testing.assert_array_equal(
        engine.detection_matrix(PackedPlanes.from_codes(codes), faults), expected
    )
    spans = _splits(n_patterns, [cut])
    rows = [PackedPlanes.from_codes(codes[:, lo:hi]) for lo, hi in spans]
    table = np.array(list(engine.first_detection_rows(rows, faults)))
    np.testing.assert_array_equal(
        table, _first_rows([expected[lo:hi] for lo, hi in spans], len(faults))
    )


@pytest.fixture
def structured() -> Circuit:
    """Every region shape in one circuit: ``d`` reads ``a`` on two
    pins, ``y`` is a PO that also feeds ``z``, ``u`` dangles, ``b``
    reconverges at ``z`` through ``p`` and ``q``, and ``x`` is an XOR
    chain inside one region."""
    return Circuit(
        "structured",
        ["a", "b", "c"],
        ["y", "z"],
        [
            Gate("d", GateType.AND, ("a", "a")),
            Gate("p", GateType.NAND, ("b", "c")),
            Gate("q", GateType.NOR, ("b", "d")),
            Gate("x", GateType.XOR, ("p", "c")),
            Gate("y", GateType.XNOR, ("x", "q")),
            Gate("u", GateType.OR, ("y", "c")),
            Gate("z", GateType.AND, ("y", "b", "c")),
        ],
    )


def test_region_roots(structured):
    """Roots are POs and nets read on other than one pin; every other
    net belongs to its one reader's region."""
    engine = BatchFaultSimulator(structured)
    index = engine.compiled.index
    root = {
        name: engine.compiled.order[engine._tables.ffr_root[node]]
        for name, node in index.items()
    }
    # a: read twice by d; b, c: fanout stems; y: PO that fans out; z:
    # PO; u: dangling.  d, p, q, x sit in y's region.
    assert {name for name, r in root.items() if r == name} == {
        "a", "b", "c", "y", "z", "u",
    }
    assert {name for name, r in root.items() if r == "y"} == {"d", "p", "q", "x", "y"}


@pytest.mark.parametrize("x_percent", [0, 30])
def test_structured_circuit_matches_references(structured, x_percent):
    rng = np.random.default_rng(5)
    faults = full_fault_list(structured)
    codes = rng.integers(0, 2, (3, 150)).astype(np.uint8)
    codes[rng.integers(0, 100, codes.shape) < x_percent] = X3
    expected = _scalar_matrix_3v(structured, codes, faults)
    planes = PackedPlanes.from_codes(codes)
    np.testing.assert_array_equal(
        BatchFaultSimulator(structured).detection_matrix(planes, faults), expected
    )
    if not x_percent:
        patterns = _bit_patterns(structured, codes)
        np.testing.assert_array_equal(
            SerialFaultSimulator(structured).detection_matrix(patterns, faults),
            expected,
        )
        np.testing.assert_array_equal(
            BatchFaultSimulator(structured).detection_matrix(patterns, faults),
            expected,
        )
    # The dangling net's faults are never detected.
    dangling = [j for j, fault in enumerate(faults) if fault.site.net == "u"]
    assert dangling and not expected[:, dangling].any()


def test_one_machine_per_root(structured):
    """A one-word row costs one stem machine per distinct root of the
    faults, not one machine per fault."""
    faults = full_fault_list(structured)
    engine = BatchFaultSimulator(structured)
    row = next(engine.first_detection_rows([[BitVector(5, 3)]], faults))
    roots = set(engine._regions(faults)[:, 0].tolist())
    assert engine.detect_cells == len(roots) < len(faults)
    assert detected_mask(row).any()
