"""Differential and property tests for the fault-parallel PODEM stack.

Three layers, each pinned to an independent reference:

* the ``m = 2`` lane layout and the one gate kernel's single-gate and
  segmented shapes against the scalar three-valued oracle (the batch
  PODEM's own interval-rail sweep is pinned against a scalar
  five-valued walk in ``tests/test_prop_fold_form.py``);
* :class:`~repro.atpg.batch_podem.BatchPodem` against the recursive
  :class:`~oracles.podem.Podem` oracle — the batch engine runs the
  oracle's objective, backtrace and decision rules for every lane in
  lock step, so the two must agree **bit for bit**: same statuses, same
  cubes, same backtrack and decision counts, for every lane geometry
  (one lane, word boundaries, partly filled words), PI stem faults,
  XOR/XNOR branch pins and both backtrace heuristics, and decision for
  decision on hand-built backtrace edge cases.  (This is strictly stronger than the
  required contract — DETECTED/UNTESTABLE equal, ABORTED allowed to
  differ only toward more detections — so that contract holds a
  fortiori.)
* the full :class:`~repro.atpg.engine.AtpgEngine`: measured
  (re-simulated, not assumed) coverage of 1.0 over the target fault
  list, untestable and aborted sets checked against ``Podem.generate``
  on every collapsed fault, and pinned aggregates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg.batch_podem import BatchPodem, PodemStatus
from repro.atpg.engine import AtpgEngine
from repro.circuit.gates import (
    FOLD_IDENTITY,
    X3,
    GateType,
    eval_gates,
    gate_form,
)
from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.circuit.netlist import Circuit, Gate
from repro.circuits import load_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault, full_fault_list
from repro.flow.serialize import decode, encode
from repro.utils.bitvec import PackedPlanes

from oracles.podem import Podem
from oracles.scalar import eval_gate_3v_scalar

# ---------------------------------------------------------------------------
# the m = 2 lane layout the simulators run on, against the scalar oracle
# ---------------------------------------------------------------------------

PLANE_TYPES = [
    GateType.AND,
    GateType.NAND,
    GateType.OR,
    GateType.NOR,
    GateType.XOR,
    GateType.XNOR,
    GateType.NOT,
    GateType.BUF,
]

codes3 = st.integers(min_value=0, max_value=2)


def _words(codes: np.ndarray) -> np.ndarray:
    """Codes ``(rows, lanes)`` as ``m = 2`` state rows (value | care)."""
    return PackedPlanes.from_codes(codes).words.copy()


def _codes(words: np.ndarray, n_lanes: int) -> np.ndarray:
    n = words.shape[-1] // 2
    return PackedPlanes(words[:, :n], words[:, n:], n_lanes).to_codes()


@settings(max_examples=60, deadline=None)
@given(codes=st.lists(codes3, min_size=1, max_size=200))
def test_planes_roundtrip(codes):
    """Codes survive the side-by-side (value | care) lane layout."""
    words = _words(np.array([codes], dtype=np.uint8))
    n = words.shape[1] // 2
    assert np.all(words[:, :n] & ~words[:, n:] == 0), "value bits must be 0 where care is 0"
    assert _codes(words, len(codes))[0].tolist() == codes


@settings(max_examples=120, deadline=None)
@given(
    gtype=st.sampled_from(PLANE_TYPES),
    fanin_codes=st.lists(
        st.lists(codes3, min_size=1, max_size=70), min_size=1, max_size=5
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
)
def test_reduce_gate_planes_matches_reference(gtype, fanin_codes):
    """Random wide gates (arity up to 5, lanes across a word boundary)."""
    if gtype in (GateType.NOT, GateType.BUF):
        fanin_codes = fanin_codes[:1]
    stacked = np.array(fanin_codes, dtype=np.uint8)  # (arity, n_lanes)
    out = eval_gates(*gate_form(gtype), _words(stacked), 2, axis=0)
    got = _codes(out[None, :], stacked.shape[1])[0]
    expected = [
        eval_gate_3v_scalar(gtype, list(stacked[:, lane]))
        for lane in range(stacked.shape[1])
    ]
    assert got.tolist() == expected


@settings(max_examples=80, deadline=None)
@given(
    gtype=st.sampled_from(PLANE_TYPES),
    arities=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_padded_bucket_matches_single_gates(gtype, arities, seed):
    """The ragged-arity bucket, padded to its widest gate with the fold's
    identity, agrees gate by gate with the single-gate shape."""
    if gtype in (GateType.NOT, GateType.BUF):
        arities = [1] * len(arities)
    fold, invert = gate_form(gtype)
    rng = np.random.default_rng(seed)
    n_lanes = 130  # forces 3 words incl. a partial tail
    width = max(arities)
    codes = rng.integers(0, 3, size=(len(arities), width, n_lanes)).astype(np.uint8)
    for gate, arity in enumerate(arities):
        codes[gate, arity:] = FOLD_IDENTITY[fold]
    bucket = np.stack([_words(gate_codes) for gate_codes in codes])
    out = eval_gates(fold, invert, bucket.copy(), 2, axis=1)
    for gate, arity in enumerate(arities):
        ref = eval_gates(fold, invert, bucket[gate, :arity].copy(), 2, axis=0)
        assert np.array_equal(out[gate], ref)


def test_not_planes_involution():
    rng = np.random.default_rng(7)
    words = _words(rng.integers(0, 3, size=(1, 100)).astype(np.uint8))
    once = eval_gates(*gate_form(GateType.NOT), words.copy(), 2, axis=0)
    twice = eval_gates(*gate_form(GateType.NOT), once[None, :], 2, axis=0)
    assert np.array_equal(twice, words[0])


# ---------------------------------------------------------------------------
# BatchPodem vs the recursive oracle: bit-for-bit agreement
# ---------------------------------------------------------------------------

circuits = st.builds(
    generate_circuit,
    st.builds(
        GeneratorSpec,
        name=st.just("prop"),
        n_inputs=st.integers(min_value=2, max_value=10),
        n_outputs=st.integers(min_value=1, max_value=4),
        n_gates=st.integers(min_value=5, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
    ),
)


def _result_key(result):
    return (
        result.status,
        result.cube.assignments if result.cube is not None else None,
        result.backtracks,
        result.decisions,
    )


def _assert_streams_identical(circuit, faults, **batch_kwargs):
    oracle = Podem(circuit, heuristic=batch_kwargs.get("heuristic", "level"))
    expected = {fault: _result_key(oracle.generate(fault)) for fault in faults}
    podem = BatchPodem(circuit, **batch_kwargs)
    got = {fault: _result_key(result) for fault, result in podem.stream(faults)}
    assert set(got) == set(expected)
    for fault in faults:
        assert got[fault] == expected[fault], f"{fault} diverged"


@settings(max_examples=25, deadline=None)
@given(circuit=circuits)
def test_batch_podem_matches_oracle_generated(circuit):
    """Every collapsed fault of a random circuit resolves identically:
    the vector implication and per-lane search machinery carry every
    fault end to end."""
    faults = collapse_faults(circuit)
    _assert_streams_identical(circuit, faults, batch_size=64)


@pytest.mark.parametrize("name", ["c499", "s420", "s1238"])
def test_batch_podem_matches_oracle_catalog(name):
    circuit = load_circuit(name, scale=0.25)
    faults = collapse_faults(circuit)
    _assert_streams_identical(circuit, faults)


@settings(max_examples=15, deadline=None)
@given(circuit=circuits)
def test_batch_podem_scoap_matches_oracle_generated(circuit):
    """The SCOAP-guided backtrace resolves every collapsed fault of a
    random circuit exactly as ``Podem(heuristic="scoap")`` does."""
    faults = collapse_faults(circuit)
    _assert_streams_identical(circuit, faults, batch_size=64, heuristic="scoap")


def test_batch_podem_scoap_matches_oracle_s420():
    circuit = load_circuit("s420", scale=0.25)
    faults = collapse_faults(circuit)
    _assert_streams_identical(circuit, faults, heuristic="scoap")


#: XOR-heavy gate mix: parity backtraces and XOR/XNOR branch pins
#: dominate the search.
XOR_HEAVY = (
    (GateType.XOR, 0.35),
    (GateType.XNOR, 0.25),
    (GateType.NAND, 0.1),
    (GateType.OR, 0.1),
    (GateType.NOT, 0.1),
    (GateType.BUF, 0.1),
)

xor_circuits = st.builds(
    generate_circuit,
    st.builds(
        GeneratorSpec,
        name=st.just("xor"),
        n_inputs=st.integers(min_value=2, max_value=10),
        n_outputs=st.integers(min_value=1, max_value=4),
        n_gates=st.integers(min_value=5, max_value=40),
        seed=st.integers(min_value=0, max_value=2**31),
        gate_weights=st.just(XOR_HEAVY),
    ),
)


@pytest.mark.parametrize("batch_size", [1, 63, 65, 130])
def test_batch_podem_lane_geometry(batch_size):
    """Lanes on one word, across a word boundary, and on a third,
    partly filled word resolve exactly as the oracle does."""
    circuit = load_circuit("s420", scale=0.25)
    faults = collapse_faults(circuit)
    _assert_streams_identical(circuit, faults, batch_size=batch_size)


@settings(max_examples=15, deadline=None)
@given(circuit=circuits)
def test_batch_podem_pi_stem_faults(circuit):
    """Stem faults on primary inputs: forced at level 0, before any
    gate reads them."""
    faults = [Fault.stem(pi, value) for pi in circuit.inputs for value in (0, 1)]
    _assert_streams_identical(circuit, faults, batch_size=65)


@settings(max_examples=15, deadline=None)
@given(circuit=xor_circuits)
def test_batch_podem_xor_branch_faults(circuit):
    """Branch faults on every XOR/XNOR pin, whether or not the net fans
    out: the stuck pin shows through its own pin row."""
    faults = [
        Fault.branch(net, gate.name, pin, value)
        for gate in circuit.gates.values()
        if gate.gtype in (GateType.XOR, GateType.XNOR)
        for pin, net in enumerate(gate.fanins)
        for value in (0, 1)
    ]
    _assert_streams_identical(circuit, faults, batch_size=63)


@settings(max_examples=15, deadline=None)
@given(circuit=xor_circuits)
def test_batch_podem_scoap_matches_oracle_xor_heavy(circuit):
    """The SCOAP-guided backtrace through XOR-heavy logic."""
    faults = collapse_faults(circuit)
    _assert_streams_identical(circuit, faults, batch_size=130, heuristic="scoap")


def test_batch_podem_single_fault_generate():
    """``generate`` (the one-fault convenience wrapper) matches too."""
    circuit = load_circuit("c17")
    oracle = Podem(circuit)
    podem = BatchPodem(circuit)
    for fault in collapse_faults(circuit):
        assert _result_key(podem.generate(fault)) == _result_key(
            oracle.generate(fault)
        )


def test_batch_podem_drop_skips_faults():
    """Faults dropped mid-stream never surface; the rest still resolve
    identically to the oracle."""
    circuit = load_circuit("s420", scale=0.25)
    faults = collapse_faults(circuit)
    podem = BatchPodem(circuit, batch_size=64)
    resolved = {}
    dropped: set = set()
    for fault, result in podem.stream(faults):
        resolved[fault] = result
        if not dropped:
            # After the first yield, retire a third of the outstanding
            # work — some still queued, some mid-search in lanes.
            dropped = set(
                (podem.queued_faults() + podem.active_faults())[::3]
            )
            podem.drop(dropped)
    assert dropped and not dropped & set(resolved)
    oracle = Podem(circuit)
    for fault, result in resolved.items():
        assert _result_key(result) == _result_key(oracle.generate(fault))


def test_sweep_one_fold_group_per_level_and_fold():
    """The implication sweep folds each level's gates of one fold as one
    group, whatever their arities: 92 groups on s1238@1.0, where the
    simulators' fold buckets split ragged folds into 114."""
    podem = BatchPodem(load_circuit("s1238", scale=1.0))
    comp = podem._compiled
    levels = comp.node_levels[podem._node_of_row]
    folds = comp.folds[podem._node_of_row]
    groups = [group for level in podem._level_groups for group in level]
    pairs = {(level, fold) for level, fold in zip(levels, folds) if fold >= 0}
    assert len(groups) == len(pairs) == 92
    assert sum(len(buckets) for _, buckets in comp.plan) == 114
    assert [len(groups) for _, _, groups, _ in podem._plan] == [
        len(level) for level in podem._level_groups
    ]
    rows = []
    for fold, ga, gb, width, inverting in groups:
        assert len(set(levels[ga:gb].tolist())) == 1
        assert set(folds[ga:gb].tolist()) == {fold}
        # The inverting gates close the group.
        assert not comp.inverted[podem._node_of_row[ga:inverting]].any()
        assert comp.inverted[podem._node_of_row[inverting:gb]].all()
        assert width == comp.arity[podem._node_of_row[ga:gb]].max()
        rows.extend(range(ga, gb))
    assert rows == list(range(podem._n_sources, comp.n_nodes))


# ---------------------------------------------------------------------------
# backtrace edge cases, decision for decision
# ---------------------------------------------------------------------------


def _oracle_decisions(oracle: Podem, fault: Fault) -> tuple[tuple, list]:
    """``oracle.generate(fault)`` and every decision it made, in order:
    each backtrace that reaches a PI is one decision."""
    decisions = []
    backtrace = oracle._backtrace

    def record(objective):
        found = backtrace(objective)
        if found is not None:
            decisions.append((oracle._name[found[0]], found[1]))
        return found

    oracle._backtrace = record
    try:
        return _result_key(oracle.generate(fault)), decisions
    finally:
        del oracle._backtrace


def _batch_decisions(podem: BatchPodem, faults) -> dict:
    """Stream ``faults`` and log every lane's decisions, in order."""
    decisions: dict = {fault: [] for fault in faults}
    decide = podem._decide

    def record(cols, pis, values):
        for col, pi, value in zip(cols.tolist(), pis.tolist(), values.tolist()):
            name = podem._input_names[podem._input_index[pi]]
            decisions[podem._faults[col]].append((name, value))
        decide(cols, pis, values)

    podem._decide = record
    results = {fault: _result_key(result) for fault, result in podem.stream(faults)}
    return {fault: (results[fault], decisions[fault]) for fault in faults}


def _assert_decisions_identical(circuit: Circuit, heuristic: str) -> None:
    faults = full_fault_list(circuit)
    oracle = Podem(circuit, heuristic=heuristic)
    got = _batch_decisions(BatchPodem(circuit, heuristic=heuristic, batch_size=64), faults)
    for fault in faults:
        assert got[fault] == _oracle_decisions(oracle, fault), fault


def _tie_circuit() -> Circuit:
    """Equal-cost X fanins for both backtrace rules: PIs tie at level 0,
    ``p``/``q`` tie at level 1 behind a deeper pin, and SCOAP ties by
    symmetry.  An objective of 0 on an AND (or 1 on an OR) takes the
    easiest X fanin; the opposite value takes the hardest."""
    gates = [
        Gate("p", GateType.AND, ("a", "b")),
        Gate("q", GateType.AND, ("c", "d")),
        Gate("r", GateType.OR, ("a", "c")),
        Gate("x", GateType.NAND, ("p", "r")),
        Gate("e", GateType.AND, ("a", "b", "c")),
        Gate("f", GateType.NOR, ("b", "c", "d")),
        Gate("g", GateType.AND, ("x", "p", "q")),
        Gate("h", GateType.OR, ("p", "x", "q")),
        Gate("k", GateType.NAND, ("q", "p")),
    ]
    return Circuit("ties", ["a", "b", "c", "d"], ["e", "f", "g", "h", "k"], gates)


def _shared_net_xor_circuit() -> Circuit:
    """An XOR and an XNOR that each read one net on two pins: the
    parity of the other pins counts a known net twice, the chosen X
    net not at all."""
    gates = [
        Gate("s", GateType.AND, ("a", "b")),
        Gate("x", GateType.XOR, ("a", "s", "a", "c")),
        Gate("y", GateType.XNOR, ("s", "s", "d")),
        Gate("z", GateType.XOR, ("x", "y", "b")),
    ]
    return Circuit("xor2", ["a", "b", "c", "d"], ["z", "x"], gates)


@pytest.mark.parametrize("heuristic", ["level", "scoap"])
@pytest.mark.parametrize("build", [_tie_circuit, _shared_net_xor_circuit])
def test_backtrace_edge_cases_decision_for_decision(build, heuristic):
    """Equal-cost X fanins under the easiest and the hardest rule, and
    XOR/XNOR gates reading one net on two pins: every lane makes the
    oracle's decisions, in the oracle's order."""
    _assert_decisions_identical(build(), heuristic)


def test_backtrace_meets_gate_without_x_fanin():
    """A backtrace from a gate whose fanins are all known stops with no
    PI, as the oracle's does; the other lanes of the same call walk on
    to their PIs."""
    circuit = Circuit(
        "dead",
        ["a", "b", "c"],
        ["y"],
        [
            Gate("k", GateType.CONST1),
            Gate("g", GateType.AND, ("a", "b")),
            Gate("t", GateType.XOR, ("a", "k")),
            Gate("y", GateType.OR, ("g", "t", "c")),
        ],
    )
    oracle = Podem(circuit)
    podem = BatchPodem(circuit, batch_size=4)
    # Good machine: a = 0, b = 1, c = X -> g = 0, t = 1, y = X.
    codes = {"a": 0, "b": 1, "c": X3}
    podem._codes[:] = np.array([codes[name] for name in circuit.inputs], dtype=np.uint8)[
        :, None
    ]
    podem._imply()
    planes = podem._P[: podem._sentinel + 1]
    x_good, one_good = podem._good_state(planes)
    good: dict[str, int] = {}
    for name in circuit.topo_order():
        gate = circuit.gates.get(name)
        good[name] = (
            codes[name]
            if gate is None
            else eval_gate_3v_scalar(gate.gtype, [good[f] for f in gate.fanins])
        )
    oracle._good = [good[name] for name in oracle._name]
    objectives = [("g", 1), ("t", 0), ("k", 0), ("y", 1)]
    row_of = podem._row_of
    index = podem._compiled.index
    node = np.array([row_of[index[name]] for name, _ in objectives], dtype=np.int64)
    target = np.array([value for _, value in objectives], dtype=np.int64)
    pis, values, ok = podem._backtrace(
        x_good, one_good, np.arange(len(objectives), dtype=np.int64), node, target
    )
    for (name, value), pi, v, reached in zip(objectives, pis, values, ok):
        want = oracle._backtrace((oracle._id[name], value))
        if want is None:
            assert not reached, name
        else:
            assert reached and pi == row_of[index[oracle._name[want[0]]]] and v == want[1]
    assert ok.tolist() == [False, False, False, True]


# ---------------------------------------------------------------------------
# the full engine: measured coverage, classification against the oracle
# ---------------------------------------------------------------------------


#: Collapsed faults at scale 0.25 that ``Podem.generate`` calls
#: UNTESTABLE although a pattern detects them.  PODEM's objective gives
#: up when the closest D-frontier gate has no X input in the good
#: machine (its output is X only in the faulty machine), even while
#: other frontier gates could still propagate, so the verdict is not a
#: proof.  The engine's random phase detects these faults first.
FALSE_UNTESTABLE = {"c499": 1, "c880": 3, "s420": 6}


@pytest.mark.parametrize("name", sorted(FALSE_UNTESTABLE))
def test_engine_equal_coverage(name):
    """The engine produces a complete covering (measured, not assumed)
    and classifies faults as the scalar oracle does.  A fault the oracle
    calls UNTESTABLE can be neither randomly detected nor fault-dropped
    if it is truly redundant, so the engine's untestable set is the
    oracle's UNTESTABLE set less the faults the final test set detects,
    and every aborted fault is one the oracle aborts too."""
    circuit = load_circuit(name, scale=0.25)
    engine = AtpgEngine(circuit, max_random_patterns=512)
    result = engine.run()
    assert result.measured_coverage == 1.0
    assert result.fault_coverage == 1.0
    oracle = Podem(circuit)
    statuses = {
        fault: oracle.generate(fault).status for fault in collapse_faults(circuit)
    }
    proven = {
        fault for fault, status in statuses.items()
        if status is PodemStatus.UNTESTABLE
    }
    assert set(result.untestable) <= proven
    detected = sorted(proven - set(result.untestable), key=str)
    assert all(engine.simulator.detected(result.test_set, detected))
    assert len(detected) == FALSE_UNTESTABLE[name]
    assert set(result.aborted) <= {
        fault for fault, status in statuses.items()
        if status is PodemStatus.ABORTED
    }


#: Pinned engine aggregates at a 64-pattern random budget (so the
#: deterministic top-off actually runs): (test length, |F|, untestable,
#: aborted, podem patterns, random patterns kept).
ENGINE_PINS = {
    "c499": (21, 185, 31, 0, 6, 21),
    "s420": (7, 94, 125, 0, 0, 9),
}


@pytest.mark.parametrize("name", sorted(ENGINE_PINS))
def test_engine_aggregates_pinned(name):
    circuit = load_circuit(name, scale=0.25)
    result = AtpgEngine(circuit, max_random_patterns=64).run()
    assert (
        result.test_length,
        len(result.target_faults),
        len(result.untestable),
        len(result.aborted),
        result.podem_patterns,
        result.random_patterns_kept,
    ) == ENGINE_PINS[name]
    assert result.measured_coverage == 1.0


def test_engine_vacuous_coverage():
    """An empty target list is vacuously covered (1.0, not 0.0)."""
    circuit = load_circuit("c17")
    result = AtpgEngine(circuit).run(faults=[])
    assert result.fault_coverage == 1.0
    assert result.measured_coverage == 1.0
    assert result.target_faults == []


def test_result_roundtrip_preserves_measured_coverage():
    """The schema-v2 dict form carries the measured coverage."""
    circuit = load_circuit("c17")
    result = AtpgEngine(circuit).run()
    clone = decode(type(result), encode(result))
    assert clone.measured_coverage == result.measured_coverage == 1.0
    assert clone.test_set == result.test_set
