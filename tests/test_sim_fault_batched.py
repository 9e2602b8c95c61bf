"""Differential tests: the batched engine must match the legacy
per-fault engine bit-for-bit.

:class:`BatchFaultSimulator` re-architects the hottest path in the repo
(shared cone-union schedules, fault-axis stacking, fault dropping), so
every public query is cross-checked against
:class:`SerialFaultSimulator` over random circuits, random batch sizes
(including degenerate ones), branch vs. stem fault sites, and pattern
counts straddling the 64-bit word boundary.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.circuits import CATALOG
from repro.faults.model import Fault, full_fault_list
from repro.sim.batch import BatchFaultSimulator, offset_dtype
from repro.sim.fault import FaultSimulator, SerialFaultSimulator
from repro.utils.bitvec import BitVector, PackedPlanes, as_planes
from repro.utils.rng import RngStream

BATCH_SIZES = (1, 7, 64)


def _roots(simulator, faults) -> tuple[int, ...]:
    """The FFR roots of ``faults`` in batch order: one stem machine
    each."""
    return tuple(root for _, _, roots in simulator._batches(faults) for root in roots)


def _random_patterns(circuit, n_patterns: int, seed: int) -> list[BitVector]:
    rng = RngStream(seed, "batched-diff", circuit.name)
    return [BitVector.random(circuit.n_inputs, rng) for _ in range(n_patterns)]


def _offset_oracle(serial, pattern_sets, faults) -> np.ndarray:
    """The first-detection table of ``pattern_sets`` from per-row
    ``first_detection_index`` (``None`` -> the dtype's max)."""
    dtype = offset_dtype(max((len(p) for p in pattern_sets), default=0))
    sentinel = np.iinfo(dtype).max
    return np.array(
        [
            [sentinel if i is None else i
             for i in serial.first_detection_index(patterns, faults)]
            for patterns in pattern_sets
        ],
        dtype=dtype,
    ).reshape(len(pattern_sets), len(faults))


def _assert_engines_match(circuit, patterns, faults, batch_size, row_chunk_words=64):
    batched = BatchFaultSimulator(
        circuit, batch_size=batch_size, row_chunk_words=row_chunk_words
    )
    serial = SerialFaultSimulator(circuit)
    np.testing.assert_array_equal(
        batched.detection_matrix(patterns, faults),
        serial.detection_matrix(patterns, faults),
    )
    assert batched.detected(patterns, faults) == serial.detected(patterns, faults)
    assert batched.first_detection_index(patterns, faults) == (
        serial.first_detection_index(patterns, faults)
    )


@st.composite
def random_circuits(draw):
    seed = draw(st.integers(0, 10_000))
    spec = GeneratorSpec(
        name=f"hyp{seed}",
        n_inputs=draw(st.integers(3, 6)),
        n_outputs=draw(st.integers(1, 3)),
        n_gates=draw(st.integers(4, 18)),
        seed=seed,
    )
    return generate_circuit(spec)


class TestDifferentialFixedCircuits:
    @pytest.mark.parametrize("circuit_name", ["c17", "s27_scan", "mux_circuit"])
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_all_queries_match(self, circuit_name, batch_size, request):
        circuit = request.getfixturevalue(circuit_name)
        faults = full_fault_list(circuit)
        patterns = _random_patterns(circuit, 100, seed=1)
        _assert_engines_match(circuit, patterns, faults, batch_size)

    def test_batch_larger_than_fault_list(self, c17):
        faults = full_fault_list(c17)
        patterns = _random_patterns(c17, 40, seed=2)
        _assert_engines_match(c17, patterns, faults, batch_size=len(faults) + 5)

    def test_branch_vs_stem_sites(self, c17):
        """Net 3 fans out to gates 10 (pin 1) and 11 (pin 0): its stem
        fault and each branch fault must agree with the serial engine
        individually and when mixed in one batch."""
        stem = Fault.stem("3", 0)
        branches = [Fault.branch("3", "11", 0, 0), Fault.branch("3", "10", 1, 0)]
        assert {stem, *branches} <= set(full_fault_list(c17))
        patterns = [BitVector(v, 5) for v in range(32)]
        for faults in ([stem], branches, [stem, *branches]):
            _assert_engines_match(c17, patterns, faults, batch_size=2)

    def test_input_doubling_as_output(self):
        """A PI that is also a PO has an empty cone but is directly
        observable — the forced site row alone must carry detection."""
        from repro.circuit.gates import GateType
        from repro.circuit.netlist import Circuit, Gate

        circuit = Circuit(
            "pipo", ["a", "b"], ["a", "y"], [Gate("y", GateType.AND, ("a", "b"))]
        )
        faults = full_fault_list(circuit)
        patterns = [BitVector(v, 2) for v in range(4)] * 20
        _assert_engines_match(circuit, patterns, faults, batch_size=3)

    def test_single_word_drop_window(self, s27_scan):
        """row_chunk_words=1 makes the fault-dropping scan simulate a
        full batch one word at a time, retiring faults at every word
        boundary; indices must still match exactly."""
        faults = full_fault_list(s27_scan)
        patterns = _random_patterns(s27_scan, 130, seed=3)
        _assert_engines_match(
            s27_scan, patterns, faults, batch_size=5, row_chunk_words=1
        )


class TestEdgeCases:
    """0 patterns, 0 faults, and exact word-boundary pattern counts."""

    @pytest.mark.parametrize(
        "engine",
        [FaultSimulator, SerialFaultSimulator],
        ids=["FaultSimulator", "SerialFaultSimulator"],
    )
    def test_zero_patterns(self, c17, engine):
        simulator = engine(c17)
        faults = full_fault_list(c17)
        assert simulator.detection_matrix([], faults).shape == (0, len(faults))
        assert simulator.detected([], faults) == [False] * len(faults)
        assert simulator.first_detection_index([], faults) == [None] * len(faults)

    @pytest.mark.parametrize(
        "engine",
        [FaultSimulator, SerialFaultSimulator],
        ids=["FaultSimulator", "SerialFaultSimulator"],
    )
    def test_zero_faults(self, c17, engine):
        simulator = engine(c17)
        patterns = [BitVector(v, 5) for v in range(5)]
        assert simulator.detection_matrix(patterns, []).shape == (5, 0)
        assert simulator.detected(patterns, []) == []
        assert simulator.first_detection_index(patterns, []) == []
        assert simulator.fault_coverage(patterns, []) == 1.0

    def test_zero_patterns_and_zero_faults(self, c17):
        simulator = FaultSimulator(c17)
        assert simulator.detection_matrix([], []).shape == (0, 0)

    @pytest.mark.parametrize("n_patterns", [63, 64, 65, 128, 129])
    def test_word_boundary_pattern_counts(self, c17, n_patterns):
        faults = full_fault_list(c17)
        patterns = _random_patterns(c17, n_patterns, seed=n_patterns)
        _assert_engines_match(c17, patterns, faults, batch_size=8)

    def test_last_pattern_detection_at_boundary(self, tiny_and):
        """Only the final pattern (index 64, first bit of word 2)
        detects: the index must survive the word crossing."""
        patterns = [BitVector.zeros(2)] * 64 + [BitVector.ones(2)]
        fault = Fault.stem("y", 0)
        simulator = BatchFaultSimulator(tiny_and, row_chunk_words=1)
        assert simulator.first_detection_index(patterns, [fault]) == [64]



#: Faults c17 does not have, each with the KeyError message that names
#: what is wrong.  Net 3 feeds pin 1 of gate 10 and pin 0 of gate 11.
BAD_SITES = [
    (Fault.stem("nope", 0), "fault site net 'nope' not in circuit"),
    (Fault.branch("3", "11", 5, 0), "fault site 3->11.5 does not match a gate pin"),
    (Fault.branch("3", "1", 0, 1), "fault site 3->1.0 does not match a gate pin"),
    (Fault.branch("3", "16", 1, 0), "fault site 3->16.1: gate pin reads '11'"),
]


class TestBadFaultSites:
    """A branch fault naming a pin that does not exist or does not read
    its net is refused, never simulated as some other fault; every
    engine raises the recursive PODEM oracle's messages."""

    @staticmethod
    def _engines(circuit):
        from repro.atpg.batch_podem import BatchPodem
        from repro.atpg.podem import Podem
        from repro.diagnosis.inject import simulate_with_faults
        from repro.sim.logic import CompiledCircuit

        patterns = [BitVector(v, 5) for v in range(4)]
        compiled = CompiledCircuit(circuit)
        words = np.zeros((compiled.n_inputs, 1), dtype=np.uint64)
        return {
            "batch": lambda f: BatchFaultSimulator(circuit).detected(patterns, [f]),
            "serial": lambda f: SerialFaultSimulator(circuit).detected(patterns, [f]),
            "inject": lambda f: simulate_with_faults(compiled, words, [f]),
            "batch_podem": lambda f: BatchPodem(circuit).generate(f),
            "podem": lambda f: Podem(circuit).generate(f),
        }

    @pytest.mark.parametrize(
        "fault,message", BAD_SITES, ids=[str(fault) for fault, _ in BAD_SITES]
    )
    @pytest.mark.parametrize(
        "engine", ["batch", "serial", "inject", "batch_podem", "podem"]
    )
    def test_bad_site_raises(self, c17, engine, fault, message):
        run = self._engines(c17)[engine]
        with pytest.raises(KeyError) as excinfo:
            run(fault)
        assert excinfo.value.args == (message,)

    def test_good_sites_still_resolve(self, c17):
        from repro.sim.logic import CompiledCircuit

        compiled = CompiledCircuit(c17)
        for fault in full_fault_list(c17):
            net, gate, pin = compiled.fault_site(fault)
            assert compiled.order[net] == fault.site.net
            if gate is not None:
                assert compiled.gate_fanins[gate][pin] == net

class TestDetectionMatrixRows:
    def test_rows_match_detected(self, c17):
        simulator = FaultSimulator(c17)
        faults = full_fault_list(c17)
        pattern_sets = [
            _random_patterns(c17, n, seed=10 + n) for n in (0, 1, 5, 70)
        ]
        rows = list(simulator.detection_matrix_rows(pattern_sets, faults))
        assert len(rows) == len(pattern_sets)
        serial = SerialFaultSimulator(c17)
        for row, patterns in zip(rows, pattern_sets):
            assert row.tolist() == serial.detected(patterns, faults)

    def test_rows_with_no_faults(self, c17):
        simulator = FaultSimulator(c17)
        rows = list(
            simulator.detection_matrix_rows([[BitVector(1, 5)]], [])
        )
        assert len(rows) == 1 and rows[0].shape == (0,)

    def test_parallel_rows_match_serial(self, c17):
        from repro.sim.batch import parallel_detection_rows

        faults = full_fault_list(c17)
        pattern_sets = [_random_patterns(c17, n, seed=n) for n in (3, 0, 9, 17)]
        expected = _offset_oracle(SerialFaultSimulator(c17), pattern_sets, faults)
        for workers in (1, 2):
            result = parallel_detection_rows(
                FaultSimulator(c17), pattern_sets, faults, workers=workers
            )
            assert result.dtype == np.uint8
            np.testing.assert_array_equal(result, expected)

    def test_parallel_rows_rejects_bad_worker_count(self, c17):
        from repro.sim.batch import parallel_detection_rows

        with pytest.raises(ValueError, match="workers"):
            parallel_detection_rows(
                FaultSimulator(c17), [], full_fault_list(c17), workers=0
            )


class TestIncrementalPlans:
    """Fault dropping must *subset* compiled plans (index masks), never
    rebuild cone unions, and subset plans must stay bit-identical to
    cold-built plans."""

    def _workload(self, circuit, n_patterns=200, seed=11):
        faults = full_fault_list(circuit)
        patterns = _random_patterns(circuit, n_patterns, seed)
        return faults, patterns

    def test_drop_scan_subsets_instead_of_rebuilding(self, s27_scan):
        faults, patterns = self._workload(s27_scan)
        simulator = BatchFaultSimulator(
            s27_scan, batch_size=8, row_chunk_words=1
        )
        flags = simulator.detected(patterns, faults)
        n_initial_batches = -(-len(_roots(simulator, faults)) // 8)
        # Every full construction happened up front (one per initial
        # batch); the scan shrank batches via subsetting only.
        assert simulator.plan_builds == n_initial_batches
        assert simulator.plan_subsets > 0
        builds_before = simulator.plan_builds
        assert simulator.detected(patterns, faults) == flags
        assert simulator.plan_builds == builds_before
        assert flags == SerialFaultSimulator(s27_scan).detected(patterns, faults)

    def test_dropping_never_resurrects_dropped_faults(self, s27_scan):
        """A fault retired at an early word keeps the first index it was
        retired with, and the warm (subset-plan) detection indices match
        a cold-plan run and the serial engine bit-for-bit."""
        # Seed 11 leaves some faults undetected by the first word, so the
        # warm run retires faults and subsets plans.
        faults, patterns = self._workload(s27_scan, n_patterns=260, seed=11)
        warm = BatchFaultSimulator(s27_scan, batch_size=4, row_chunk_words=1)
        indices = warm.first_detection_index(patterns, faults)
        assert warm.plan_subsets > 0, "scan never retired a fault"
        cold = BatchFaultSimulator(s27_scan, batch_size=4, row_chunk_words=64)
        # One call spans every word => no dropping => cold-built plans.
        assert cold.first_detection_index(patterns, faults) == indices
        assert cold.plan_subsets == 0
        assert indices == SerialFaultSimulator(s27_scan).first_detection_index(
            patterns, faults
        )

    def test_subset_plan_matches_cold_plan(self, c17):
        """detect of plan.subset(rows) == detect of a plan built from
        scratch for the surviving root tuple, at both plane counts."""
        from repro.utils.bitvec import PackedPatterns, PackedPlanes

        faults = full_fault_list(c17)
        patterns = _random_patterns(c17, 100, seed=31)
        simulator = BatchFaultSimulator(c17, batch_size=len(faults))
        roots = _roots(simulator, faults)
        full_plan = simulator._plan(roots)
        rows = [0, 2, len(roots) - 1]
        subset_plan = full_plan.subset(rows)
        cold_plan = simulator._plan(tuple(roots[r] for r in rows))
        mask = _np_tail_mask(len(patterns))
        packed = PackedPatterns.from_patterns(patterns, c17.n_inputs)
        for carrier in (packed, PackedPlanes.from_packed(packed)):
            good = simulator._good_values(carrier.words, carrier.m)
            np.testing.assert_array_equal(
                subset_plan.detect(good, carrier.m) & mask,
                cold_plan.detect(good, carrier.m) & mask,
            )

    def test_subset_rejects_bad_rows(self, c17):
        faults = full_fault_list(c17)
        simulator = BatchFaultSimulator(c17, batch_size=len(faults))
        roots = _roots(simulator, faults)
        plan = simulator._plan(roots)
        with pytest.raises(ValueError):
            plan.subset([0, 0])
        with pytest.raises(ValueError):
            plan.subset([len(roots)])

    def test_mid_run_drop_matrix_matches_cold(self, mux_circuit):
        """The satellite scenario end-to-end: run a dropping scan (which
        subsets plans mid-run), then build the full detection matrix on
        the same simulator and compare against a cold simulator."""
        faults = full_fault_list(mux_circuit)
        patterns = _random_patterns(mux_circuit, 150, seed=41)
        warm = BatchFaultSimulator(mux_circuit, batch_size=3, row_chunk_words=1)
        warm.detected(patterns, faults)  # populates + subsets plans
        cold = BatchFaultSimulator(mux_circuit, batch_size=3)
        np.testing.assert_array_equal(
            warm.detection_matrix(patterns, faults),
            cold.detection_matrix(patterns, faults),
        )


def _np_tail_mask(n_patterns: int) -> np.ndarray:
    from repro.sim.logic import tail_mask

    return tail_mask(n_patterns)


#: Row lengths (patterns) around the word boundaries the offset-major
#: row scan cares about, and the per-call word budgets it is run under.
ROW_LENGTHS = (0, 1, 63, 64, 65, 129, 512)
ROW_BUDGETS = (1, 2, 3, 64)


def _biased_rows(circuit, lengths, seed: int, p_one: float) -> list:
    """Packed rows of the given lengths whose input bits are 1 with
    probability ``p_one`` (a skewed ``p_one`` spreads first detections
    over many words); empty rows are plain empty lists."""
    from repro.utils.bitvec import PackedPlanes

    gen = np.random.default_rng(seed)
    return [
        PackedPlanes.from_codes(
            (gen.random((circuit.n_inputs, n)) < p_one).astype(np.uint8)
        ).to_packed()
        if n
        else []
        for n in lengths
    ]


def _matrix_oracle(simulator, pattern_sets, faults) -> np.ndarray:
    """Per-row any-pattern verdicts from the full per-pattern matrix."""
    return np.array(
        [
            simulator.detection_matrix(patterns, faults).any(axis=0)
            for patterns in pattern_sets
        ]
    ).reshape(len(pattern_sets), len(faults))


class TestChunkedRows:
    """The budgeted offset-major row scan is a pure throughput lever:
    any budget must give the rows of the per-pattern detection matrix."""

    @pytest.mark.parametrize("row_chunk_words", ROW_BUDGETS)
    def test_chunk_budgets_agree(self, c17, row_chunk_words):
        simulator = FaultSimulator(c17)
        faults = full_fault_list(c17)
        pattern_sets = [
            _random_patterns(c17, n, seed=50 + n) for n in (0, 1, 40, 0, 65, 129, 7)
        ]
        baseline = _matrix_oracle(FaultSimulator(c17), pattern_sets, faults)
        chunked = list(
            simulator.detection_matrix_rows(
                pattern_sets, faults, row_chunk_words=row_chunk_words
            )
        )
        assert len(baseline) == len(chunked) == len(pattern_sets)
        for expected, actual in zip(baseline, chunked):
            np.testing.assert_array_equal(expected, actual)

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        circuit=random_circuits(),
        lengths=st.lists(st.sampled_from(ROW_LENGTHS), min_size=1, max_size=7),
        budget=st.sampled_from(ROW_BUDGETS),
        batch_size=st.sampled_from((1, 3, 32)),
        p_one=st.sampled_from((0.03, 0.5, 0.97)),
        seed=st.integers(0, 2**16),
    )
    def test_mixed_rows_match_matrix_oracle(
        self, circuit, lengths, budget, batch_size, p_one, seed
    ):
        faults = full_fault_list(circuit)
        pattern_sets = _biased_rows(circuit, lengths, seed, p_one)
        simulator = FaultSimulator(circuit, batch_size=batch_size)
        rows = list(
            simulator.detection_matrix_rows(
                pattern_sets, faults, row_chunk_words=budget
            )
        )
        np.testing.assert_array_equal(
            np.array(rows).reshape(len(lengths), len(faults)),
            _matrix_oracle(FaultSimulator(circuit), pattern_sets, faults),
        )

    def test_workers_build_matches_serial(self):
        """Multi-word rows through ``build_detection_matrix(workers=2)``
        equal the serial build."""
        from repro.circuits import load_circuit
        from repro.faults.collapse import collapse_faults
        from repro.reseeding import Triplet, build_detection_matrix
        from repro.tpg import make_tpg

        circuit = load_circuit("c880", scale=0.2)
        faults = collapse_faults(circuit)
        tpg = make_tpg("adder", circuit.n_inputs)
        rng = RngStream(5, "workers-rows")
        triplets = [
            Triplet(
                BitVector.random(circuit.n_inputs, rng),
                BitVector.random(circuit.n_inputs, rng),
                200,
            )
            for _ in range(12)
        ]
        serial = build_detection_matrix(circuit, tpg, triplets, faults)
        pooled = build_detection_matrix(circuit, tpg, triplets, faults, workers=2)
        np.testing.assert_array_equal(pooled.matrix, serial.matrix)

    def test_packed_rows_accepted(self, c17):
        from repro.utils.bitvec import PackedPatterns

        simulator = FaultSimulator(c17)
        faults = full_fault_list(c17)
        pattern_sets = [_random_patterns(c17, n, seed=n) for n in (5, 70, 3)]
        packed_sets = [
            PackedPatterns.from_patterns(patterns, c17.n_inputs)
            for patterns in pattern_sets
        ]
        unpacked_rows = list(
            simulator.detection_matrix_rows(pattern_sets, faults)
        )
        packed_rows = list(
            simulator.detection_matrix_rows(packed_sets, faults)
        )
        for expected, actual in zip(unpacked_rows, packed_rows):
            np.testing.assert_array_equal(expected, actual)

    def test_rejects_bad_budget(self, c17):
        simulator = FaultSimulator(c17)
        with pytest.raises(ValueError):
            list(
                simulator.detection_matrix_rows(
                    [[BitVector(1, 5)]], full_fault_list(c17), row_chunk_words=0
                )
            )


def _multiword_build(
    simulator, n_rows: int = 40, length: int = 384, workers=None, planes=False
):
    """A Detection Matrix build over ``length``-pattern (multi-word)
    rows on c880@0.2 over ``workers`` processes; returns ``(circuit,
    faults, matrix)``.  With ``planes`` the same rows are lifted to
    X-free 0/1/X planes, which the simulator runs at ``m = 2``."""
    from repro.faults.collapse import collapse_faults
    from repro.reseeding import Triplet, build_detection_matrix
    from repro.reseeding.triplet import packed_test_sets
    from repro.sim.batch import detected_mask, parallel_detection_rows
    from repro.tpg import make_tpg

    circuit = simulator.circuit
    faults = collapse_faults(circuit)
    rng = RngStream(9, "multiword-rows")
    triplets = [
        Triplet(
            BitVector.random(circuit.n_inputs, rng),
            BitVector.random(circuit.n_inputs, rng),
            length,
        )
        for _ in range(n_rows)
    ]
    tpg = make_tpg("adder", circuit.n_inputs)
    if planes:
        rows = [
            as_planes(packed, circuit.n_inputs)
            for packed in packed_test_sets(tpg, triplets)
        ]
        offsets = parallel_detection_rows(simulator, rows, faults, workers or 1)
        return circuit, faults, detected_mask(offsets)
    matrix = build_detection_matrix(
        circuit, tpg, triplets, faults, simulator, workers=workers
    )
    return circuit, faults, matrix.matrix


class TestRowScanWork:
    """Exact work counts of the offset-major row scan (no timing)."""

    def test_one_word_rows_scan_every_cell(self, s27_scan):
        faults = full_fault_list(s27_scan)
        pattern_sets = [
            _random_patterns(s27_scan, n, seed=60 + n) for n in (1, 64, 0, 17, 40)
        ]
        simulator = BatchFaultSimulator(s27_scan, batch_size=4)
        list(simulator.detection_matrix_rows(pattern_sets, faults))
        assert simulator.detect_cells == len(_roots(simulator, faults)) * 4
        assert simulator.words_simulated == 4

    def test_early_detection_saves_cells(self):
        from repro.circuits import load_circuit

        simulator = BatchFaultSimulator(load_circuit("c880", scale=0.2))
        _, faults, matrix = _multiword_build(simulator)
        n_words = 40 * 6
        assert simulator.words_simulated == n_words
        assert 0 < simulator.detect_cells < len(_roots(simulator, faults)) * n_words
        assert matrix.any()

    def test_cells_exported_at_scrape_time(self, c17):
        from repro.obs import Telemetry

        metrics = Telemetry.on().metrics
        simulator = BatchFaultSimulator(c17)
        simulator.attach_metrics(metrics)
        faults = full_fault_list(c17)
        simulator.detection_matrix(_random_patterns(c17, 70, seed=3), faults)
        cells = len(_roots(simulator, faults)) * 2
        assert simulator.detect_cells == cells
        assert metrics.scalar_value("repro_sim_detect_cells_total") == cells


class TestRowScanMemoryGuard:
    """Every fault-machine call of a multi-word rows build stays within
    the per-call cell budget, so the scan's transient memory is bounded
    by ``row_chunk_words × batch_size`` cells whatever the row shape."""

    @pytest.mark.parametrize(
        "planes, row_chunk_words",
        [
            pytest.param(False, 2, id="2"),
            pytest.param(False, 64, id="64"),
            pytest.param(True, 2, id="x-2"),
            pytest.param(True, 64, id="x-64"),
        ],
    )
    def test_calls_stay_within_budget(self, monkeypatch, planes, row_chunk_words):
        from repro.circuits import load_circuit
        from repro.sim.batch import CHUNK_BUDGETS, _BatchPlan

        calls: list[tuple[int, int]] = []
        goods: list[int] = []
        detect = _BatchPlan.detect
        good_values = BatchFaultSimulator._good_values

        def spy_detect(plan, good, m):
            calls.append((plan.n_roots, good.shape[1] // m))
            return detect(plan, good, m)

        def spy_good(simulator, words, m):
            values = good_values(simulator, words, m)
            goods.append(values.shape[1] // m)
            return values

        monkeypatch.setattr(_BatchPlan, "detect", spy_detect)
        monkeypatch.setattr(BatchFaultSimulator, "_good_values", spy_good)
        simulator = BatchFaultSimulator(
            load_circuit("c880", scale=0.2), row_chunk_words=row_chunk_words
        )
        _multiword_build(simulator, planes=planes)
        budget = row_chunk_words * simulator.batch_size
        assert calls and goods
        for n_roots, n_columns in calls:
            assert n_roots * n_columns <= budget
            assert n_columns <= budget // n_roots
        # Six-word rows: a chunk's fault-free state never exceeds its cap.
        assert max(goods) <= max(6, CHUNK_BUDGETS * row_chunk_words)
        assert sum(goods) == 40 * 6


class TestParallelJobPayloads:
    """The ``workers=N`` jobs are row ranges into the packed rows each
    worker received once — payload size is O(1) per job, not
    O(n_patterns)."""

    def test_jobs_cover_rows_in_order(self):
        from repro.sim.batch import _row_jobs

        jobs = _row_jobs(10, workers=2)
        assert jobs[0][0] == 0 and jobs[-1][1] == 10
        flat = [r for start, stop in jobs for r in range(start, stop)]
        assert flat == list(range(10))

    def test_payload_independent_of_pattern_count(self, c17):
        """Satellite regression: the old path re-pickled O(n_patterns)
        pattern values into every job; jobs are now bare row ranges."""
        import pickle

        from repro.sim.batch import _row_jobs

        small = [_random_patterns(c17, 4, seed=r) for r in range(8)]
        huge = [_random_patterns(c17, 4096, seed=r) for r in range(8)]
        jobs_small = _row_jobs(len(small), workers=2)
        jobs_huge = _row_jobs(len(huge), workers=2)
        payload_small = max(len(pickle.dumps(job)) for job in jobs_small)
        payload_huge = max(len(pickle.dumps(job)) for job in jobs_huge)
        assert payload_huge == payload_small  # O(1), not O(n_patterns)
        assert payload_huge < 128
        # ... while the packed rows the workers receive hold the patterns.
        simulator = FaultSimulator(c17)
        bytes_small = sum(simulator._pack(row).words.nbytes for row in small)
        bytes_huge = sum(simulator._pack(row).words.nbytes for row in huge)
        assert bytes_huge > bytes_small

    def test_parallel_rows_with_chunked_state(self, s27_scan):
        """End-to-end through the pool on a bigger circuit with uneven
        row sizes."""
        from repro.sim.batch import parallel_detection_rows

        faults = full_fault_list(s27_scan)
        pattern_sets = [
            _random_patterns(s27_scan, n, seed=60 + n)
            for n in (9, 0, 130, 64, 1, 300)
        ]
        expected = _offset_oracle(
            SerialFaultSimulator(s27_scan), pattern_sets, faults
        )
        result = parallel_detection_rows(
            FaultSimulator(s27_scan), pattern_sets, faults, workers=2
        )
        np.testing.assert_array_equal(result, expected)


class TestPropertyDifferential:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        circuit=random_circuits(),
        n_patterns=st.integers(0, 70),
        batch_size=st.sampled_from(BATCH_SIZES),
        seed=st.integers(0, 1000),
    )
    def test_small_random_circuits(self, circuit, n_patterns, batch_size, seed):
        faults = full_fault_list(circuit)
        patterns = _random_patterns(circuit, n_patterns, seed)
        _assert_engines_match(circuit, patterns, faults, batch_size)

    @pytest.mark.slow
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        circuit=random_circuits(),
        n_patterns=st.integers(0, 200),
        batch_size=st.integers(1, 80),
        row_chunk_words=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_exhaustive_engine_equivalence(
        self, circuit, n_patterns, batch_size, row_chunk_words, seed
    ):
        faults = full_fault_list(circuit)
        patterns = _random_patterns(circuit, n_patterns, seed)
        _assert_engines_match(
            circuit, patterns, faults, batch_size, row_chunk_words
        )

    @pytest.mark.slow
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 500), n_patterns=st.integers(64, 140))
    def test_larger_generated_circuits(self, seed, n_patterns):
        spec = GeneratorSpec(
            name=f"hypbig{seed}",
            n_inputs=8,
            n_outputs=4,
            n_gates=60,
            seed=seed,
        )
        circuit = generate_circuit(spec)
        faults = full_fault_list(circuit)
        patterns = _random_patterns(circuit, n_patterns, seed)
        _assert_engines_match(circuit, patterns, faults, batch_size=16)


# ----------------------------------------------------------------------
# cone-local batch order
# ----------------------------------------------------------------------

#: Catalog scale for the cone-order differential: every catalog circuit,
#: small enough for the per-fault serial engine.
CONE_ORDER_SCALE = 0.05
CONE_ORDER_PATTERNS = 130


@functools.lru_cache(maxsize=None)
def _cone_order_case(name: str):
    """One catalog circuit with its references, computed once: the
    serial engine's 2-valued matrix and a ``batch_size=1`` (no
    batch-mates, so no order) 3-valued matrix over an X-seeded bank."""
    from repro.circuits import load_circuit
    from repro.faults.collapse import collapse_faults
    from repro.utils.bitvec import X_CODE

    circuit = load_circuit(name, scale=CONE_ORDER_SCALE)
    faults = collapse_faults(circuit)
    patterns = _random_patterns(circuit, CONE_ORDER_PATTERNS, seed=7)
    gen = np.random.default_rng(7)
    codes = gen.integers(0, 2, size=(circuit.n_inputs, CONE_ORDER_PATTERNS))
    codes[gen.random(size=codes.shape) < 0.125] = X_CODE
    codes = codes.astype(np.uint8)
    planes = PackedPlanes.from_codes(codes)
    serial = SerialFaultSimulator(circuit).detection_matrix(patterns, faults)
    single = BatchFaultSimulator(circuit, batch_size=1)
    np.testing.assert_array_equal(
        single.detection_matrix(patterns, faults), serial
    )
    x_single = single.detection_matrix(planes, faults)
    return circuit, faults, patterns, codes, serial, x_single


def _first_indices(matrix: np.ndarray) -> list[int | None]:
    """Per-column first True row (``None`` for an all-False column)."""
    hit = matrix.any(axis=0)
    first = matrix.argmax(axis=0)
    return [int(f) if h else None for f, h in zip(first, hit)]


def _assert_queries_match(simulator, patterns, faults, matrix, split, pieces):
    """Every query of ``simulator`` agrees with the reference detection
    ``matrix`` (patterns x faults, in ``faults`` order); ``pieces`` are
    ``patterns`` cut at ``split``, plus an empty row."""
    np.testing.assert_array_equal(
        simulator.detection_matrix(patterns, faults), matrix
    )
    assert simulator.detected(patterns, faults) == matrix.any(axis=0).tolist()
    assert simulator.first_detection_index(patterns, faults) == (
        _first_indices(matrix)
    )
    rows = np.array(list(simulator.detection_matrix_rows(pieces, faults)))
    np.testing.assert_array_equal(
        rows,
        np.array(
            [matrix[:split].any(axis=0), matrix[split:].any(axis=0),
             np.zeros(len(faults), dtype=bool)]
        ),
    )


class TestConeOrder:
    """Cone-local batching reorders faults before chunking; results must
    land back in the caller's columns, identical to the serial engine
    and to ``batch_size=1`` (which has no batch-mates to reorder)."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    @settings(
        max_examples=2,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_shuffled_catalog_matches_references(self, name, data):
        circuit, faults, patterns, codes, serial, x_single = _cone_order_case(
            name
        )
        # Hypothesis picks the shuffle seed (a drawn permutation of a
        # thousand-fault list is too large an example to shrink).
        shuffle_seed = data.draw(st.integers(0, 2**32 - 1), label="shuffle")
        perm = np.random.default_rng(shuffle_seed).permutation(len(faults))
        split = data.draw(st.integers(0, CONE_ORDER_PATTERNS), label="split")
        shuffled = [faults[i] for i in perm]
        _assert_queries_match(
            BatchFaultSimulator(circuit, row_chunk_words=1),
            patterns,
            shuffled,
            serial[:, perm],
            split,
            [patterns[:split], patterns[split:], []],
        )
        _assert_queries_match(
            BatchFaultSimulator(circuit, row_chunk_words=1),
            PackedPlanes.from_codes(codes),
            shuffled,
            x_single[:, perm],
            split,
            [
                PackedPlanes.from_codes(codes[:, :split]),
                PackedPlanes.from_codes(codes[:, split:]),
                [],
            ],
        )

    def test_batches_are_a_partition_in_key_order(self, s27_scan):
        simulator = BatchFaultSimulator(s27_scan, batch_size=5)
        faults = full_fault_list(s27_scan)
        batches = simulator._batches(faults)
        order = [i for indices, _, _ in batches for i in indices.tolist()]
        assert sorted(order) == list(range(len(faults)))
        assert all(len(roots) == 5 for _, _, roots in batches[:-1])
        expected = simulator._regions(faults)
        for indices, regions, roots in batches:
            # A batch's region rows name its own roots, by position.
            np.testing.assert_array_equal(
                np.array(roots)[regions[:, 0]], expected[indices, 0]
            )
            np.testing.assert_array_equal(regions[:, 1:], expected[indices, 1:])
        roots = _roots(simulator, faults)
        assert len(set(roots)) == len(roots)
        compiled = simulator.compiled
        outputs = compiled.output_ids.tolist()

        def key(root):
            # (bitmask of the POs the root reaches, level, node id), the
            # mask read with output k at bit k.
            reached = set(compiled.output_cone_ids(root)) | {root}
            mask = sum(1 << k for k, out in enumerate(outputs) if out in reached)
            return mask, int(compiled.node_levels[root]), root

        keys = [key(root) for root in roots]
        assert keys == sorted(keys)

    def test_union_work_halves_on_s1238(self):
        """Deterministic work count: the summed cone-union size times
        batch width over s1238's collapsed fault list, cone-ordered, is
        at most half of the list-order batching's.  A batch runs one
        stem machine per distinct FFR root of its faults; list order
        cuts the fault list as given, ``batch_size`` faults a batch."""
        from repro.circuits import load_circuit
        from repro.faults.collapse import collapse_faults

        circuit = load_circuit("s1238")
        faults = collapse_faults(circuit)
        simulator = BatchFaultSimulator(circuit)
        size = simulator.batch_size

        def union_work(batches) -> int:
            return sum(
                sum(out.size for _, buckets in plan.levels for _, _, out, _ in buckets)
                * plan.n_roots
                for plan in (simulator._plan(batch) for batch in batches)
            )

        fault_roots = simulator._regions(faults)[:, 0].tolist()
        list_order = [
            tuple(dict.fromkeys(fault_roots[start : start + size]))
            for start in range(0, len(faults), size)
        ]
        cone_order = [batch for _, _, batch in simulator._batches(faults)]
        assert union_work(cone_order) <= 0.5 * union_work(list_order)


class TestWorkerPlans:
    """Pool workers run a simulator of the caller's class and settings,
    and hand their work back to the caller's simulator."""

    def test_two_workers_equal_serial_rows(self):
        from repro.circuits import load_circuit
        from repro.faults.collapse import collapse_faults
        from repro.sim.batch import parallel_detection_rows

        circuit = load_circuit("c880", scale=0.2)
        faults = collapse_faults(circuit)
        pattern_sets = [
            _random_patterns(circuit, n, seed=90 + n) for n in (40, 0, 200, 64, 3)
        ]
        serial_rows = np.array(
            list(BatchFaultSimulator(circuit).first_detection_rows(pattern_sets, faults))
        )
        parallel = parallel_detection_rows(
            BatchFaultSimulator(circuit), pattern_sets, faults, workers=2
        )
        assert parallel.dtype == serial_rows.dtype == np.uint8
        np.testing.assert_array_equal(parallel, serial_rows)

    def test_pooled_build_reports_its_work(self):
        """A ``workers=2`` matrix build adds its workers' counters to
        the caller's simulator: every row's words are simulated once,
        as in the serial build."""
        from repro.circuits import load_circuit

        circuit = load_circuit("c880", scale=0.2)
        serial = FaultSimulator(circuit)
        _multiword_build(serial, n_rows=12, length=130)
        pooled = FaultSimulator(circuit)
        _multiword_build(pooled, n_rows=12, length=130, workers=2)
        assert pooled.words_simulated == serial.words_simulated == 12 * 3
        assert pooled.detect_cells > 0
        assert pooled.plan_builds > 0

    def test_worker_runs_the_callers_simulator(self, s27_scan):
        """The initializer builds a simulator with the caller's
        ``batch_size`` and ``row_chunk_words``, and the planes it is
        handed stay planes."""
        from repro.sim import batch as batch_module

        faults = full_fault_list(s27_scan)
        simulator = BatchFaultSimulator(s27_scan, batch_size=7, row_chunk_words=2)
        gen = np.random.default_rng(80)
        carriers, dtype = simulator._pack_rows(
            PackedPlanes.from_codes(gen.integers(0, 3, size=(s27_scan.n_inputs, n)))
            for n in (5, 0, 70, 130)
        )
        assert dtype == offset_dtype(130)
        batch_module._init_worker(s27_scan, 7, 2, carriers, faults, dtype)
        try:
            worker, worker_carriers = batch_module._worker_state[:2]
            start, rows, work = batch_module._worker_rows((1, 4))
        finally:
            batch_module._worker_state = None
        assert type(worker) is BatchFaultSimulator
        assert (worker.batch_size, worker.row_chunk_words) == (7, 2)
        assert [carrier.m for carrier in worker_carriers] == [2, 2, 2, 2]
        assert start == 1
        expected = batch_module._offset_table(simulator, carriers, faults, dtype)
        np.testing.assert_array_equal(rows, expected[1:])
        assert work == [getattr(worker, name) for name in batch_module._COUNTERS]

    def test_x_planes_through_the_pool(self):
        """0/1/X rows keep their X through the pool: the carriers are
        planes, so the workers run them at ``m = 2``."""
        from repro.circuits import load_circuit
        from repro.sim.batch import parallel_detection_rows
        from repro.utils.bitvec import PackedPlanes

        circuit = load_circuit("c880", scale=0.2)
        faults = full_fault_list(circuit)
        gen = np.random.default_rng(91)
        pattern_sets = [
            PackedPlanes.from_codes(gen.integers(0, 3, size=(circuit.n_inputs, n)))
            if n else []
            for n in (40, 0, 200, 3)
        ]
        serial = np.array(
            list(BatchFaultSimulator(circuit).first_detection_rows(pattern_sets, faults))
        )
        pooled = parallel_detection_rows(
            BatchFaultSimulator(circuit), pattern_sets, faults, workers=2
        )
        np.testing.assert_array_equal(pooled, serial)

    def test_mixed_carriers_match_all_planes(self):
        """A table that mixes 2-valued and X-carrying rows lifts the
        2-valued ones to X-free planes: serial and pooled, it equals the
        table of the same rows all handed in as planes, and its 2-valued
        rows equal their own 2-valued table."""
        from repro.circuits import load_circuit
        from repro.sim.batch import parallel_detection_rows
        from repro.utils.bitvec import PackedPatterns

        circuit = load_circuit("c880", scale=0.2)
        faults = full_fault_list(circuit)
        gen = np.random.default_rng(92)
        width = circuit.n_inputs
        mixed = [
            PackedPlanes.from_codes(gen.integers(0, 3, size=(width, 40))),
            _random_patterns(circuit, 70, seed=93),
            [],
            PackedPatterns.from_patterns(_random_patterns(circuit, 130, seed=94), width),
            PackedPlanes.from_codes(gen.integers(0, 3, size=(width, 3))),
        ]
        all_planes = np.array(
            list(
                BatchFaultSimulator(circuit).first_detection_rows(
                    [as_planes(p, width) for p in mixed], faults
                )
            )
        )
        serial = np.array(
            list(BatchFaultSimulator(circuit).first_detection_rows(mixed, faults))
        )
        pooled = parallel_detection_rows(
            BatchFaultSimulator(circuit), mixed, faults, workers=2
        )
        np.testing.assert_array_equal(serial, all_planes)
        np.testing.assert_array_equal(pooled, all_planes)
        two_valued = np.array(
            list(BatchFaultSimulator(circuit).first_detection_rows(mixed[1:4], faults))
        )
        np.testing.assert_array_equal(all_planes[1:4], two_valued)

    def test_spawn_start_method_equals_serial(self, tmp_path):
        """Under ``spawn`` the workers receive the rows by pickle and
        still build the serial table, for 2-valued and 0/1/X carriers
        alike."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = tmp_path / "spawn_pool.py"
        script.write_text(_SPAWN_SCRIPT)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout == ""


_SPAWN_SCRIPT = '''
import multiprocessing

import numpy as np

from repro.circuits import load_circuit
from repro.faults.collapse import collapse_faults
from repro.sim.batch import BatchFaultSimulator, parallel_detection_rows
from repro.utils.bitvec import PackedPlanes

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    circuit = load_circuit("c880", scale=0.2)
    faults = collapse_faults(circuit)
    gen = np.random.default_rng(17)
    codes = [gen.integers(0, 3, size=(circuit.n_inputs, n)) for n in (40, 0, 200, 3)]
    packed = [PackedPlanes.from_codes(c & 1).to_packed() for c in codes]
    planes = [PackedPlanes.from_codes(c) for c in codes]
    for pattern_sets in (packed, planes):
        serial = np.array(
            list(BatchFaultSimulator(circuit).first_detection_rows(pattern_sets, faults))
        )
        pooled = parallel_detection_rows(
            BatchFaultSimulator(circuit), pattern_sets, faults, workers=2
        )
        assert pooled.dtype == serial.dtype
        assert np.array_equal(pooled, serial), pattern_sets[0].m
'''
