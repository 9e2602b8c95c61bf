"""Fault-diagnosis subsystem: injection, dictionaries, effect-cause.

The ground-truth loop these tests close: inject a known fault, capture
the fail log, diagnose it, and check the injected fault comes back.
Signature-mode (MISR bisection) tests live in
``test_diagnosis_signature.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import load_circuit
from repro.diagnosis import (
    Candidate,
    FaultDictionary,
    choose_faults,
    diagnose_effect_cause,
    diagnose_multiplet,
    fault_representatives,
    make_fail_log,
    observed_fail_flags,
    parse_fault,
    rank_candidates,
    simulate_with_faults,
)
from repro.faults.collapse import collapse_faults
from repro.faults.model import Fault, full_fault_list
from repro.flow.serialize import decode, encode
from repro.sim.batch import BatchFaultSimulator
from repro.sim.logic import CompiledCircuit
from repro.utils.bitvec import BitVector, pack_patterns, unpack_words
from repro.utils.rng import RngStream

from oracles.scalar import eval_gate_3v_scalar
from oracles.reference import ReferenceSimulator


def _random_patterns(circuit, count, *names):
    rng = RngStream(77, "diagnosis", circuit.name, *names)
    return [BitVector.random(circuit.n_inputs, rng) for _ in range(count)]


# ----------------------------------------------------------------------
# injection (the multi-fault simulator behind every scenario)
# ----------------------------------------------------------------------


class TestInjection:
    @pytest.mark.parametrize("name", ["c17", "s27"])
    def test_single_fault_agrees_with_reference(self, name):
        """One injected fault must reproduce the reference simulator's
        faulty responses bit for bit."""
        circuit = load_circuit(name)
        compiled = CompiledCircuit(circuit)
        reference = ReferenceSimulator(circuit)
        patterns = _random_patterns(circuit, 24, "single")
        for fault in full_fault_list(circuit)[::7]:
            log = make_fail_log(circuit, patterns, fault, compiled)
            expected = [reference.outputs(p, fault) for p in patterns]
            assert log.responses == expected, str(fault)

    def test_double_stem_faults_compose(self, mux_circuit):
        """Two stem faults force both nets on one machine."""
        compiled = CompiledCircuit(mux_circuit)
        faults = (Fault.stem("t0", 1), Fault.stem("t1", 1))
        patterns = _random_patterns(mux_circuit, 8, "double")
        words = simulate_with_faults(
            compiled, pack_patterns(patterns, compiled.n_inputs), faults
        )
        responses = unpack_words(words[compiled.output_ids, :], len(patterns))
        # y = t0 OR t1 with both forced to 1 is constantly 1.
        assert all(r.value == 1 for r in responses)

    def test_two_branches_on_one_gate_force_both_pins(self, mux_circuit):
        """Branch faults grouped per gate: both pins stuck in one
        re-evaluation (y reads t0 and t1 — stuck-0 on both pins pins
        y at 0)."""
        compiled = CompiledCircuit(mux_circuit)
        faults = (
            Fault.branch("t0", "y", 0, 0),
            Fault.branch("t1", "y", 1, 0),
        )
        patterns = _random_patterns(mux_circuit, 16, "branches")
        words = simulate_with_faults(
            compiled, pack_patterns(patterns, compiled.n_inputs), faults
        )
        responses = unpack_words(words[compiled.output_ids, :], len(patterns))
        assert all(r.value == 0 for r in responses)

    def test_branch_fault_reads_faulty_side_inputs(self, c17):
        """A branch-forced gate must read the *faulty* values of its
        other pins when a second fault lies upstream — the case the
        per-fault engines cannot model."""

        compiled = CompiledCircuit(c17)
        patterns = _random_patterns(c17, 32, "pair")
        stem = Fault.stem("10", 1)
        branch = Fault.branch("16", "22", 1, 1)
        log = make_fail_log(c17, patterns, (stem, branch), compiled)
        # Differential oracle: a hand-rolled interpreter that forces
        # both faults at once.
        for pattern, observed in zip(patterns, log.responses):
            values: dict[str, int] = {}
            for net in c17.topo_order():
                if net in c17.inputs:
                    value = pattern.bit(c17.inputs.index(net))
                else:
                    gate = c17.gates[net]
                    fanin_values = [
                        branch.value
                        if (branch.site.gate == net and branch.site.pin == pin)
                        else values[fanin]
                        for pin, fanin in enumerate(gate.fanins)
                    ]
                    value = eval_gate_3v_scalar(gate.gtype, fanin_values)
                if stem.site.net == net:
                    value = stem.value
                values[net] = value
            expected = BitVector.from_bits([values[o] for o in c17.outputs])
            assert observed == expected

    def test_stem_freeze_dominates_branch_into_same_gate(self, tiny_and):
        """A stem fault on a gate's output must survive a branch-fault
        re-evaluation of that same gate: the output is stuck no matter
        what the gate reads (regression: the branch re-eval used to
        clobber the freeze)."""
        compiled = CompiledCircuit(tiny_and)
        faults = (Fault.stem("y", 0), Fault.branch("a", "y", 0, 1))
        patterns = [BitVector(v, 2) for v in range(4)]
        words = simulate_with_faults(
            compiled, pack_patterns(patterns, compiled.n_inputs), faults
        )
        responses = unpack_words(words[compiled.output_ids, :], len(patterns))
        assert all(r.value == 0 for r in responses)

    def test_fail_log_records_ground_truth(self, c17):
        patterns = _random_patterns(c17, 8, "log")
        fault = Fault.stem("10", 1)
        log = make_fail_log(c17, patterns, fault)
        assert log.injected == (fault,)
        assert log.n_patterns == 8
        assert log.circuit_name == "c17"


class TestFaultSpecs:
    def test_stem_round_trip(self):
        assert parse_fault("g27/SA0") == Fault.stem("g27", 0)

    def test_branch_round_trip(self):
        fault = Fault.branch("g27", "g28", 1, 1)
        assert parse_fault(str(fault)) == fault

    @pytest.mark.parametrize("spec", ["g27", "g27/SA2", "g27->g28/SA0", ""])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_fault(spec)

    def test_choose_faults_deterministic_and_distinct(self, c17):
        faults = full_fault_list(c17)
        first = choose_faults(faults, 5, RngStream(1, "pick"))
        second = choose_faults(faults, 5, RngStream(1, "pick"))
        assert first == second
        assert len(set(first)) == 5

    def test_choose_faults_rejects_bad_count(self, c17):
        faults = full_fault_list(c17)
        with pytest.raises(ValueError):
            choose_faults(faults, 0, RngStream(1, "pick"))
        with pytest.raises(ValueError):
            choose_faults(faults, len(faults) + 1, RngStream(1, "pick"))


# ----------------------------------------------------------------------
# candidate ranking vocabulary
# ----------------------------------------------------------------------


class TestCandidates:
    def test_score_and_perfection(self):
        perfect = Candidate(Fault.stem("a", 0), 10, 0, 0)
        assert perfect.score == 10 and perfect.is_perfect
        noisy = Candidate(Fault.stem("a", 1), 10, 2, 3)
        assert noisy.score == 5 and not noisy.is_perfect

    def test_rank_order_prefers_response_matches(self):
        base = dict(n_match=5, n_mispredicted=0, n_missed=0)
        weak = Candidate(Fault.stem("a", 0), **base, n_response_match=1)
        strong = Candidate(Fault.stem("b", 0), **base, n_response_match=5)
        assert rank_candidates([weak, strong])[0] is strong

    def test_rank_ties_break_on_fault_order(self):
        one = Candidate(Fault.stem("b", 0), 5, 0, 0)
        two = Candidate(Fault.stem("a", 0), 5, 0, 0)
        assert [c.fault.site.net for c in rank_candidates([one, two])] == ["a", "b"]


# ----------------------------------------------------------------------
# fault dictionaries
# ----------------------------------------------------------------------


class TestFaultDictionary:
    def test_build_matches_streaming(self, c17):
        patterns = _random_patterns(c17, 20, "dict")
        built = FaultDictionary.build(c17, patterns)
        rows = BatchFaultSimulator(c17).detection_matrix_rows(
            ([pattern] for pattern in patterns), built.faults
        )
        np.testing.assert_array_equal(built.matrix, np.array(list(rows), dtype=bool))

    def test_lookup_finds_injected_fault(self, mux_circuit):
        patterns = _random_patterns(mux_circuit, 32, "lookup")
        faults = collapse_faults(mux_circuit)
        dictionary = FaultDictionary.build(mux_circuit, patterns, faults)
        simulator = BatchFaultSimulator(mux_circuit)
        detected = simulator.detected(patterns, faults)
        target = next(f for f, flag in zip(faults, detected) if flag)
        log = make_fail_log(mux_circuit, patterns, target)
        golden = simulator.compiled.simulate_patterns(patterns)
        flags = observed_fail_flags(golden, log.responses)
        result = dictionary.diagnose(flags, top_k=3)
        assert result.mode == "dictionary"
        assert result.patterns_resimulated == 0
        top = result.candidates[0]
        assert top.is_perfect
        assert top.n_match == int(flags.sum())

    def test_serialization_round_trip(self, c17):
        patterns = _random_patterns(c17, 12, "serialize")
        dictionary = FaultDictionary.build(c17, patterns)
        clone = decode(FaultDictionary, encode(dictionary))
        assert clone.circuit_name == dictionary.circuit_name
        assert clone.faults == dictionary.faults
        np.testing.assert_array_equal(clone.matrix, dictionary.matrix)

    def test_packed_compression(self, c17):
        patterns = _random_patterns(c17, 64, "packed")
        dictionary = FaultDictionary.build(c17, patterns)
        dense = dictionary.n_patterns * dictionary.n_faults
        assert dictionary.packed_bytes <= dense // 8 + 1

    def test_shape_validation(self, c17):
        patterns = _random_patterns(c17, 8, "shape")
        dictionary = FaultDictionary.build(c17, patterns)
        with pytest.raises(ValueError):
            dictionary.lookup(np.zeros(dictionary.n_patterns + 1, dtype=bool))
        with pytest.raises(ValueError):
            FaultDictionary("x", dictionary.faults[:-1], dictionary.matrix)


# ----------------------------------------------------------------------
# effect-cause diagnosis
# ----------------------------------------------------------------------


class TestEffectCause:
    @given(
        pairs=st.lists(
            st.tuples(
                st.integers(1, 130),  # past one 64-bit word
                st.integers(0, 2**130 - 1),
                st.integers(0, 2),  # 0: equal, 1: value flip, 2: width
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_fail_flags_match_elementwise_compare(self, pairs):
        golden, observed = [], []
        for width, value, change in pairs:
            g = BitVector(value, width)
            golden.append(g)
            observed.append(
                [g, BitVector(value ^ 1, width), BitVector(value, width + 1)][change]
            )
        flags = observed_fail_flags(golden, observed)
        assert flags.dtype == bool
        assert flags.tolist() == [g != o for g, o in zip(golden, observed)]

    def test_fail_flags_reject_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            observed_fail_flags([BitVector(1, 2)], [])

    @pytest.mark.parametrize("name", ["c17", "s27"])
    def test_injected_fault_ranks_first(self, name):
        circuit = load_circuit(name)
        simulator = BatchFaultSimulator(circuit)
        faults = collapse_faults(circuit)
        patterns = _random_patterns(circuit, 48, "rank")
        representatives = fault_representatives(circuit)
        detected = simulator.detected(patterns, faults)
        for target in [f for f, flag in zip(faults, detected) if flag][::5]:
            log = make_fail_log(circuit, patterns, target, simulator.compiled)
            result = diagnose_effect_cause(
                circuit, patterns, log.responses, faults=faults,
                simulator=simulator, top_k=5,
            )
            top = result.candidates[0]
            assert top.is_perfect, str(target)
            # The injected fault (or a fault indistinguishable from it
            # on this pattern set) leads the ranking.
            rank = result.rank_of(representatives[target])
            assert rank is not None and rank <= 3, str(target)

    def test_clean_log_reports_nothing(self, c17):
        patterns = _random_patterns(c17, 16, "clean")
        golden = CompiledCircuit(c17).simulate_patterns(patterns)
        result = diagnose_effect_cause(c17, patterns, golden)
        assert result.n_failing == 0
        assert result.candidates == []

    def test_length_mismatch_rejected(self, c17):
        patterns = _random_patterns(c17, 4, "len")
        with pytest.raises(ValueError):
            diagnose_effect_cause(c17, patterns, [])

    def test_result_round_trips(self, c17):
        faults = collapse_faults(c17)
        patterns = _random_patterns(c17, 32, "round")
        target = faults[3]
        log = make_fail_log(c17, patterns, target)
        result = diagnose_effect_cause(c17, patterns, log.responses, faults=faults)
        clone = decode(type(result), encode(result))
        assert [c.fault for c in clone.candidates] == [
            c.fault for c in result.candidates
        ]
        assert clone.mode == result.mode
        assert clone.n_failing == result.n_failing

    @settings(max_examples=30, deadline=None)
    @given(
        circuit_name=st.sampled_from(["c17", "s27"]),
        fault_index=st.integers(min_value=0, max_value=10_000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_patterns=st.integers(min_value=1, max_value=80),
    )
    def test_detected_fault_always_diagnosable(
        self, circuit_name, fault_index, seed, n_patterns
    ):
        """Ground-truth property: whenever the injected fault is
        detected at all, diagnosis surfaces it — either the fault's own
        collapse representative, or a candidate whose predicted fail
        column is identical on this pattern set (a genuinely
        indistinguishable fault)."""
        circuit = load_circuit(circuit_name)
        simulator = BatchFaultSimulator(circuit)
        universe = full_fault_list(circuit)
        target = universe[fault_index % len(universe)]
        rng = RngStream(seed, "prop", circuit_name)
        patterns = [
            BitVector.random(circuit.n_inputs, rng) for _ in range(n_patterns)
        ]
        log = make_fail_log(circuit, patterns, target, simulator.compiled)
        golden = simulator.compiled.simulate_patterns(patterns)
        flags = observed_fail_flags(golden, log.responses)
        if not flags.any():
            return  # undetected: nothing to diagnose
        faults = collapse_faults(circuit)
        representative = fault_representatives(circuit)[target]
        result = diagnose_effect_cause(
            circuit, patterns, log.responses, faults=faults,
            simulator=simulator, top_k=len(faults),
        )
        listed = {c.fault for c in result.candidates}
        if representative in listed:
            return
        true_column = simulator.detection_matrix(patterns, [target])[:, 0]
        twins = [
            c.fault
            for c in result.candidates
            if c.is_perfect
            and np.array_equal(
                simulator.detection_matrix(patterns, [c.fault])[:, 0],
                true_column,
            )
        ]
        assert twins, f"{target} missing and no indistinguishable twin listed"


class TestMultiplet:
    def test_double_fault_explained(self, c17):
        """The greedy multiplet must fully explain a double-fault log
        with at most two consistent candidates."""
        circuit = c17
        simulator = BatchFaultSimulator(circuit)
        faults = collapse_faults(circuit)
        patterns = _random_patterns(circuit, 48, "multiplet")
        pair = (Fault.stem("10", 1), Fault.stem("23", 0))
        log = make_fail_log(circuit, patterns, pair, simulator.compiled)
        result = diagnose_multiplet(
            circuit, patterns, log.responses, faults=faults, simulator=simulator
        )
        assert result.mode == "multiplet"
        assert 1 <= len(result.candidates) <= 2
        golden = simulator.compiled.simulate_patterns(patterns)
        flags = observed_fail_flags(golden, log.responses)
        explained = np.zeros(len(patterns), dtype=bool)
        for candidate in result.candidates:
            explained |= simulator.detection_matrix(patterns, [candidate.fault])[:, 0]
            assert candidate.n_mispredicted == 0
        np.testing.assert_array_equal(explained & flags, flags)

    def test_single_fault_multiplet_is_singleton(self, mux_circuit):
        simulator = BatchFaultSimulator(mux_circuit)
        faults = collapse_faults(mux_circuit)
        patterns = _random_patterns(mux_circuit, 32, "single")
        detected = simulator.detected(patterns, faults)
        target = next(f for f, flag in zip(faults, detected) if flag)
        log = make_fail_log(mux_circuit, patterns, target)
        result = diagnose_multiplet(
            mux_circuit, patterns, log.responses, faults=faults,
            simulator=simulator,
        )
        assert len(result.candidates) == 1
        assert result.candidates[0].is_perfect


# ----------------------------------------------------------------------
# flow integration: stage + session + cache
# ----------------------------------------------------------------------


class TestFlowIntegration:
    def test_stage_rejects_unknown_method(self, c17):
        from repro.flow.session import Session

        patterns = _random_patterns(c17, 8, "voodoo")
        log = make_fail_log(c17, patterns, collapse_faults(c17)[0])
        with pytest.raises(ValueError, match="unknown diagnosis method"):
            Session(c17).diagnose(log, method="voodoo")

    def test_session_diagnose_effect_cause(self, tmp_path):
        from repro.flow.session import Session

        session = Session.from_name("c17", scale=1.0, cache=tmp_path)
        faults = collapse_faults(session.circuit)
        patterns = _random_patterns(session.circuit, 32, "session")
        detected = session.simulator.detected(patterns, faults)
        target = next(f for f, flag in zip(faults, detected) if flag)
        log = make_fail_log(session.circuit, patterns, target)
        result = session.diagnose(log, faults=faults, top_k=5)
        assert result.candidates[0].is_perfect
        assert "stage" in result.timings

    def test_session_dictionary_cache_round_trip(self, tmp_path):
        from repro.flow.session import Session

        patterns = _random_patterns(load_circuit("c17"), 24, "cache")
        cold = Session.from_name("c17", cache=tmp_path)
        first = cold.fault_dictionary(patterns)
        assert cold.cache.misses_for("fault_dictionary") == 1
        warm = Session.from_name("c17", cache=tmp_path)
        second = warm.fault_dictionary(patterns)
        assert warm.cache.hits_for("fault_dictionary") == 1
        np.testing.assert_array_equal(first.matrix, second.matrix)
        assert first.faults == second.faults

    def test_session_diagnose_dictionary_method(self, tmp_path):
        from repro.flow.session import Session

        session = Session.from_name("c17", cache=tmp_path)
        faults = collapse_faults(session.circuit)
        patterns = _random_patterns(session.circuit, 32, "dictmethod")
        detected = session.simulator.detected(patterns, faults)
        target = next(f for f, flag in zip(faults, detected) if flag)
        log = make_fail_log(session.circuit, patterns, target)
        result = session.diagnose(log, method="dictionary", faults=faults)
        assert result.mode == "dictionary"
        assert result.candidates[0].is_perfect
        # The dictionary was cached along the way.
        assert session.cache.misses_for("fault_dictionary") == 1
        session.diagnose(log, method="dictionary", faults=faults)
        assert session.cache.hits_for("fault_dictionary") == 1


# ----------------------------------------------------------------------
# vectorised multi-log lookup (the serve layer's batching primitive)
# ----------------------------------------------------------------------


class TestDiagnoseMany:
    def _logs(self, circuit, n_logs, *names):
        patterns = _random_patterns(circuit, 32, *names)
        faults = collapse_faults(circuit)
        simulator = BatchFaultSimulator(circuit)
        detected = simulator.detected(patterns, faults)
        detectable = [f for f, flag in zip(faults, detected) if flag]
        assert len(detectable) >= n_logs
        logs = [
            make_fail_log(circuit, patterns, fault, simulator.compiled)
            for fault in detectable[:n_logs]
        ]
        return patterns, faults, simulator, logs

    def test_matches_serial_diagnose_per_log(self, c17):
        patterns, faults, simulator, logs = self._logs(c17, 6, "many")
        dictionary = FaultDictionary.build(c17, patterns, faults)
        golden = simulator.compiled.simulate_patterns(patterns)
        flags = np.stack(
            [observed_fail_flags(golden, log.responses) for log in logs],
            axis=1,
        )
        batched = dictionary.diagnose_many(flags, top_k=4)
        serial = [
            dictionary.diagnose(flags[:, i], top_k=4)
            for i in range(len(logs))
        ]
        assert len(batched) == len(serial)
        for got, want in zip(batched, serial):
            assert encode(got) == encode(want)

    def test_single_column_matches_diagnose(self, c17):
        patterns, faults, simulator, logs = self._logs(c17, 1, "one")
        dictionary = FaultDictionary.build(c17, patterns, faults)
        golden = simulator.compiled.simulate_patterns(patterns)
        flags = observed_fail_flags(golden, logs[0].responses)
        (batched,) = dictionary.diagnose_many(flags, top_k=3)
        assert encode(batched) == encode(dictionary.diagnose(flags, top_k=3))

    def test_per_log_top_k(self, c17):
        patterns, faults, simulator, logs = self._logs(c17, 2, "topk")
        dictionary = FaultDictionary.build(c17, patterns, faults)
        golden = simulator.compiled.simulate_patterns(patterns)
        flags = np.stack(
            [observed_fail_flags(golden, log.responses) for log in logs],
            axis=1,
        )
        first, second = dictionary.diagnose_many(flags, top_k=[2, 5])
        assert len(first.candidates) == 2
        assert len(second.candidates) == 5

    def test_shape_validation(self, c17):
        patterns = _random_patterns(c17, 8, "shape-many")
        dictionary = FaultDictionary.build(c17, patterns)
        with pytest.raises(ValueError):
            dictionary.diagnose_many(
                np.zeros((dictionary.n_patterns + 1, 2), dtype=bool)
            )
        with pytest.raises(ValueError):
            dictionary.diagnose_many(
                np.zeros((dictionary.n_patterns, 2), dtype=bool), top_k=[1]
            )

    def test_session_diagnose_batch_identical_to_serial(self, tmp_path):
        from repro.flow.session import Session

        session = Session.from_name("c17", cache=tmp_path)
        circuit = session.circuit
        patterns_a = _random_patterns(circuit, 24, "batch-a")
        patterns_b = _random_patterns(circuit, 16, "batch-b")
        faults = collapse_faults(circuit)
        detected_a = session.simulator.detected(patterns_a, faults)
        detected_b = session.simulator.detected(patterns_b, faults)
        logs = [
            make_fail_log(circuit, patterns_a, fault, session.simulator.compiled)
            for fault, flag in zip(faults, detected_a)
            if flag
        ][:3] + [
            make_fail_log(circuit, patterns_b, fault, session.simulator.compiled)
            for fault, flag in zip(faults, detected_b)
            if flag
        ][:2]
        assert len(logs) == 5  # two pattern-set groups in one batch
        batched = session.diagnose_batch(logs, method="dictionary", top_k=4)
        serial = [
            session.diagnose(log, method="dictionary", top_k=4) for log in logs
        ]
        for got, want in zip(batched, serial):
            assert encode(got) == encode(want)

    def test_session_collapses_the_fault_list_once(self, monkeypatch):
        import repro.faults.collapse as collapse
        from repro.flow.session import Session

        session = Session.from_name("c17")
        circuit = session.circuit
        faults = collapse_faults(circuit)
        patterns = _random_patterns(circuit, 16, "memo")
        detected = session.simulator.detected(patterns, faults)
        logs = [
            make_fail_log(circuit, patterns, fault, session.simulator.compiled)
            for fault, flag in zip(faults, detected)
            if flag
        ][:2]
        calls = []

        def counted(circuit):
            calls.append(circuit.name)
            return collapse_faults(circuit)

        monkeypatch.setattr(collapse, "collapse_faults", counted)
        results = [session.diagnose_batch(logs, top_k=3) for _ in range(3)]
        assert calls == ["c17"]
        assert [encode(r) for r in results[0]] == [encode(r) for r in results[2]]
        # Callers get copies: mutating one leaves the session's list intact.
        session._fault_list().clear()
        assert session._fault_list() == faults
        assert session.diagnose(logs[0], method="dictionary", top_k=3)
        assert calls == ["c17"]

    def test_session_digests_the_fault_list_once(self, monkeypatch):
        import hashlib

        from repro.flow.session import ArtifactCache, Session

        session = Session.from_name("c17")
        circuit = session.circuit
        faults = collapse_faults(circuit)
        patterns = _random_patterns(circuit, 16, "digest")
        detected = session.simulator.detected(patterns, faults)
        logs = [
            make_fail_log(circuit, patterns, fault, session.simulator.compiled)
            for fault, flag in zip(faults, detected)
            if flag
        ][:2]
        calls = []
        to_text = Fault.__str__

        def counted(fault):
            calls.append(fault)
            return to_text(fault)

        monkeypatch.setattr(Fault, "__str__", counted)
        results = [session.diagnose_batch(logs, top_k=3) for _ in range(3)]
        assert len(calls) == len(faults)  # one pass, not one per call
        assert [encode(r) for r in results[0]] == [encode(r) for r in results[2]]
        monkeypatch.undo()
        # The key is byte-identical to the one caches were written under.
        packed = session.packed_patterns(patterns)
        assert session._dictionary_key(packed) == ArtifactCache.key(
            "fault_dictionary",
            circuit=session.name,
            netlist=session.circuit_fingerprint,
            patterns=session._packed_digest(packed),
            faults=hashlib.sha256(
                "\n".join(str(f) for f in faults).encode()
            ).hexdigest(),
        )
        assert list(session._memos["fault_dictionary"]) == [
            session._dictionary_key(packed)
        ]
        assert session._dictionary_key(packed, faults) == session._dictionary_key(
            packed
        )

    def test_session_memos_are_bounded(self, monkeypatch):
        """One sequence past the cap evicts the least recently used one:
        both memos hold the cap, the newest sequence is a memo hit, and
        the evicted one rebuilds an equal dictionary."""
        from repro.diagnosis.dictionary import FaultDictionary
        from repro.flow.session import MAX_SEQUENCE_MEMOS, Session

        session = Session.from_name("c17")
        sequences = [
            _random_patterns(session.circuit, 8, "memo", str(index))
            for index in range(MAX_SEQUENCE_MEMOS + 1)
        ]
        dictionaries = [session.fault_dictionary(p) for p in sequences]
        goldens = [session.golden_responses(p) for p in sequences]
        assert len(session._memos["fault_dictionary"]) == MAX_SEQUENCE_MEMOS
        assert len(session._memos["golden_responses"]) == MAX_SEQUENCE_MEMOS
        builds = []
        build = FaultDictionary.build

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(FaultDictionary, "build", counted)
        assert session.fault_dictionary(sequences[-1]) is dictionaries[-1]
        assert builds == []
        rebuilt = session.fault_dictionary(sequences[0])
        assert len(builds) == 1
        assert rebuilt is not dictionaries[0]
        assert encode(rebuilt) == encode(dictionaries[0])
        assert session.golden_responses(sequences[0]) == goldens[0]
        assert len(session._memos["fault_dictionary"]) == MAX_SEQUENCE_MEMOS
        assert len(session._memos["golden_responses"]) == MAX_SEQUENCE_MEMOS

    def test_session_diagnose_batch_non_dictionary_degrades(self, tmp_path):
        from repro.flow.session import Session

        session = Session.from_name("c17", cache=tmp_path)
        circuit = session.circuit
        patterns = _random_patterns(circuit, 24, "batch-ec")
        faults = collapse_faults(circuit)
        detected = session.simulator.detected(patterns, faults)
        target = next(f for f, flag in zip(faults, detected) if flag)
        log = make_fail_log(circuit, patterns, target, session.simulator.compiled)
        (batched,) = session.diagnose_batch(
            [log], method="effect_cause", top_k=3
        )
        serial = session.diagnose(log, method="effect_cause", top_k=3)
        assert [c.fault for c in batched.candidates] == [
            c.fault for c in serial.candidates
        ]

    def test_diagnose_batch_top_k_length_validated(self, tmp_path):
        from repro.flow.session import Session

        session = Session.from_name("c17")
        with pytest.raises(ValueError, match="top_k"):
            session.diagnose_batch([], top_k=[1, 2])

    def test_attach_packed_validates_length(self, c17):
        from repro.utils.bitvec import pack_patterns

        patterns = _random_patterns(c17, 8, "attach")
        faults = collapse_faults(c17)
        simulator = BatchFaultSimulator(c17)
        detected = simulator.detected(patterns, faults)
        target = next(f for f, flag in zip(faults, detected) if flag)
        log = make_fail_log(c17, patterns, target, simulator.compiled)
        packed = log.packed(c17.n_inputs)
        assert log.attach_packed(packed) is log
        short = make_fail_log(
            c17, patterns[:4], target, simulator.compiled
        ).packed(c17.n_inputs)
        with pytest.raises(ValueError, match="packed carries"):
            log.attach_packed(short)
