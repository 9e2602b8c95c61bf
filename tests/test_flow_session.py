"""Tests for the flow-layer redesign: sessions, stages, cache, serde."""

from __future__ import annotations

import json

import pytest

from repro.circuits import load_circuit
from repro.flow.pipeline import PipelineConfig, PipelineResult
from repro.flow.serialize import SCHEMA_VERSION, SchemaMismatchError, decode, encode
from repro.flow.session import ArtifactCache, Session
from repro.flow.stages import StageEvent
from repro.obs import Telemetry

CONFIG = PipelineConfig(evolution_length=8, max_random_patterns=128)

#: The flow's stage names, in the order a run reports them.
FIGURE_1 = ("atpg", "detection_matrix", "set_cover", "trim")


@pytest.fixture(scope="module")
def c17():
    return load_circuit("c17")


@pytest.fixture(scope="module")
def baseline(c17):
    """A plain session run — the bit-exactness reference."""
    return Session(c17, CONFIG).run("adder")


class TestStages:
    def test_progress_events(self, c17):
        events: list[StageEvent] = []
        Session(c17, CONFIG, progress=events.append).run("adder")
        stages = [e.stage for e in events if e.status == "start"]
        assert stages == list(FIGURE_1)
        done = [e.stage for e in events if e.status == "done"]
        assert done == list(FIGURE_1)
        assert all(e.seconds >= 0 for e in events)

    def test_cold_run_reports_each_stage_once(self, c17):
        telemetry = Telemetry.on(trace=True)
        events: list[StageEvent] = []
        Session(
            c17, CONFIG, progress=events.append, telemetry=telemetry
        ).run("adder")
        assert [(e.stage, e.status) for e in events] == [
            (stage, status)
            for stage in FIGURE_1
            for status in ("start", "done")
        ]
        atpg_spans = [s for s in telemetry.tracer.roots if s.name == "flow.atpg"]
        assert len(atpg_spans) == 1
        assert atpg_spans[0].attrs["status"] == "done"
        with pytest.raises(KeyError):
            telemetry.metrics.scalar_value(
                "repro_flow_stage_runs_total", stage="atpg", status="skipped"
            )
        (matrix,) = [
            s for s in telemetry.tracer.roots if s.name == "flow.detection_matrix"
        ]
        assert matrix.attrs["detect_cells"] > 0
        assert matrix.attrs["words_simulated"] > 0
        (cover,) = [s for s in telemetry.tracer.roots if s.name == "flow.set_cover"]
        assert set(cover.attrs) >= {
            "n_essential", "reduced_shape", "reduction_iterations", "solver"
        }

    def test_pooled_matrix_stage_reports_its_work(self, c17):
        """``matrix_workers=2`` reports the serial build's word count
        and a non-zero cell count on the matrix stage: the pool's work
        lands on the session's simulator."""
        from dataclasses import replace

        attrs = {}
        for workers in (None, 2):
            events: list[StageEvent] = []
            config = replace(CONFIG, matrix_workers=workers)
            Session(c17, config, progress=events.append).run("adder")
            (done,) = [
                e for e in events if (e.stage, e.status) == ("detection_matrix", "done")
            ]
            attrs[workers] = done.attrs
        assert attrs[2]["words_simulated"] == attrs[None]["words_simulated"] > 0
        assert attrs[2]["detect_cells"] > 0

    def test_preseeded_atpg_emits_skipped(self, c17, baseline):
        events: list[StageEvent] = []
        session = Session(
            c17, CONFIG, atpg_result=baseline.atpg, progress=events.append
        )
        session.run("adder")
        statuses = {e.stage: e.status for e in events if e.status != "start"}
        assert statuses["atpg"] == "skipped"
        assert statuses["trim"] == "done"


class TestSerialization:
    def test_round_trip_preserves_everything(self, baseline):
        clone = PipelineResult.from_dict(json.loads(baseline.to_json()))
        assert clone.circuit_name == baseline.circuit_name
        assert clone.tpg_name == baseline.tpg_name
        assert clone.config == baseline.config
        assert clone.n_triplets == baseline.n_triplets
        assert clone.test_length == baseline.test_length
        assert clone.atpg.test_set == baseline.atpg.test_set
        assert clone.atpg.target_faults == baseline.atpg.target_faults
        assert clone.initial.triplets == baseline.initial.triplets
        assert (
            clone.initial.detection_matrix.matrix
            == baseline.initial.detection_matrix.matrix
        ).all()
        assert clone.cover.selected == baseline.cover.selected
        assert clone.cover.stats == baseline.cover.stats
        assert clone.selected_triplets == baseline.selected_triplets
        assert clone.trimmed.solution == baseline.trimmed.solution
        assert clone.trimmed.delta_coverage == baseline.trimmed.delta_coverage
        assert clone.timings == baseline.timings

    def test_dict_is_json_compatible(self, baseline):
        text = json.dumps(baseline.to_dict())
        assert json.loads(text)["schema_version"] == SCHEMA_VERSION

    def test_atpg_round_trip(self, baseline):
        from repro.atpg.engine import AtpgResult

        clone = decode(AtpgResult, json.loads(json.dumps(encode(baseline.atpg))))
        assert clone.test_set == baseline.atpg.test_set
        assert clone.target_faults == baseline.atpg.target_faults
        assert clone.untestable == baseline.atpg.untestable
        assert clone.n_collapsed_faults == baseline.atpg.n_collapsed_faults

    def test_schema_version_checked(self, baseline):
        payload = baseline.to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaMismatchError):
            PipelineResult.from_dict(payload)

    def test_kind_checked(self, baseline):
        payload = baseline.to_dict()
        payload["kind"] = "atpg_result"
        with pytest.raises(SchemaMismatchError):
            PipelineResult.from_dict(payload)

    def test_mistyped_field_names_it(self, baseline):
        payload = baseline.to_dict()
        payload["atpg"]["test_set"] = [7]
        with pytest.raises(SchemaMismatchError, match=r"pipeline_result\.atpg\.test_set"):
            PipelineResult.from_dict(payload)

    def test_cache_round_trip_is_identical(self, tmp_path):
        written = Session.from_name("c17", config=CONFIG, cache=tmp_path).run("adder")
        warm = Session.from_name("c17", config=CONFIG, cache=tmp_path)
        info = warm.run_info("adder")
        assert info.from_cache
        assert info.result.to_dict() == written.to_dict()

    def test_v3_cache_entry_is_a_counted_miss(self, tmp_path):
        """Entries written before the v4 codec are recomputed, never
        mis-decoded."""
        Session.from_name("c17", config=CONFIG, cache=tmp_path).run("adder")
        for path in tmp_path.glob("objects/*/*.json"):
            payload = json.loads(path.read_text())
            payload["schema_version"] = 3
            path.write_text(json.dumps(payload))
        warm = Session.from_name("c17", config=CONFIG, cache=tmp_path)
        info = warm.run_info("adder")
        assert not info.from_cache
        assert warm.cache.misses_for("pipeline_result") == 1
        assert warm.cache.hits_for("pipeline_result") == 0
        assert warm.cache.corrupt_for("pipeline_result") == 0

    def test_mistyped_cache_entry_is_a_corrupt_miss(self, tmp_path):
        """A right-version entry whose field fails typed decode is
        recomputed and overwritten, never raised out of the run."""
        Session.from_name("c17", config=CONFIG, cache=tmp_path).atpg_result
        (entry,) = tmp_path.glob("objects/*/*.json")
        payload = json.loads(entry.read_text())
        assert payload["kind"] == "atpg_result"
        payload["test_set"] = 17
        entry.write_text(json.dumps(payload))
        session = Session.from_name("c17", config=CONFIG, cache=tmp_path)
        result = session.run("adder")
        assert session.cache.corrupt_for("atpg_result") == 1
        assert session.cache.hits_for("atpg_result") == 0
        clean = Session.from_name("c17", config=CONFIG).run("adder")
        assert {**result.to_dict(), "timings": {}} == {**clean.to_dict(), "timings": {}}
        rewarmed = Session.from_name("c17", config=CONFIG, cache=tmp_path)
        assert rewarmed.atpg_result.test_set == clean.atpg.test_set
        assert rewarmed.cache.hits_for("atpg_result") == 1


def _serve_bodies(baseline):
    """One representative instance of every serve-layer wire kind."""
    from repro.diagnosis.result import DiagnosisResult
    from repro.flow.serialize import diagnosis_result_to_dict
    from repro.serve.api import (
        AtpgRequest,
        AtpgResponse,
        DiagnoseRequest,
        DiagnoseResponse,
        PatternSet,
        ServeError,
        SweepRequest,
        SweepResponse,
    )
    from repro.utils.bitvec import BitVector

    diagnosis_payload = diagnosis_result_to_dict(
        DiagnosisResult(
            circuit_name="c17",
            mode="dictionary",
            n_patterns=4,
            n_failing=1,
            candidates=[],
            n_candidates_considered=3,
        )
    )
    return {
        "pattern_set": PatternSet(
            circuit_name="c17",
            width=5,
            patterns=(
                BitVector.from_string("10101"),
                BitVector.from_string("01010"),
            ),
        ),
        "diagnose_request": DiagnoseRequest(
            circuit="c17",
            responses=("10", "01"),
            patterns=("10101", "01010"),
            method="dictionary",
            top_k=5,
            timeout_ms=1500,
        ),
        "diagnose_response": DiagnoseResponse(
            result=diagnosis_payload,
            patterns_ref="ab" * 32,
            batched=True,
            batch_size=4,
            seconds=0.0123,
        ),
        "atpg_request": AtpgRequest(circuit="c17", max_random_patterns=64),
        "atpg_response": AtpgResponse(
            result=encode(baseline.atpg), from_memo=True, seconds=0.5
        ),
        "sweep_request": SweepRequest(
            circuits=("c17", "s27"), evolution_lengths=(8, 16)
        ),
        "sweep_response": SweepResponse(
            cells=({"circuit": "c17", "tpg": "adder", "n_triplets": 3},),
            n_cached=1,
            seconds=1.25,
        ),
        "serve_error": ServeError(
            error="queue full", status=429, retry_after=1.0
        ),
    }


SERVE_KINDS = [
    "pattern_set",
    "diagnose_request",
    "diagnose_response",
    "atpg_request",
    "atpg_response",
    "sweep_request",
    "sweep_response",
    "serve_error",
]


class TestServeSerialization:
    """The serve wire kinds ride the same schema-versioned discipline
    as the artifact kinds above — round-trip + skew rejection each."""

    @pytest.mark.parametrize("kind", SERVE_KINDS)
    def test_round_trip_preserves_everything(self, baseline, kind):
        body = _serve_bodies(baseline)[kind]
        payload = encode(body)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == kind
        clone = decode(type(body), json.loads(json.dumps(payload)))
        assert clone == body

    @pytest.mark.parametrize("kind", SERVE_KINDS)
    def test_schema_version_skew_rejected(self, baseline, kind):
        body = _serve_bodies(baseline)[kind]
        payload = encode(body)
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaMismatchError):
            decode(type(body), payload)

    @pytest.mark.parametrize("kind", SERVE_KINDS)
    def test_wrong_kind_rejected(self, baseline, kind):
        body = _serve_bodies(baseline)[kind]
        payload = encode(body)
        payload["kind"] = "packed_evolution"
        with pytest.raises(SchemaMismatchError):
            decode(type(body), payload)

    def test_serve_stats_envelope_round_trips(self):
        from repro.serve.api import ServeStats

        counters = {"requests": {"/diagnose": 3}, "batcher": {"shed": 0}}
        payload = encode(ServeStats(counters))
        assert payload["kind"] == "serve_stats"
        assert decode(ServeStats, json.loads(json.dumps(payload))).stats == counters

    def test_diagnose_response_checks_embedded_result(self, baseline):
        body = _serve_bodies(baseline)["diagnose_response"]
        payload = encode(body)
        payload["result"]["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaMismatchError):
            decode(type(body), payload)


class TestArtifactCacheRobustness:
    """The PR-7 bugfixes: corrupt entries are counted misses (never
    crashes), failed writes never orphan ``*.tmp`` files."""

    def _key_and_payload(self):
        key = ArtifactCache.key("pattern_set", digest="robust")
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "pattern_set",
            "circuit_name": "c17",
            "width": 5,
            "patterns": ["10101"],
        }
        return key, payload

    def test_truncated_json_is_corrupt_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key, payload = self._key_and_payload()
        cache.put(key, payload)
        cache._path(key).write_text('{"schema_version": 2, "ki')
        assert cache.get(key, "pattern_set") is None
        assert cache.corrupt_for("pattern_set") == 1
        assert cache.stats()["corrupt"] == 1
        assert cache.misses_for("pattern_set") == 1

    def test_valid_json_non_dict_is_corrupt_miss(self, tmp_path):
        """Regression: a JSON scalar/list used to crash ``get`` with an
        AttributeError inside ``check_schema``."""
        cache = ArtifactCache(tmp_path)
        key, _ = self._key_and_payload()
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("42")
        assert cache.get(key, "pattern_set") is None
        assert cache.corrupt_for("pattern_set") == 1

    def test_schema_mismatch_is_plain_miss_not_corrupt(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key, payload = self._key_and_payload()
        payload["schema_version"] = SCHEMA_VERSION + 1
        cache.put(key, payload)
        assert cache.get(key, "pattern_set") is None
        assert cache.corrupt_for("pattern_set") == 0
        assert cache.misses_for("pattern_set") == 1

    def test_failed_replace_removes_tmp(self, tmp_path, monkeypatch):
        from pathlib import Path as _Path

        cache = ArtifactCache(tmp_path)
        key, payload = self._key_and_payload()

        def doomed(self, target):
            raise OSError("disk full")

        monkeypatch.setattr(_Path, "replace", doomed)
        with pytest.raises(OSError):
            cache.put(key, payload)
        monkeypatch.undo()
        assert not list(tmp_path.glob("**/*.tmp"))
        assert not cache._path(key).exists()

    def test_stale_tmp_swept_at_open(self, tmp_path):
        import os as _os
        import time as _time

        stale = tmp_path / "entry.json.1-0.tmp"
        stale.write_text("partial")
        _os.utime(stale, (_time.time() - 7200, _time.time() - 7200))
        fresh = tmp_path / "entry.json.2-0.tmp"
        fresh.write_text("live writer")
        cache = ArtifactCache(tmp_path)
        assert not stale.exists()
        assert fresh.exists()
        assert cache.swept_tmp == 1
        assert cache.stats()["swept_tmp"] == 1

    def test_concurrent_writers_use_distinct_tmp_names(self, tmp_path):
        a, b = ArtifactCache(tmp_path), ArtifactCache(tmp_path)
        path = tmp_path / "entry.json"
        assert a._tmp_path(path) != b._tmp_path(path)


class TestSession:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_matrix_workers_below_one_rejected(self, c17, baseline, workers):
        """The matrix build raises before it starts a pool; it does not
        fall back to a serial build."""
        from dataclasses import replace

        config = replace(CONFIG, matrix_workers=workers)
        session = Session(c17, config, atpg_result=baseline.atpg)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            session.run("adder")

    def test_session_matches_pipeline(self, c17, baseline):
        session = Session(c17, config=CONFIG)
        result = session.run("adder")
        assert result.n_triplets == baseline.n_triplets
        assert result.test_length == baseline.test_length
        assert result.selected_triplets == baseline.selected_triplets

    def test_atpg_shared_across_tpgs(self, c17):
        session = Session(c17, config=CONFIG)
        a = session.run("adder")
        b = session.run("multiplier")
        assert a.atpg is session.atpg_result
        assert b.atpg is session.atpg_result

    def test_from_name_records_scale(self):
        session = Session.from_name("s27", scale=1.0, config=CONFIG)
        assert session.name == "s27"
        assert session.scale == 1.0

    def test_cache_miss_then_hit(self, tmp_path, baseline):
        cache = ArtifactCache(tmp_path)
        session = Session.from_name("c17", config=CONFIG, cache=cache)
        first = session.run("adder")
        assert cache.hits_for("pipeline_result") == 0
        assert cache.misses_for("pipeline_result") == 1

        # A brand-new session (fresh process simulation): full hit.
        cache2 = ArtifactCache(tmp_path)
        session2 = Session.from_name("c17", config=CONFIG, cache=cache2)
        second = session2.run("adder")
        assert cache2.hits_for("pipeline_result") == 1
        assert cache2.misses_for("atpg_result") == 0  # never even consulted
        assert second.n_triplets == first.n_triplets
        assert second.test_length == first.test_length
        assert second.selected_triplets == first.selected_triplets

    def test_warm_atpg_cache_skips_atpg(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        session = Session.from_name("c17", config=CONFIG, cache=cache)
        session.atpg_result
        assert cache.misses_for("atpg_result") == 1

        cache2 = ArtifactCache(tmp_path)
        warm = Session.from_name("c17", config=CONFIG, cache=cache2)
        events: list[StageEvent] = []
        warm.progress = events.append
        warm.atpg_result
        assert cache2.hits_for("atpg_result") == 1
        assert [e.status for e in events] == ["cache-hit"]

    def test_cache_key_varies_with_config_and_circuit(self):
        base = ArtifactCache.key("pipeline_result", circuit="c17", seed=1)
        assert base != ArtifactCache.key("pipeline_result", circuit="c17", seed=2)
        assert base != ArtifactCache.key("pipeline_result", circuit="s27", seed=1)
        assert base != ArtifactCache.key("atpg_result", circuit="c17", seed=1)
        assert base == ArtifactCache.key("pipeline_result", circuit="c17", seed=1)

    def test_corrupt_cache_entry_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        session = Session.from_name("c17", config=CONFIG, cache=cache)
        session.run("adder")
        for entry in tmp_path.glob("objects/*/*.json"):
            entry.write_text("{not json")
        cache2 = ArtifactCache(tmp_path)
        session2 = Session.from_name("c17", config=CONFIG, cache=cache2)
        result = session2.run("adder")
        assert cache2.hits == 0
        assert result.n_triplets >= 1

    def test_cache_key_distinguishes_scales(self, tmp_path):
        """Same catalog name at two scales must never share cache
        entries — the netlist fingerprint in the key separates them."""
        config = PipelineConfig(evolution_length=8, max_random_patterns=64)
        small = Session.from_name("s420", scale=0.15, config=config, cache=tmp_path)
        small_result = small.run("adder")
        big = Session.from_name(
            "s420", scale=0.5, config=config, cache=ArtifactCache(tmp_path)
        )
        big_result = big.run("adder")
        assert big.cache.hits == 0
        fresh = Session.from_name("s420", scale=0.5, config=config).run("adder")
        assert (big_result.n_triplets, big_result.test_length) == (
            fresh.n_triplets,
            fresh.test_length,
        )
        assert small.circuit_fingerprint != big.circuit_fingerprint
        assert small_result.circuit_name == big_result.circuit_name == "s420"

    def test_matrix_workers_does_not_invalidate_cache(self, tmp_path):
        """Performance-only knobs must not miss the result cache."""
        from dataclasses import replace

        Session.from_name("c17", config=CONFIG, cache=tmp_path).run("adder")
        warm = ArtifactCache(tmp_path)
        workers_config = replace(CONFIG, matrix_workers=4)
        session = Session.from_name("c17", config=workers_config, cache=warm)
        session.run("adder", config=workers_config)
        assert warm.hits_for("pipeline_result") == 1

    def test_atpg_memoized_per_knob_set(self, c17):
        """Two configs with different ATPG knobs cost exactly two ATPG
        runs regardless of how many TPG flows consume them."""
        from dataclasses import replace

        session = Session(c17, config=CONFIG)
        seed2 = replace(CONFIG, seed=CONFIG.seed + 1)
        a1 = session.run("adder").atpg
        m1 = session.run("multiplier").atpg
        a2 = session.run("adder", config=seed2).atpg
        m2 = session.run("multiplier", config=seed2).atpg
        assert a1 is m1
        assert a2 is m2
        assert a1 is not a2


def _bank(circuit, n=6):
    from repro.tpg import make_tpg
    from repro.utils.bitvec import BitVector
    from repro.utils.rng import RngStream

    tpg = make_tpg("adder", circuit.n_inputs)
    rng = RngStream(11, "evolution-cache")
    deltas = [BitVector.random(circuit.n_inputs, rng) for _ in range(n)]
    sigmas = [tpg.suggest_sigma(rng) for _ in range(n)]
    return tpg, deltas, sigmas


def _patterns(circuit, n=40):
    from repro.utils.bitvec import BitVector
    from repro.utils.rng import RngStream

    rng = RngStream(7, "session-packed")
    return [BitVector.random(circuit.n_inputs, rng) for _ in range(n)]


#: Every stored artefact kind -> (the session call that yields it, the
#: store entries a repeat of that call in the same session reads).
#: Pipeline results are stored but never memoized, so a repeat reads
#: its entry again.
STORED_KINDS = {
    "atpg_result": (lambda session: session.atpg_result, 0),
    "packed_evolution": (
        lambda session: session.packed_evolution(*_bank(session.circuit), 16),
        0,
    ),
    "fault_dictionary": (
        lambda session: session.fault_dictionary(_patterns(session.circuit)),
        0,
    ),
    "pipeline_result": (lambda session: session.run("adder"), 1),
}


def _stored_form(artefact) -> dict:
    """The artefact's store payload, without the run's wall-clock timings."""
    if isinstance(artefact, PipelineResult):
        payload = artefact.to_dict()
    else:
        payload = encode(artefact)
    payload.pop("timings", None)
    return payload


@pytest.mark.parametrize("kind", sorted(STORED_KINDS))
def test_stored_kind_builds_loads_memoizes_and_survives_rot(
    kind, c17, tmp_path, monkeypatch
):
    """One kind through memo -> store -> build: a cold session builds
    it (one miss), a fresh one loads an equal artefact (one hit), a
    repeat reads no entry unless the kind is store-only, and a
    truncated entry is a corrupt miss that rebuilds an equal one."""
    call, repeat_reads = STORED_KINDS[kind]
    cold = Session(c17, config=CONFIG, cache=ArtifactCache(tmp_path))
    built = call(cold)
    assert (cold.cache.misses_for(kind), cold.cache.hits_for(kind)) == (1, 0)

    warm = Session(c17, config=CONFIG, cache=ArtifactCache(tmp_path))
    assert _stored_form(call(warm)) == _stored_form(built)
    assert (warm.cache.misses_for(kind), warm.cache.hits_for(kind)) == (0, 1)

    reads = []
    get = warm.cache.get

    def counted_get(key, got_kind, *rest):
        reads.append(got_kind)
        return get(key, got_kind, *rest)

    monkeypatch.setattr(warm.cache, "get", counted_get)
    call(warm)
    assert reads.count(kind) == repeat_reads

    entries = [
        entry
        for entry in tmp_path.glob("objects/*/*.json")
        if json.loads(entry.read_text())["kind"] == kind
    ]
    assert len(entries) == 1
    text = entries[0].read_text()
    entries[0].write_text(text[: len(text) // 2])
    rotten = Session(c17, config=CONFIG, cache=ArtifactCache(tmp_path))
    assert _stored_form(call(rotten)) == _stored_form(built)
    assert rotten.cache.corrupt_for(kind) == 1
    assert (rotten.cache.misses_for(kind), rotten.cache.hits_for(kind)) == (1, 0)


class TestSessionPackedPatterns:
    def _patterns(self, c17, n=40):
        from repro.utils.bitvec import BitVector
        from repro.utils.rng import RngStream

        rng = RngStream(7, "session-packed")
        return [BitVector.random(c17.n_inputs, rng) for _ in range(n)]

    def test_packed_patterns_coerces_and_passes_through(self, c17):
        session = Session(c17, config=CONFIG)
        patterns = self._patterns(c17)
        packed = session.packed_patterns(patterns)
        # An already-packed argument passes straight through (the
        # pack-once contract: callers hold on to the result).
        assert session.packed_patterns(packed) is packed
        assert packed.width == c17.n_inputs
        assert packed.unpack() == patterns

    def test_fault_dictionary_accepts_packed(self, c17, tmp_path):
        import numpy as np

        session = Session(c17, config=CONFIG, cache=ArtifactCache(tmp_path))
        patterns = self._patterns(c17)
        from_list = session.fault_dictionary(patterns)
        from_packed = session.fault_dictionary(session.packed_patterns(patterns))
        np.testing.assert_array_equal(from_list.matrix, from_packed.matrix)
        # List and packed arguments hash to the same cache key, so the
        # second build was a warm hit.
        assert session.cache.hits_for("fault_dictionary") == 1


class TestPackedEvolutionCache:
    """Session.packed_evolution: memory -> ArtifactCache -> compute."""

    def _bank(self, c17, n=6):
        from repro.tpg import make_tpg
        from repro.utils.bitvec import BitVector
        from repro.utils.rng import RngStream

        tpg = make_tpg("adder", c17.n_inputs)
        rng = RngStream(11, "evolution-cache")
        deltas = [BitVector.random(c17.n_inputs, rng) for _ in range(n)]
        sigmas = [tpg.suggest_sigma(rng) for _ in range(n)]
        return tpg, deltas, sigmas

    def test_identical_to_direct_evolution(self, c17, tmp_path):
        import numpy as np

        session = Session(c17, config=CONFIG, cache=ArtifactCache(tmp_path))
        tpg, deltas, sigmas = self._bank(c17)
        packed = session.packed_evolution(tpg, deltas, sigmas, 16)
        np.testing.assert_array_equal(
            packed.words, tpg.evolve_batch(deltas, sigmas, 16).words
        )
        # Second call in the same session is served from memory.
        assert session.packed_evolution(tpg, deltas, sigmas, 16) is packed

    def test_warm_process_loads_from_disk(self, c17, tmp_path):
        import numpy as np

        tpg, deltas, sigmas = self._bank(c17)
        cold = Session(c17, config=CONFIG, cache=ArtifactCache(tmp_path))
        packed = cold.packed_evolution(tpg, deltas, sigmas, 16)
        warm = Session(c17, config=CONFIG, cache=ArtifactCache(tmp_path))
        reloaded = warm.packed_evolution(tpg, deltas, sigmas, 16)
        assert warm.cache.hits_for("packed_evolution") == 1
        np.testing.assert_array_equal(reloaded.words, packed.words)
        assert reloaded.n_patterns == packed.n_patterns

    def test_key_varies_with_bank_length_and_tpg(self, c17):
        session = Session(c17, config=CONFIG)
        tpg, deltas, sigmas = self._bank(c17)
        base = session._evolution_key(tpg, deltas, sigmas, 16)
        assert session._evolution_key(tpg, deltas, sigmas, 17) != base
        assert session._evolution_key(tpg, deltas[:-1], sigmas[:-1], 16) != base
        from repro.tpg import make_tpg

        other = make_tpg("multiplier", c17.n_inputs)
        assert session._evolution_key(other, deltas, sigmas, 16) != base

    def test_evolution_memo_is_bounded(self, c17):
        """The memo keeps the MAX_SEQUENCE_MEMOS most recent banks; an
        evicted bank is rebuilt bit-identical."""
        import numpy as np

        from repro.flow.session import MAX_SEQUENCE_MEMOS

        session = Session(c17, config=CONFIG)
        tpg, deltas, sigmas = self._bank(c17)
        lengths = range(1, MAX_SEQUENCE_MEMOS + 2)
        banks = [session.packed_evolution(tpg, deltas, sigmas, n) for n in lengths]
        memo = session._memos["packed_evolution"]
        assert len(memo) == MAX_SEQUENCE_MEMOS
        assert session._evolution_key(tpg, deltas, sigmas, 1) not in memo
        rebuilt = session.packed_evolution(tpg, deltas, sigmas, 1)
        assert rebuilt is not banks[0]
        assert rebuilt.n_patterns == banks[0].n_patterns
        np.testing.assert_array_equal(rebuilt.words, banks[0].words)
        assert len(memo) == MAX_SEQUENCE_MEMOS

    def test_session_run_populates_evolution_memo(self, c17):
        """A flow run through the session routes the Detection Matrix
        build's evolution through packed_evolution."""
        session = Session(c17, config=CONFIG)
        session.run("adder")
        assert session._memos["packed_evolution"]  # the matrix bank is memoized

    def test_uniform_solution_packed_patterns(self, c17, baseline):
        import numpy as np

        from repro.reseeding.uniform import uniformize_solution
        from repro.tpg import make_tpg

        tpg = make_tpg("adder", c17.n_inputs)
        uniform = uniformize_solution(baseline.trimmed)
        packed = uniform.packed_patterns(tpg)
        expected = uniform.solution.patterns(tpg)
        assert packed.unpack() == expected
        assert packed.n_patterns == uniform.test_length
        # The session provider slots in as the evolve hook.
        session = Session(c17, config=CONFIG)
        via_session = uniform.packed_patterns(tpg, evolve=session.packed_evolution)
        np.testing.assert_array_equal(via_session.words, packed.words)
