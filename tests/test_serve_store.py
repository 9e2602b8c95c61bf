"""The artifact cache as the store serve workers share: sharded layout,
corruption tolerance, debris sweeping, concurrent access, and Session
integration."""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.flow.serialize import SCHEMA_VERSION
from repro.flow.session import ArtifactCache, Session
from repro.serve import ReproServer, ServeConfig


def _payload(kind: str, **fields):
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def _store_stats(root) -> dict:
    """The ``store`` block of a worker's ``/stats`` document."""
    server = ReproServer(ServeConfig(port=0, store=root))
    try:
        return server.stats()["store"]
    finally:
        asyncio.run(server.shutdown())


class TestLayout:
    def test_entries_shard_by_key_prefix(self, tmp_path):
        store = ArtifactCache(tmp_path)
        key = ArtifactCache.key("pattern_set", circuit="c17", digest="abc")
        store.put(key, _payload("pattern_set", circuit_name="c17"))
        expected = tmp_path / "objects" / key[:2] / f"{key}.json"
        assert expected.is_file()
        assert len(list(tmp_path.glob("objects/*/*.json"))) == 1

    def test_round_trip_and_counters(self, tmp_path):
        store = ArtifactCache(tmp_path)
        key = ArtifactCache.key("pattern_set", digest="x")
        assert store.get(key, "pattern_set") is None
        store.put(key, _payload("pattern_set", circuit_name="c17"))
        payload = store.get(key, "pattern_set")
        assert payload["circuit_name"] == "c17"
        assert store.hits_for("pattern_set") == 1
        assert store.misses_for("pattern_set") == 1

    def test_stats_carry_worker_identity(self, tmp_path):
        stats = _store_stats(tmp_path)
        assert stats["worker_id"] == f"pid-{os.getpid()}"
        assert stats["root"] == str(tmp_path)

    def test_default_worker_id_is_pid_tagged(self, tmp_path):
        assert _store_stats(tmp_path)["worker_id"] == f"pid-{os.getpid()}"

    def test_two_mounts_share_entries(self, tmp_path):
        writer = ArtifactCache(tmp_path)
        reader = ArtifactCache(tmp_path)
        key = ArtifactCache.key("pattern_set", digest="shared")
        writer.put(key, _payload("pattern_set", circuit_name="c17"))
        assert reader.get(key, "pattern_set") is not None
        assert reader.hits_for("pattern_set") == 1
        assert writer.hits_for("pattern_set") == 0  # per-worker counters


class TestCorruptionTolerance:
    def test_truncated_entry_is_corrupt_miss(self, tmp_path):
        store = ArtifactCache(tmp_path)
        key = ArtifactCache.key("pattern_set", digest="trunc")
        store.put(key, _payload("pattern_set", circuit_name="c17"))
        store._path(key).write_text('{"schema_version": 2, "ki')
        assert store.get(key, "pattern_set") is None
        assert store.corrupt_for("pattern_set") == 1
        assert store.stats()["corrupt"] == 1

    def test_valid_json_non_dict_is_corrupt_miss(self, tmp_path):
        """The pre-fix crash: ``json.loads`` succeeds, ``check_schema``
        blew up calling ``.get`` on a list/number."""
        store = ArtifactCache(tmp_path)
        key = ArtifactCache.key("pattern_set", digest="scalar")
        path = store._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2, 3]")
        assert store.get(key, "pattern_set") is None
        assert store.corrupt_for("pattern_set") == 1

    def test_reader_survives_writer_racing(self, tmp_path):
        """Concurrent writers + readers on the same keys: readers only
        ever observe absent or complete entries, never exceptions."""
        store = ArtifactCache(tmp_path)
        keys = [
            ArtifactCache.key("pattern_set", digest=f"k{i}") for i in range(4)
        ]
        stop = threading.Event()
        failures: list[BaseException] = []

        def writer():
            local = ArtifactCache(tmp_path)
            i = 0
            while not stop.is_set():
                local.put(
                    keys[i % 4],
                    _payload("pattern_set", circuit_name="c17", rev=i),
                )
                i += 1

        def reader():
            local = ArtifactCache(tmp_path)
            while not stop.is_set():
                for key in keys:
                    payload = local.get(key, "pattern_set")
                    assert payload is None or payload["kind"] == "pattern_set"

        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(writer) for _ in range(2)]
            futures += [pool.submit(reader) for _ in range(4)]
            time.sleep(0.5)
            stop.set()
            for future in futures:
                try:
                    future.result(timeout=10)
                except BaseException as exc:  # pragma: no cover - diagnostic
                    failures.append(exc)
        assert not failures


class TestTmpDebris:
    def test_put_failure_removes_tmp(self, tmp_path, monkeypatch):
        store = ArtifactCache(tmp_path)
        key = ArtifactCache.key("pattern_set", digest="fail")

        def doomed_replace(self, target):
            raise OSError("disk full")

        from pathlib import Path as _Path

        monkeypatch.setattr(_Path, "replace", doomed_replace)
        store.put(key, _payload("pattern_set", circuit_name="c17"))
        monkeypatch.undo()
        assert not list(tmp_path.glob("**/*.tmp"))
        assert store.stats()["by_kind"]["pattern_set"]["write_errors"] == 1

    def test_unserialisable_payload_leaves_no_tmp(self, tmp_path):
        store = ArtifactCache(tmp_path)
        key = ArtifactCache.key("pattern_set", digest="bad")
        with pytest.raises(TypeError):
            store.put(key, {"kind": "pattern_set", "bad": object()})
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_stale_tmp_swept_at_open_but_live_kept(self, tmp_path):
        shard = tmp_path / "objects" / "ab"
        shard.mkdir(parents=True)
        stale = shard / "entry.json.123-0.tmp"
        stale.write_text("partial")
        os.utime(stale, (time.time() - 7200, time.time() - 7200))
        fresh = shard / "entry.json.456-0.tmp"
        fresh.write_text("in flight")
        store = ArtifactCache(tmp_path)
        assert not stale.exists()
        assert fresh.exists()
        assert store.swept_tmp == 1
        assert store.stats()["swept_tmp"] == 1

    def test_tmp_names_are_writer_unique(self, tmp_path):
        store = ArtifactCache(tmp_path)
        path = store._path(ArtifactCache.key("pattern_set", digest="u"))
        first, second = store._tmp_path(path), store._tmp_path(path)
        assert first != second
        assert str(os.getpid()) in first.name
        assert first.parent == path.parent  # same fs: replace stays atomic


class TestSessionIntegration:
    def test_session_persists_into_shared_store(self, tmp_path):
        store = ArtifactCache(tmp_path)
        session = Session.from_name("c17", cache=store)
        session.run("adder")
        # atpg_result + pipeline_result
        assert len(list(tmp_path.glob("objects/*/*.json"))) >= 2
        # A sibling worker mounts the same tree and runs warm.
        sibling = ArtifactCache(tmp_path)
        warm = Session.from_name("c17", cache=sibling)
        warm.run("adder")
        assert sibling.hits_for("pipeline_result") == 1

    def test_entries_are_valid_schema_stamped_json(self, tmp_path):
        store = ArtifactCache(tmp_path)
        session = Session.from_name("c17", cache=store)
        session.run("adder")
        for entry in (tmp_path / "objects").glob("*/*.json"):
            payload = json.loads(entry.read_text())
            assert payload["schema_version"] == SCHEMA_VERSION
            assert entry.name.startswith(entry.parent.name)
