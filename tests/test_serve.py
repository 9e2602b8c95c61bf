"""The serve subsystem: HTTP framing, micro-batching, the live server.

Three layers, tested bottom-up:

* :mod:`repro.serve.http11` — request parsing and response framing
  against hand-built byte streams;
* :mod:`repro.serve.batcher` — fusing/size/deadline semantics with a
  stub process callback (no sockets, no compute, no sleeps);
* the live :class:`~repro.serve.server.ReproServer` — a real listening
  socket on an ephemeral port, driven by :class:`~repro.serve.client.
  ServeClient`, including the acceptance contracts: served diagnosis
  payloads byte-identical to a local ``Session.diagnose``, concurrent
  requests fused by the batcher, 429 load shedding when the queue bound
  is hit, and a loss-free SIGTERM drain.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diagnosis import make_fail_log
from repro.faults.collapse import collapse_faults
from repro.flow.serialize import (
    SCHEMA_VERSION,
    decode,
    diagnosis_result_to_dict,
    encode,
    to_json,
)
from repro.flow.session import Session
from repro.serve import (
    AtpgRequest,
    BackgroundServer,
    DeadlineExceededError,
    DiagnoseRequest,
    MicroBatcher,
    PendingWork,
    QueueFullError,
    ServeClient,
    ServeClientError,
    ServeConfig,
    SweepRequest,
)
from repro.serve.http11 import HttpError, read_request, response_bytes
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

# ----------------------------------------------------------------------
# HTTP/1.1 framing
# ----------------------------------------------------------------------


def _parse(data: bytes):
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(main())


class TestHttp11:
    def test_parses_post_with_body(self):
        request = _parse(
            b"POST /diagnose HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 2\r\n"
            b"\r\n"
            b"{}"
        )
        assert request.method == "POST"
        assert request.target == "/diagnose"
        assert request.body == b"{}"
        assert request.headers["content-type"] == "application/json"
        assert request.keep_alive

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_malformed_request_line_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"NOT-HTTP\r\n\r\n")
        assert excinfo.value.status == 400

    def test_unsupported_version_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"GET / HTTP/2.0\r\n\r\n")
        assert excinfo.value.status == 400

    def test_post_without_length_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(b"POST /x HTTP/1.1\r\n\r\n")
        assert excinfo.value.status == 411

    def test_chunked_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert excinfo.value.status == 501

    def test_oversized_body_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            _parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n"
            )
        assert excinfo.value.status == 413

    def test_peer_death_mid_body_returns_none(self):
        request = _parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhal"
        )
        assert request is None

    def test_connection_close_disables_keep_alive(self):
        request = _parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_http10_defaults_to_close(self):
        assert not _parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive
        assert _parse(
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        ).keep_alive

    def test_response_bytes_frames_body(self):
        raw = response_bytes(
            429, b'{"e":1}', keep_alive=False,
            extra_headers=(("Retry-After", "1"),),
        )
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 429 Too Many Requests\r\n")
        assert b"Retry-After: 1" in head
        assert b"Content-Length: 7" in head
        assert b"Connection: close" in head
        assert body == b'{"e":1}'


# ----------------------------------------------------------------------
# Micro-batcher semantics (stub compute)
# ----------------------------------------------------------------------


def _echo_process(groups_seen):
    async def process(group):
        groups_seen.append([w.payload for w in group])
        for work in group:
            if not work.future.done():
                work.future.set_result(work.payload)

    return process


def _work(loop, payload, group="g", ttl=30.0):
    return PendingWork(
        kind="t",
        group_key=group,
        payload=payload,
        future=loop.create_future(),
        enqueued=loop.time(),
        deadline=loop.time() + ttl,
    )


class TestMicroBatcher:
    def test_concurrent_submissions_fuse_into_one_group(self):
        groups = []

        async def main():
            batcher = MicroBatcher(process=_echo_process(groups), max_batch=8)
            loop = asyncio.get_running_loop()
            works = [_work(loop, i) for i in range(4)]
            for work in works:  # queued before the worker exists
                batcher.submit(work)
            batcher.start()
            results = await asyncio.gather(*(w.future for w in works))
            await batcher.close()
            return results

        assert asyncio.run(main()) == [0, 1, 2, 3]
        assert groups == [[0, 1, 2, 3]]

    def test_max_batch_caps_group_size(self):
        groups = []

        async def main():
            batcher = MicroBatcher(process=_echo_process(groups), max_batch=2)
            loop = asyncio.get_running_loop()
            works = [_work(loop, i) for i in range(5)]
            for work in works:
                batcher.submit(work)
            batcher.start()
            await asyncio.gather(*(w.future for w in works))
            await batcher.close()

        asyncio.run(main())
        assert [len(g) for g in groups] == [2, 2, 1]

    def test_groups_partition_by_key(self):
        groups = []

        async def main():
            batcher = MicroBatcher(process=_echo_process(groups), max_batch=8)
            loop = asyncio.get_running_loop()
            works = [_work(loop, i, group=f"g{i % 2}") for i in range(4)]
            for work in works:
                batcher.submit(work)
            batcher.start()
            await asyncio.gather(*(w.future for w in works))
            await batcher.close()

        asyncio.run(main())
        assert sorted(sorted(g) for g in groups) == [[0, 2], [1, 3]]

    def test_work_queued_during_compute_fuses_into_next_group(self):
        """Nothing is held: A dispatches alone at once, and B, C, D —
        queued while A computes — fuse into exactly one next group."""
        groups = []

        async def main():
            computing, release = asyncio.Event(), asyncio.Event()
            echo = _echo_process(groups)

            async def process(group):
                if group[0].payload == "A":
                    computing.set()
                    await release.wait()
                await echo(group)

            batcher = MicroBatcher(process=process, max_batch=8)
            batcher.start()
            loop = asyncio.get_running_loop()
            first = _work(loop, "A")
            batcher.submit(first)
            await computing.wait()
            rest = [_work(loop, name) for name in "BCD"]
            for work in rest:
                batcher.submit(work)
            release.set()
            await asyncio.gather(*(w.future for w in [first, *rest]))
            await batcher.close()

        asyncio.run(main())
        assert groups == [["A"], ["B", "C", "D"]]

    def test_bounded_queue_sheds(self):
        async def main():
            batcher = MicroBatcher(process=_echo_process([]), max_queue=1)
            # Not started: nothing drains the queue, so the bound hits.
            loop = asyncio.get_running_loop()
            batcher.submit(_work(loop, 0))
            with pytest.raises(QueueFullError):
                batcher.submit(_work(loop, 1))
            assert batcher.stats()["shed"] == 1

        asyncio.run(main())

    def test_expired_work_fails_with_deadline_error(self):
        async def main():
            batcher = MicroBatcher(process=_echo_process([]))
            batcher.start()
            loop = asyncio.get_running_loop()
            work = _work(loop, 0, ttl=-1.0)  # already expired
            batcher.submit(work)
            with pytest.raises(DeadlineExceededError):
                await work.future
            await batcher.close()
            assert batcher.stats()["expired"] == 1

        asyncio.run(main())

    def test_close_drains_queued_work(self):
        groups = []

        async def main():
            batcher = MicroBatcher(process=_echo_process(groups), max_batch=8)
            loop = asyncio.get_running_loop()
            works = [_work(loop, i) for i in range(3)]
            for work in works:
                batcher.submit(work)
            batcher.start()
            await batcher.close()  # the worker has not run yet
            return [w.future.result() for w in works]

        assert asyncio.run(main()) == [0, 1, 2]
        assert sum(len(g) for g in groups) == 3

    def test_process_exception_propagates_to_futures(self):
        async def main():
            async def process(group):
                raise RuntimeError("compute fell over")

            batcher = MicroBatcher(process=process)
            batcher.start()
            loop = asyncio.get_running_loop()
            work = _work(loop, 0)
            batcher.submit(work)
            with pytest.raises(RuntimeError, match="fell over"):
                await work.future
            await batcher.close()

        asyncio.run(main())


# ----------------------------------------------------------------------
# Live server end-to-end
# ----------------------------------------------------------------------


def _scenario(circuit_name="c17", n_patterns=24, seed=11):
    """A synthetic single-fault fail log plus its local session."""
    session = Session.from_name(circuit_name)
    circuit = session.circuit
    faults = collapse_faults(circuit)
    rng = RngStream(seed, "serve-test", circuit.name)
    patterns = [
        BitVector.random(circuit.n_inputs, rng) for _ in range(n_patterns)
    ]
    detected = session.simulator.detected(patterns, faults)
    target = next(f for f, flag in zip(faults, detected) if flag)
    log = make_fail_log(circuit, patterns, target, session.simulator.compiled)
    return session, patterns, log


@pytest.fixture(scope="module")
def scenario():
    return _scenario()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("serve-store")
    with BackgroundServer(
        ServeConfig(port=0, max_batch=8, store=store)
    ) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


class _HeldCompute:
    """Park a live server's single compute thread on an Event (context
    manager) so requests queue behind it: deterministic batching with
    no window and no sleeps.  The batcher takes whatever is queued once
    compute is free, so requests that arrive while the hold is on fuse
    on release (the first one the idle worker takes goes alone)."""

    def __init__(self, background: BackgroundServer) -> None:
        self.server = background.server
        self._gate = threading.Event()

    def __enter__(self) -> "_HeldCompute":
        self._parked = self.server._executor.submit(self._gate.wait)
        return self

    def __exit__(self, *exc_info) -> None:
        self._gate.set()
        self._parked.result(timeout=30)

    def wait_until(self, predicate, what: str) -> None:
        """Bounded liveness wait (not a timing gate) for ``predicate()``."""
        deadline = time.monotonic() + 30.0
        while not predicate():
            assert time.monotonic() < deadline, f"never happened: {what}"
            time.sleep(0.001)

    def wait_arrivals(self, n: int) -> None:
        """Wait until ``n`` requests reached the batcher, accepted or shed."""
        stats = self.server.batcher.stats
        self.wait_until(
            lambda: stats()["submitted"] + stats()["shed"] >= n, f"{n} arrivals"
        )


class TestServerEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok"}

    def test_diagnose_byte_identical_to_session(self, client, scenario):
        session, patterns, log = scenario
        local = session.diagnose(log, method="dictionary", top_k=5)
        response = client.diagnose(
            DiagnoseRequest(
                circuit="c17",
                patterns=tuple(p.to_string() for p in patterns),
                responses=tuple(r.to_string() for r in log.responses),
                method="dictionary",
                top_k=5,
            )
        )
        assert to_json(response.result) == to_json(
            diagnosis_result_to_dict(local)
        )
        assert response.patterns_ref

    def test_patterns_ref_round_trip(self, client, scenario):
        session, patterns, log = scenario
        first = client.diagnose(
            DiagnoseRequest(
                circuit="c17",
                patterns=tuple(p.to_string() for p in patterns),
                responses=tuple(r.to_string() for r in log.responses),
            )
        )
        again = client.diagnose(
            DiagnoseRequest(
                circuit="c17",
                patterns_ref=first.patterns_ref,
                responses=tuple(r.to_string() for r in log.responses),
            )
        )
        assert again.patterns_ref == first.patterns_ref
        assert to_json(again.result) == to_json(first.result)

    def test_effect_cause_method_served(self, client, scenario):
        session, patterns, log = scenario
        local = session.diagnose(log, method="effect_cause", top_k=3)
        response = client.diagnose(
            DiagnoseRequest(
                circuit="c17",
                patterns=tuple(p.to_string() for p in patterns),
                responses=tuple(r.to_string() for r in log.responses),
                method="effect_cause",
                top_k=3,
            )
        )
        local_payload = diagnosis_result_to_dict(local)
        local_payload["timings"] = {}  # the only non-deterministic field
        assert to_json(response.result) == to_json(local_payload)

    def test_unknown_patterns_ref_rejected(self, client, scenario):
        _, _, log = scenario
        with pytest.raises(ServeClientError) as excinfo:
            client.diagnose(
                DiagnoseRequest(
                    circuit="c17",
                    patterns_ref="no-such-ref",
                    responses=tuple(r.to_string() for r in log.responses),
                )
            )
        assert excinfo.value.status == 400

    def test_invalid_method_rejected(self, client, scenario):
        _, patterns, log = scenario
        with pytest.raises(ServeClientError) as excinfo:
            client.diagnose(
                DiagnoseRequest(
                    circuit="c17",
                    patterns=tuple(p.to_string() for p in patterns),
                    responses=tuple(r.to_string() for r in log.responses),
                    method="tea-leaves",
                )
            )
        assert excinfo.value.status == 400

    def test_schema_version_skew_rejected(self, client, scenario):
        _, patterns, log = scenario
        payload = encode(
            DiagnoseRequest(
                circuit="c17",
                patterns=tuple(p.to_string() for p in patterns),
                responses=tuple(r.to_string() for r in log.responses),
            )
        )
        payload["schema_version"] = 999
        with pytest.raises(ServeClientError) as excinfo:
            client._request("POST", "/diagnose", payload)
        assert excinfo.value.status == 400

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/no-such")
        assert excinfo.value.status == 404

    def test_wrong_verb_405(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client._request("GET", "/diagnose")
        assert excinfo.value.status == 405

    def test_non_json_body_400(self, server):
        import http.client

        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request(
                "POST", "/diagnose", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["kind"] == "serve_error"
        finally:
            conn.close()

    def test_handler_exception_is_a_typed_500(self, server, monkeypatch):
        """An unexpected exception in a handler answers a typed 500,
        counts it by status, and leaves the keep-alive connection
        serving."""
        import http.client

        from repro.serve.server import ReproServer

        def broken_stats(self):
            raise RuntimeError("stats exploded")

        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            monkeypatch.setattr(ReproServer, "stats", broken_stats)
            conn.request("GET", "/stats")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 500
            assert body["kind"] == "serve_error"
            assert body["status"] == 500
            assert "RuntimeError: stats exploded" in body["error"]
            monkeypatch.undo()
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode()
            assert response.status == 200
            assert 'repro_serve_responses_total{status="500"}' in text
        finally:
            conn.close()

    def test_atpg_endpoint_and_memo(self, client):
        first = client.atpg(
            AtpgRequest(circuit="c17", max_random_patterns=64)
        )
        assert first.result["kind"] == "atpg_result"
        again = client.atpg(
            AtpgRequest(circuit="c17", max_random_patterns=64)
        )
        assert again.from_memo
        assert to_json(again.result) == to_json(first.result)

    def test_sweep_endpoint(self, client):
        response = client.sweep(
            SweepRequest(circuits=("c17",), evolution_lengths=(8,))
        )
        assert len(response.cells) == 1
        cell = response.cells[0]
        assert cell["circuit"] == "c17"
        assert cell["tpg"] == "adder"
        assert cell["n_triplets"] >= 1

    def test_stats_document(self, client, server, scenario):
        _, patterns, log = scenario
        client.diagnose(
            DiagnoseRequest(
                circuit="c17",
                patterns=tuple(p.to_string() for p in patterns),
                responses=tuple(r.to_string() for r in log.responses),
            )
        )
        stats = client.stats()
        assert stats["server"]["max_batch"] == 8
        assert stats["requests"]["/diagnose"] >= 1
        assert stats["batcher"]["submitted"] >= 1
        assert stats["pattern_sets"] >= 1
        assert any(s.startswith("c17@") for s in stats["sessions"])
        assert stats["store"]["worker_id"] == f"pid-{os.getpid()}"
        assert stats["store"]["root"] == str(server.config.store)


class TestScaleValidation:
    """A request ``scale`` keys a resident session and ``/stats`` prints
    it as a number: a non-numeric, non-finite or non-positive one must
    be a 400 that creates no session, and ``/stats`` must keep
    answering afterwards."""

    BAD_SCALES = ("abc", None, True, 0, -1.5, float("inf"), float("nan"))

    def test_bad_scale_rejected_and_stats_survive(self, scenario):
        _, patterns, log = scenario
        diagnose = encode(
            DiagnoseRequest(
                circuit="c17",
                patterns=tuple(p.to_string() for p in patterns),
                responses=tuple(r.to_string() for r in log.responses),
            )
        )
        atpg = encode(AtpgRequest(circuit="c17", max_random_patterns=64))
        sweep = encode(SweepRequest(circuits=("c17",), evolution_lengths=(8,)))
        with BackgroundServer(ServeConfig(port=0)) as background:
            with ServeClient(background.host, background.port) as client:
                for path, payload in (
                    ("/diagnose", diagnose),
                    ("/atpg", atpg),
                    ("/sweep", sweep),
                ):
                    for scale in self.BAD_SCALES:
                        with pytest.raises(ServeClientError) as excinfo:
                            client._request("POST", path, {**payload, "scale": scale})
                        assert excinfo.value.status == 400, (path, scale)
                stats = client.stats()
                assert stats["sessions"] == []
                client.diagnose(decode(DiagnoseRequest, {**diagnose, "scale": 1}))
                assert client.stats()["sessions"] == ["c17@1"]


def _post(host, port, path, payload):
    """One POST on a fresh connection: (status, decoded JSON body).  A
    dropped connection or a truncated body raises."""
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request(
            "POST", path, body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _good_bodies(scenario):
    """One valid, cheap body per compute endpoint, on c17."""
    _, patterns, log = scenario
    return {
        "/diagnose": encode(
            DiagnoseRequest(
                circuit="c17",
                patterns=tuple(p.to_string() for p in patterns),
                responses=tuple(r.to_string() for r in log.responses),
            )
        ),
        "/atpg": encode(AtpgRequest(circuit="c17", max_random_patterns=64)),
        "/sweep": encode(SweepRequest(circuits=("c17",), evolution_lengths=(8,))),
    }


class TestTypedRequests:
    """Every request field is decoded by type, and values are checked on
    the event loop before anything is queued: a bad body is a 400
    ``serve_error`` naming the offending field, and the worker keeps
    serving good requests."""

    MISTYPED = [
        ("/atpg", "seed", "abc"),
        ("/atpg", "seed", True),
        ("/atpg", "backtrack_limit", "x"),
        ("/atpg", "circuit", 17),
        ("/diagnose", "top_k", 2.5),
        ("/diagnose", "responses", [1]),
        ("/diagnose", "timeout_ms", "5"),
        ("/sweep", "evolution_lengths", ["a"]),
        ("/sweep", "circuits", "c17"),
    ]

    BAD_VALUES = [
        ("/atpg", "circuit", "c9999"),
        ("/diagnose", "circuit", "c9999"),
        ("/sweep", "tpgs", ["no-such-tpg"]),
        ("/diagnose", "timeout_ms", -5),
        ("/diagnose", "timeout_ms", 0),
    ]

    @pytest.mark.parametrize(("path", "name", "value"), MISTYPED + BAD_VALUES)
    def test_bad_field_is_400_naming_it(self, server, scenario, path, name, value):
        good = _good_bodies(scenario)[path]
        status, body = _post(server.host, server.port, path, {**good, name: value})
        assert status == 400, body
        assert body["kind"] == "serve_error"
        assert body["status"] == 400
        assert name in body["error"]
        # The same worker still serves a good request.
        status, body = _post(server.host, server.port, path, good)
        assert status == 200, body

    def test_request_defaults_come_from_the_dataclass(self):
        request = decode(
            AtpgRequest, {"schema_version": SCHEMA_VERSION, "kind": "atpg_request",
                          "circuit": "c17"}
        )
        assert request == AtpgRequest(circuit="c17")

    def test_retired_engine_key_is_ignored(self, server, scenario):
        """``/atpg`` has no ``engine`` field since there is one top-off
        engine; an older client's ``engine`` key is an unknown key, which
        the codec ignores, so the reply equals the reply without it."""
        good = _good_bodies(scenario)["/atpg"]
        status, plain = _post(server.host, server.port, "/atpg", good)
        assert status == 200, plain
        status, body = _post(
            server.host, server.port, "/atpg", {**good, "engine": "recursive"}
        )
        assert status == 200, body
        assert body["result"] == plain["result"]


class TestFlowKnobValidation:
    """``/atpg`` and ``/sweep`` check their flow knobs in one place: the
    :class:`PipelineConfig` built on the event loop before queueing.  A
    value it rejects is a 400 carrying its message (field and bound)."""

    @pytest.mark.parametrize(
        ("path", "name", "value", "message"),
        [
            ("/atpg", "backtrack_limit", -1, "backtrack_limit must be >= 0, got -1"),
            ("/atpg", "max_random_patterns", -1, "max_random_patterns must be >= 0, got -1"),
            ("/sweep", "evolution_lengths", [0], "evolution_length must be >= 1, got 0"),
            ("/sweep", "evolution_lengths", [], "evolution_lengths must be non-empty"),
        ],
    )
    def test_rejected_knob_is_400_with_the_config_message(
        self, server, scenario, path, name, value, message
    ):
        good = _good_bodies(scenario)[path]
        status, body = _post(server.host, server.port, path, {**good, name: value})
        assert status == 400, body
        assert body["kind"] == "serve_error"
        assert message in body["error"]

    def test_empty_evolution_lengths_runs_nothing(self, server, scenario):
        """An empty grid is a 400 naming ``evolution_lengths`` that
        queues no compute, not one cell at PipelineConfig's default T."""
        good = _good_bodies(scenario)["/sweep"]
        submitted = server.server.batcher.stats()["submitted"]
        status, body = _post(
            server.host, server.port, "/sweep", {**good, "evolution_lengths": []}
        )
        assert status == 400, body
        assert "evolution_lengths" in body["error"]
        assert server.server.batcher.stats()["submitted"] == submitted


_MISSING = object()

#: Anything a JSON body can hold where a field's value should be.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(-2.0, 4.0) | st.sampled_from([float("nan"), float("inf")]),
    st.text(alphabet="01c7az_", max_size=4),
    st.lists(st.integers(-2, 8) | st.text(alphabet="01c7", max_size=3), max_size=3),
    st.dictionaries(st.text(alphabet="ab", max_size=2), st.integers(0, 3), max_size=2),
)


def _valid_fields(scenario):
    """Per endpoint: field -> strategy of valid, cheap values."""
    fields = {
        path: {
            name: st.just(value)
            for name, value in body.items()
            if name not in ("schema_version", "kind")
        }
        for path, body in _good_bodies(scenario).items()
    }
    fields["/diagnose"]["method"] = st.sampled_from(
        ("dictionary", "effect_cause", "signature", "multiplet")
    )
    fields["/atpg"]["max_random_patterns"] = st.integers(0, 16)
    fields["/sweep"]["evolution_lengths"] = st.lists(st.integers(1, 12), max_size=2)
    return fields


@st.composite
def _bodies(draw, fields):
    """A body whose every field is kept valid (3 in 4), left out, or
    replaced by junk.  ``timeout_ms`` junk stays non-positive, so a valid
    request is never a legitimate 504."""
    body = {}
    for name, valid in fields.items():
        if draw(st.integers(0, 3)):
            body[name] = draw(valid)
            continue
        junk = _JUNK.filter(lambda v: type(v) is not int or v <= 0) \
            if name == "timeout_ms" else _JUNK
        value = draw(st.just(_MISSING) | junk)
        if value is not _MISSING:
            body[name] = value
    return body


def _fuzz(server, scenario, max_examples, derandomize):
    for path, fields in _valid_fields(scenario).items():
        envelope = {"schema_version": SCHEMA_VERSION, "kind": path.strip("/") + "_request"}

        @settings(max_examples=max_examples, deadline=None, derandomize=derandomize,
                  database=None)
        @given(_bodies(fields))
        def send(body):
            status, reply = _post(server.host, server.port, path, {**envelope, **body})
            assert status < 500, (path, body, reply)
            if status != 200:
                assert reply["kind"] == "serve_error", reply

        send()
    with ServeClient(server.host, server.port) as client:
        stats = client.stats()
    assert stats["requests"]["/diagnose"] >= 1
    json.dumps(stats)


class TestRequestFuzz:
    """Hypothesis-drawn request bodies never get a 5xx, every
    connection gets a complete response, and /stats still parses."""

    def test_fuzzed_bodies_never_5xx(self, server, scenario):
        _fuzz(server, scenario, max_examples=100, derandomize=True)

    @pytest.mark.slow
    def test_fuzzed_bodies_never_5xx_long(self, server, scenario):
        _fuzz(server, scenario, max_examples=400, derandomize=False)


class TestSessionBound:
    """A worker keeps at most ``MAX_SESSIONS`` (circuit, scale)
    sessions: each distinct client scale used to build a Session and
    keep it for good, so a stream of scales grew the worker without
    bound.  Past the cap the least recently used session is dropped,
    and every request still succeeds."""

    def test_distinct_scales_stay_within_cap(self):
        from repro.obs import parse_prometheus_text
        from repro.serve.server import MAX_SESSIONS

        with BackgroundServer(ServeConfig(port=0)) as server:
            with ServeClient(server.host, server.port) as client:
                for index in range(MAX_SESSIONS + 4):
                    body = encode(
                        AtpgRequest(
                            circuit="c17",
                            scale=1.0 + index / 8,
                            max_random_patterns=16,
                        )
                    )
                    status, reply = _post(server.host, server.port, "/atpg", body)
                    assert status == 200, reply
                    stats = client.stats()
                    assert len(stats["sessions"]) == min(index + 1, MAX_SESSIONS)
                    gauges = parse_prometheus_text(client.metrics())
                    assert gauges["repro_serve_sessions"] <= MAX_SESSIONS
        # The most recently used scales are the ones kept.
        assert stats["sessions"] == sorted(
            f"c17@{1.0 + index / 8:g}" for index in range(4, MAX_SESSIONS + 4)
        )


class TestPatternSetBound:
    """A worker keeps at most ``MAX_PATTERN_SETS`` registered pattern
    sets, least recently used dropped first, and counts each drop in the
    registry ``/stats`` and ``/metrics`` both render.  The cap is
    lowered to 2 here so three sequences overflow it."""

    @staticmethod
    def _register(client, scenario):
        _, patterns, log = scenario
        return client.diagnose(
            DiagnoseRequest(
                circuit="c17",
                patterns=tuple(p.to_string() for p in patterns),
                responses=tuple(r.to_string() for r in log.responses),
            )
        ).patterns_ref

    @staticmethod
    def _read(client, scenario, ref):
        _, _, log = scenario
        return client.diagnose(
            DiagnoseRequest(
                circuit="c17",
                patterns_ref=ref,
                responses=tuple(r.to_string() for r in log.responses),
                top_k=5,
            )
        )

    @staticmethod
    def _local_json(scenario):
        session, _, log = scenario
        return to_json(
            diagnosis_result_to_dict(
                session.diagnose(log, method="dictionary", top_k=5)
            )
        )

    def test_evicted_ref_is_unknown_without_a_store(self, monkeypatch):
        from repro.obs import parse_prometheus_text
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "MAX_PATTERN_SETS", 2)
        first, second, third = (_scenario(seed=seed) for seed in (11, 12, 13))
        with BackgroundServer(ServeConfig(port=0)) as background:
            with ServeClient(background.host, background.port) as client:
                ref_1 = self._register(client, first)
                ref_2 = self._register(client, second)
                self._read(client, first, ref_1)  # ref_2 is now the oldest
                ref_3 = self._register(client, third)
                stats = client.stats()
                series = parse_prometheus_text(client.metrics())
                with pytest.raises(ServeClientError) as excinfo:
                    self._read(client, second, ref_2)
                kept = [
                    self._read(client, scenario, ref)
                    for scenario, ref in ((first, ref_1), (third, ref_3))
                ]
        assert stats["pattern_sets"] == 2
        assert stats["pattern_set_evictions"] == 1
        assert series["repro_serve_pattern_set_evictions_total"] == 1
        assert excinfo.value.status == 400
        assert f"unknown patterns_ref {ref_2!r}" in str(excinfo.value)
        assert [to_json(reply.result) for reply in kept] == [
            self._local_json(first),
            self._local_json(third),
        ]

    def test_evicted_ref_reloads_from_the_store(self, monkeypatch, tmp_path):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "MAX_PATTERN_SETS", 2)
        scenarios = [_scenario(seed=seed) for seed in (11, 12, 13)]
        config = ServeConfig(port=0, store=tmp_path)
        with BackgroundServer(config) as background:
            with ServeClient(background.host, background.port) as client:
                refs = [self._register(client, scenario) for scenario in scenarios]
                evicted = client.stats()["pattern_set_evictions"]
                reply = self._read(client, scenarios[0], refs[0])
                stats = client.stats()
        assert evicted == 1
        assert to_json(reply.result) == self._local_json(scenarios[0])
        assert stats["store"]["by_kind"]["pattern_set"]["hits"] == 1
        # The reload registers it again, which evicts the next oldest.
        assert stats["pattern_sets"] == 2
        assert stats["pattern_set_evictions"] == 2


class TestBatchIsolation:
    """A malformed /diagnose fused with valid ones on the same
    ``patterns_ref`` fails alone: each item is validated on its own."""

    def test_bad_item_fails_alone(self, scenario):
        session, patterns, log = scenario
        local_json = to_json(
            diagnosis_result_to_dict(
                session.diagnose(log, method="dictionary", top_k=5)
            )
        )
        responses = tuple(r.to_string() for r in log.responses)
        with BackgroundServer(ServeConfig(port=0, max_batch=16)) as background:
            with ServeClient(background.host, background.port) as warm:
                ref = warm.diagnose(
                    DiagnoseRequest(
                        circuit="c17",
                        patterns=tuple(p.to_string() for p in patterns),
                        responses=responses,
                        top_k=5,
                    )
                ).patterns_ref
            wrong_width = tuple(r + "0" for r in responses)
            wrong_count = responses[:-1]

            def one_request(item_responses):
                with ServeClient(background.host, background.port) as c:
                    try:
                        return c.diagnose(
                            DiagnoseRequest(
                                circuit="c17",
                                patterns_ref=ref,
                                responses=item_responses,
                                top_k=5,
                            )
                        )
                    except ServeClientError as exc:
                        return exc

            with ThreadPoolExecutor(max_workers=4) as pool, _HeldCompute(
                background
            ) as hold:
                # A plug request takes the idle worker and parks behind
                # the held compute; the three then fuse into one group.
                plug = pool.submit(one_request, responses)
                hold.wait_arrivals(2)
                trio = pool.map(one_request, (wrong_width, responses, wrong_count))
                hold.wait_arrivals(5)
            width_bad, good, count_bad = trio
            assert not isinstance(plug.result(), ServeClientError)
        assert isinstance(width_bad, ServeClientError)
        assert width_bad.status == 400
        assert "bits wide" in str(width_bad)
        assert isinstance(count_bad, ServeClientError)
        assert count_bad.status == 400
        assert "responses for" in str(count_bad)
        assert not isinstance(good, ServeClientError), good
        assert good.batch_size == 3  # really fused with the bad ones
        assert to_json(good.result) == local_json


class TestServerConcurrency:
    def test_concurrent_requests_fuse_and_match_serial(self, scenario):
        session, patterns, log = scenario
        local_json = to_json(
            diagnosis_result_to_dict(
                session.diagnose(log, method="dictionary", top_k=5)
            )
        )
        with BackgroundServer(ServeConfig(port=0, max_batch=16)) as background:
            # Register the pattern set and warm the dictionary first, so
            # the concurrent wave measures batching, not the cold build.
            with ServeClient(background.host, background.port) as warm:
                ref = warm.diagnose(
                    DiagnoseRequest(
                        circuit="c17",
                        patterns=tuple(p.to_string() for p in patterns),
                        responses=tuple(r.to_string() for r in log.responses),
                        top_k=5,
                    )
                ).patterns_ref

            def one_request(_):
                with ServeClient(background.host, background.port) as c:
                    return c.diagnose(
                        DiagnoseRequest(
                            circuit="c17",
                            patterns_ref=ref,
                            responses=tuple(
                                r.to_string() for r in log.responses
                            ),
                            top_k=5,
                        )
                    )

            with ThreadPoolExecutor(max_workers=8) as pool, _HeldCompute(
                background
            ) as hold:
                waves = pool.map(one_request, range(8))
                hold.wait_arrivals(1 + 8)
            responses = list(waves)
        assert all(to_json(r.result) == local_json for r in responses)
        # All 8 reached the batcher while compute was held, so the ones
        # queued behind the first must have fused into one group.
        assert max(r.batch_size for r in responses) > 1
        assert any(r.batched for r in responses)

    def test_queue_bound_sheds_with_429(self, scenario):
        _, patterns, log = scenario
        with BackgroundServer(
            ServeConfig(port=0, max_batch=1, max_queue=1)
        ) as background:
            responses_text = tuple(r.to_string() for r in log.responses)
            patterns_text = tuple(p.to_string() for p in patterns)

            def one_request(_):
                with ServeClient(background.host, background.port) as c:
                    try:
                        c.diagnose(
                            DiagnoseRequest(
                                circuit="c17",
                                patterns=patterns_text,
                                responses=responses_text,
                            )
                        )
                        return None
                    except ServeClientError as exc:
                        return exc

            # With compute held, one request is in flight and one
            # queued; every other arrival hits the bound.
            with ThreadPoolExecutor(max_workers=8) as pool, _HeldCompute(
                background
            ) as hold:
                waves = pool.map(one_request, range(8))
                hold.wait_arrivals(8)
            outcomes = list(waves)
        shed = [e for e in outcomes if e is not None and e.status == 429]
        assert shed, "queue bound never produced a 429"
        assert all(e.retry_after is not None for e in shed)

    def test_shed_retry_after_header_is_one(self, scenario):
        import http.client

        payload = _good_bodies(scenario)["/diagnose"]
        with BackgroundServer(
            ServeConfig(port=0, max_batch=1, max_queue=1)
        ) as background:
            host, port = background.host, background.port
            batcher = background.server.batcher
            with ThreadPoolExecutor(max_workers=2) as pool, _HeldCompute(
                background
            ) as hold:
                # One request parked in compute, one filling the queue.
                first = pool.submit(_post, host, port, "/diagnose", payload)
                hold.wait_arrivals(1)
                hold.wait_until(lambda: batcher.depth == 0, "first dispatched")
                second = pool.submit(_post, host, port, "/diagnose", payload)
                hold.wait_arrivals(2)
                conn = http.client.HTTPConnection(host, port, timeout=60)
                conn.request("POST", "/diagnose", body=json.dumps(payload).encode())
                response = conn.getresponse()
                reply = json.loads(response.read())
                conn.close()
            assert first.result()[0] == second.result()[0] == 200
        assert response.status == 429
        assert response.getheader("Retry-After") == "1"
        assert reply["retry_after"] == 1.0

    def test_per_request_timeout_maps_to_504(self, scenario):
        _, patterns, log = scenario
        # A 50 ms request deadline: the request expires while parked
        # behind the held compute.
        with BackgroundServer(ServeConfig(port=0, max_batch=64)) as background:
            with _HeldCompute(background), ServeClient(
                background.host, background.port
            ) as c:
                with pytest.raises(ServeClientError) as excinfo:
                    c.diagnose(
                        DiagnoseRequest(
                            circuit="c17",
                            patterns=tuple(p.to_string() for p in patterns),
                            responses=tuple(
                                r.to_string() for r in log.responses
                            ),
                            timeout_ms=50,
                        )
                    )
        assert excinfo.value.status == 504


class TestGracefulShutdown:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """The supervisor contract: SIGTERM -> drain -> exit 0."""
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=repo_src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "repro serve listening on http://" in line
            host_port = line.split("http://", 1)[1].split()[0]
            host, port = host_port.rsplit(":", 1)
            with ServeClient(host, int(port)) as client:
                assert client.healthz() == {"status": "ok"}
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained cleanly" in out

    def test_background_server_drain_completes_inflight(self, scenario):
        """Requests accepted before the drain still get answers."""
        _, patterns, log = scenario
        background = BackgroundServer(ServeConfig(port=0, max_batch=16))
        results = []

        def one_request():
            with ServeClient(background.host, background.port) as c:
                results.append(
                    c.diagnose(
                        DiagnoseRequest(
                            circuit="c17",
                            patterns=tuple(p.to_string() for p in patterns),
                            responses=tuple(
                                r.to_string() for r in log.responses
                            ),
                        )
                    )
                )

        threads = [threading.Thread(target=one_request) for _ in range(3)]
        with background:
            with _HeldCompute(background) as hold:
                for thread in threads:
                    thread.start()
                hold.wait_arrivals(3)
                # Drain while all three are parked behind the held compute.
                stopper = threading.Thread(target=background.stop)
                stopper.start()
                hold.wait_until(lambda: background.server._draining, "drain")
            stopper.join(timeout=30)
        for thread in threads:
            thread.join(timeout=30)
        assert len(results) == 3
        assert all(r.result["kind"] == "diagnosis_result" for r in results)


    def test_idle_keep_alive_connection_closes_at_drain(self, caplog):
        """A keep-alive client that sent nothing more does not hold the
        drain: its connection is closed at once (the client reads EOF),
        no connection task is cancelled, and asyncio logs no error."""
        import http.client
        import logging

        caplog.set_level(logging.ERROR, logger="asyncio")
        background = BackgroundServer(ServeConfig(port=0))
        with background:
            conn = http.client.HTTPConnection(
                background.host, background.port, timeout=30
            )
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()  # the connection stays open, idle
            tasks = list(background.server._conn_tasks)
            assert len(tasks) == 1
        # __exit__ drained the server; the idle peer sees the close.
        assert conn.sock.recv(1) == b""
        conn.close()
        assert all(task.done() for task in tasks)
        assert [task.cancelling() for task in tasks] == [0]
        assert not [r for r in caplog.records if r.name == "asyncio"]


# ----------------------------------------------------------------------
# GET /metrics
# ----------------------------------------------------------------------


class TestServeMetrics:
    def test_stats_and_metrics_agree_after_traffic(self, scenario, tmp_path):
        """Every counter in GET /stats appears in GET /metrics with the
        same value.  The comparison runs on the drained server (between
        two live scrapes each self-observes the other's request), after
        a scripted sequence covering 200/404/405 responses, batching,
        and store traffic."""
        from repro.obs import parse_prometheus_text, render_prometheus
        from repro.serve.server import ReproServer

        _, patterns, log = scenario
        background = BackgroundServer(
            ServeConfig(port=0, max_batch=8, store=tmp_path / "store")
        )
        with background:
            with ServeClient(background.host, background.port) as c:
                for _ in range(3):
                    c.diagnose(
                        DiagnoseRequest(
                            circuit="c17",
                            patterns=tuple(p.to_string() for p in patterns),
                            responses=tuple(
                                r.to_string() for r in log.responses
                            ),
                            method="dictionary",
                        )
                    )
                c.atpg(AtpgRequest(circuit="c17", max_random_patterns=64))
                with pytest.raises(ServeClientError) as excinfo:
                    c._request("GET", "/no-such")
                assert excinfo.value.status == 404
                with pytest.raises(ServeClientError) as excinfo:
                    c._request("GET", "/diagnose")
                assert excinfo.value.status == 405
                c.healthz()
                # A live scrape parses cleanly mid-traffic.  /diagnose
                # saw 3 POSTs plus the 405 GET above.
                live = parse_prometheus_text(c.metrics())
                assert live['repro_serve_requests_total{path="/diagnose"}'] == 4
                assert live["repro_serve_submitted_total"] >= 4
        server = background.server
        stats = server.stats()
        series = parse_prometheus_text(
            render_prometheus(server.telemetry.metrics)
        )
        # requests{path}: unknown paths fold into the "other" label.
        expected_paths: dict[str, int] = {}
        for path, count in stats["requests"].items():
            label = path if path in ReproServer.KNOWN_PATHS else "other"
            expected_paths[label] = expected_paths.get(label, 0) + count
        for label, count in expected_paths.items():
            key = f'repro_serve_requests_total{{path="{label}"}}'
            assert series[key] == count, key
        for status, count in stats["responses"].items():
            key = f'repro_serve_responses_total{{status="{status}"}}'
            assert series[key] == count, key
        batcher_series = {
            "submitted": "repro_serve_submitted_total",
            "batches": "repro_serve_batches_total",
            "batched_requests": "repro_serve_batched_requests_total",
            "max_occupancy": "repro_serve_batch_occupancy_high_water",
            "expired": "repro_serve_deadline_expired_total",
            "shed": "repro_serve_shed_total",
            "depth_high_water": "repro_serve_queue_depth_high_water",
        }
        assert set(stats["batcher"]) == {*batcher_series, "avg_occupancy"}
        for stat_key, metric in batcher_series.items():
            assert series[metric] == stats["batcher"][stat_key], metric
        assert stats["batcher"]["avg_occupancy"] == round(
            series["repro_serve_batch_occupancy_sum"]
            / series["repro_serve_batch_occupancy_count"],
            3,
        )
        # Store counters: per-kind metric series sum to the /stats totals.
        for outcome in ("hits", "misses", "corrupt"):
            total = sum(
                value
                for key, value in series.items()
                if key.startswith(f"repro_cache_{outcome}_total")
            )
            assert total == stats["store"][outcome], outcome
        # Latency histograms exist per exercised endpoint.
        assert series['repro_serve_request_seconds_count{path="/diagnose"}'] == 4
        assert series['repro_serve_request_seconds_bucket{path="/atpg",le="+Inf"}'] == 1
        # Kernel counters flowed up from the compute sessions.
        assert series["repro_sim_words_simulated_total"] > 0

    def test_unknown_paths_fold_into_other(self):
        """A URL scanner cannot grow /stats: unknown paths count under
        ``other``, as they do in the ``path`` metric label."""
        from repro.serve.server import ReproServer

        with BackgroundServer(ServeConfig(port=0)) as background:
            with ServeClient(background.host, background.port) as c:
                for index in range(50):
                    with pytest.raises(ServeClientError) as excinfo:
                        c._request("GET", f"/scan-{index}")
                    assert excinfo.value.status == 404
                requests = c.stats()["requests"]
        assert set(requests) <= ReproServer.KNOWN_PATHS | {"other"}
        assert requests["other"] == 50

    def test_compute_seconds_still_stamped_without_metrics(self, client, scenario):
        """The span helper keeps response timing live on the default
        (telemetry-off) worker."""
        _, patterns, log = scenario
        response = client.diagnose(
            DiagnoseRequest(
                circuit="c17",
                patterns=tuple(p.to_string() for p in patterns),
                responses=tuple(r.to_string() for r in log.responses),
            )
        )
        assert response.seconds > 0.0
        assert response.seconds == round(response.seconds, 6)


# ----------------------------------------------------------------------
# One artifact store for runs, sweeps and serve
# ----------------------------------------------------------------------


class TestOneStore:
    def test_cli_run_entries_serve_a_sweep(self, tmp_path):
        """``repro run --cache D`` and ``repro serve --store D`` share one
        layout: the worker's /sweep is served from the run's entry."""
        Session.from_name("c17", cache=tmp_path).run("adder")
        with BackgroundServer(ServeConfig(port=0, store=tmp_path)) as background:
            with ServeClient(background.host, background.port) as c:
                response = c.sweep(
                    SweepRequest(
                        circuits=("c17",), tpgs=("adder",), evolution_lengths=(64,)
                    )
                )
        assert response.n_cached == 1
        assert response.cells[0]["from_cache"]
