"""The ``repro serve`` asyncio server: five endpoints, one batcher.

Request path for the hot endpoint (``POST /diagnose``)::

    connection task --> parse + validate (event loop, cheap)
        --> MicroBatcher.submit (bounded queue, 429 on overflow)
            --> compute free --> group by (circuit, scale, ref, method)
                --> ThreadPoolExecutor(1): Session.diagnose_responses
                    --> futures resolved --> responses written

Requests queued while a group computes fuse into the next group;
nothing is held.  A dictionary read is array work end to end: its
responses are parsed once into response rows, the ref's sequence was
packed once when it was registered, and the fail flags are scored
against the dictionary's bit-packed per-fault operand.  Registered
pattern sets live in an LRU capped at :data:`MAX_PATTERN_SETS`.

All compute runs on **one** worker thread: the engines underneath are
word/fault/request-parallel (NumPy releases the GIL), so one thread
saturates the math while the event loop stays free to accept, parse and
batch the next wave — concurrency comes from batching, not from thread
fan-out.  It also makes every :class:`~repro.flow.session.Session`
single-threaded by construction, so the artefact memos need no locks.

Scale-out is by process: run N servers pointing at one ``--store``
directory — an :class:`~repro.flow.session.ArtifactCache`, the same
tree ``repro run --cache`` and sweeps write — and any worker reuses the
ATPG artefacts, fault dictionaries and pattern sets its siblings (or a
batch run) already published.

Every count lives once, in the worker's
:class:`~repro.obs.MetricsRegistry`: ``GET /metrics`` renders it as
Prometheus text and ``GET /stats`` as a JSON document.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from repro.flow.pipeline import PipelineConfig
from repro.flow.serialize import SchemaMismatchError, decode, encode, to_json
from repro.flow.session import ArtifactCache, Session
from repro.flow.sweep import grid_configs, sweep
from repro.obs import Telemetry
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.serve.api import (
    AtpgRequest,
    AtpgResponse,
    DiagnoseRequest,
    DiagnoseResponse,
    PatternSet,
    RequestValidationError,
    ServeError,
    ServeStats,
    SweepRequest,
    SweepResponse,
    validate_atpg_request,
    validate_diagnose_request,
    validate_sweep_request,
)
from repro.serve.batcher import (
    BatcherClosedError,
    DeadlineExceededError,
    MicroBatcher,
    PendingWork,
    QueueFullError,
)
from repro.serve.http11 import HttpError, HttpRequest, read_request, response_bytes
from repro.utils.bitvec import BitVector, PackedPatterns, parse_response_rows

#: Most (circuit, scale) sessions a worker keeps resident; past it the
#: least recently used one is dropped.  Sessions are store-backed and
#: rebuilt on demand, so an eviction changes no answer, only the cost
#: (and ``from_memo``) of the next request that needs it.
MAX_SESSIONS = 8

#: Most registered pattern sets a worker keeps in memory; past it the
#: least recently used one is dropped (and counted as an eviction).
#: With ``--store`` an evicted ref reloads from the store on its next
#: use; without one it is unknown again and its client re-uploads.
MAX_PATTERN_SETS = 64


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to run one worker."""

    host: str = "127.0.0.1"
    port: int = 8731
    #: Most requests fused into one compute pass: requests queued while
    #: a group computes fuse into the next group; nothing is held.
    max_batch: int = 32
    #: Bounded request queue; beyond this, shed with 429 + Retry-After.
    max_queue: int = 256
    #: Default per-request deadline (a request's ``timeout_ms`` wins).
    timeout_ms: int = 30_000
    #: Artifact cache directory shared with other workers and with
    #: ``repro run --cache`` (None: no persistence).
    store: str | Path | None = None


@dataclass(frozen=True)
class _Registered:
    """One registry entry: a pattern set and its packed form, packed
    once when the set is registered rather than once per request."""

    pattern_set: PatternSet
    packed: PackedPatterns


@dataclass
class _DiagnoseItem:
    """One /diagnose request after loop-side resolution."""

    request: DiagnoseRequest
    registered: _Registered
    ref: str


@dataclass
class _Outcome:
    """What compute hands back for one request in a group: a response
    body, or the error that request alone fails with."""

    body: dict[str, Any] = field(default_factory=dict)
    error: Exception | None = None


def _check_diagnose_item(item: _DiagnoseItem, circuit) -> None:
    """Reject one /diagnose request whose patterns or responses do not
    fit ``circuit`` (the checks that need the loaded netlist)."""
    name = item.request.circuit
    pattern_set = item.registered.pattern_set
    if pattern_set.width != circuit.n_inputs:
        raise RequestValidationError(
            f"patterns are {pattern_set.width} bits wide, circuit "
            f"{name!r} has {circuit.n_inputs} inputs"
        )
    responses = item.request.responses
    if set(map(len, responses)) != {circuit.n_outputs}:
        raise RequestValidationError(
            f"responses must be {circuit.n_outputs} bits wide for {name!r}"
        )
    if len(responses) != len(pattern_set.patterns):
        raise RequestValidationError(
            f"{len(responses)} responses for {len(pattern_set.patterns)} patterns"
        )


class ReproServer:
    """One serve worker: listener + batcher + compute thread + store."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        #: Metrics-only telemetry (null tracer: a long-lived service
        #: must not grow an unbounded span tree).  Sessions, the store,
        #: the batcher and the request loop all count into this one
        #: registry; ``GET /metrics`` and ``GET /stats`` both render it.
        self.telemetry = Telemetry.on()
        self.store: ArtifactCache | None = (
            ArtifactCache(self.config.store) if self.config.store is not None else None
        )
        if self.store is not None:
            self.store.attach_metrics(self.telemetry.metrics)
        self.batcher = MicroBatcher(
            process=self._process_group,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
            metrics=self.telemetry.metrics,
        )
        #: Single compute thread: Sessions are confined to it (no locks)
        #: and the vectorised engines saturate it; see the module note.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-compute"
        )
        #: LRU of resident sessions, capped at :data:`MAX_SESSIONS`.
        self._sessions: OrderedDict[tuple[str, float], Session] = OrderedDict()
        #: LRU of registered pattern sets, capped at :data:`MAX_PATTERN_SETS`.
        #: Event-loop only; compute reads the entries its items carry.
        self._pattern_sets: OrderedDict[str, _Registered] = OrderedDict()
        self._m_pattern_set_evictions = self.telemetry.metrics.counter(
            "repro_serve_pattern_set_evictions_total",
            help="Registered pattern sets dropped from memory past the cap.",
        )
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        #: Writers of the connections waiting for their next request (no
        #: request in flight): a drain closes these at once.
        self._idle: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._started_monotonic: float | None = None
        self.host = self.config.host
        self.port = self.config.port

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the batcher worker."""
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        self._started_monotonic = time.monotonic()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, close idle keep-alive
        connections, finish every accepted request, flush responses,
        then stop compute.  Loss-free by construction — the batcher's
        close() processes its whole queue before returning, and
        connection tasks are awaited so every computed response reaches
        its socket; a connection with a request in flight closes after
        its response."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            for writer in list(self._idle):
                # The peer reads EOF; our reader sees it too, so the
                # connection task ends on its own, without a cancel.
                writer.close()
            await self._server.wait_closed()
        await self.batcher.close()
        if self._conn_tasks:
            await asyncio.wait(
                self._conn_tasks, timeout=5.0, return_when=asyncio.ALL_COMPLETED
            )
        for task in list(self._conn_tasks):
            task.cancel()
        self._executor.shutdown(wait=True)

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Run until ``stop`` is set (by a signal handler), then drain."""
        if self._server is None:
            await self.start()
        await stop.wait()
        await self.shutdown()

    # -- connections -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not self._draining:
                self._idle.add(writer)
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    request = exc
                finally:
                    self._idle.discard(writer)
                if isinstance(request, HttpError):
                    writer.write(
                        response_bytes(
                            request.status,
                            self._error_body(request.status, request.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    self._count_response(request.status)
                    break
                if request is None:
                    break
                status, body, extra = await self._route(request)
                keep = request.keep_alive and not self._draining
                # A handler may override the content type (GET /metrics
                # speaks Prometheus text, not JSON) via a header tuple.
                content_type = "application/json"
                passthrough = []
                for name, value in extra:
                    if name.lower() == "content-type":
                        content_type = value
                    else:
                        passthrough.append((name, value))
                writer.write(
                    response_bytes(
                        status,
                        body,
                        content_type=content_type,
                        keep_alive=keep,
                        extra_headers=tuple(passthrough),
                    )
                )
                await writer.drain()
                self._count_response(status)
                if not keep:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass  # peer went away (or drain timed us out): nothing to save
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    # -- routing -----------------------------------------------------------

    #: Endpoints allowed as a ``path`` metric label; anything else is
    #: folded into ``other`` so a URL scanner cannot explode cardinality.
    KNOWN_PATHS = frozenset(
        {"/healthz", "/stats", "/metrics", "/diagnose", "/atpg", "/sweep"}
    )

    def _count_response(self, status: int) -> None:
        """The single response-accounting site."""
        self.telemetry.metrics.counter(
            "repro_serve_responses_total",
            help="HTTP responses written, by status code.",
            status=str(status),
        ).inc()

    async def _route(
        self, request: HttpRequest
    ) -> tuple[int, bytes, tuple[tuple[str, str], ...]]:
        path = request.target.split("?", 1)[0]
        label = path if path in self.KNOWN_PATHS else "other"
        metrics = self.telemetry.metrics
        metrics.counter(
            "repro_serve_requests_total",
            help="HTTP requests received, by endpoint.",
            path=label,
        ).inc()
        with self.telemetry.tracer.span("serve.request", path=label) as span:
            try:
                result = await self._route_inner(request, path)
            except Exception as exc:
                # An unexpected handler fault is a typed 500 on a
                # connection that stays open, never a dropped socket;
                # the request span records what failed.
                message = f"internal error: {type(exc).__name__}: {exc}"
                span.set(error=message)
                result = 500, self._error_body(500, message), ()
        metrics.histogram(
            "repro_serve_request_seconds",
            help="End-to-end request latency (queue wait included), by endpoint.",
            path=label,
        ).observe(span.seconds)
        return result

    async def _route_inner(
        self, request: HttpRequest, path: str
    ) -> tuple[int, bytes, tuple[tuple[str, str], ...]]:
        if request.method == "GET" and path == "/healthz":
            body = json.dumps(
                {"status": "draining" if self._draining else "ok"}
            ).encode()
            return 200, body, ()
        if request.method == "GET" and path == "/stats":
            body = to_json(encode(ServeStats(self.stats()))).encode()
            return 200, body, ()
        if request.method == "GET" and path == "/metrics":
            self._sync_gauges()
            body = render_prometheus(self.telemetry.metrics).encode()
            return 200, body, (("Content-Type", PROMETHEUS_CONTENT_TYPE),)
        handlers = {
            "/diagnose": self._handle_diagnose,
            "/atpg": self._handle_atpg,
            "/sweep": self._handle_sweep,
        }
        handler = handlers.get(path)
        if handler is None:
            return 404, self._error_body(404, f"no such endpoint {path!r}"), ()
        if request.method != "POST":
            return (
                405,
                self._error_body(405, f"{path} accepts POST, not {request.method}"),
                (),
            )
        try:
            payload = json.loads(request.body)
        except ValueError as exc:
            return 400, self._error_body(400, f"body is not JSON: {exc}"), ()
        try:
            return await handler(payload)
        except (SchemaMismatchError, RequestValidationError, KeyError, TypeError, ValueError) as exc:
            return 400, self._error_body(400, f"invalid request: {exc}"), ()

    def _error_body(
        self, status: int, message: str, retry_after: float | None = None
    ) -> bytes:
        error = ServeError(error=message, status=status, retry_after=retry_after)
        return to_json(encode(error)).encode()

    async def _submit_and_wait(
        self, kind: str, group_key: Any, payload: Any, timeout_ms: int | None
    ) -> tuple[int, bytes, tuple[tuple[str, str], ...]]:
        """Queue one request on the batcher and await its outcome,
        mapping the failure modes onto HTTP statuses."""
        loop = asyncio.get_running_loop()
        if timeout_ms is None:
            timeout_ms = self.config.timeout_ms
        timeout_s = timeout_ms / 1000.0
        work = PendingWork(
            kind=kind,
            group_key=group_key,
            payload=payload,
            future=loop.create_future(),
            enqueued=loop.time(),
            deadline=loop.time() + timeout_s,
        )
        try:
            self.batcher.submit(work)
        except QueueFullError as exc:
            return (
                429,
                self._error_body(429, str(exc), retry_after=1.0),
                (("Retry-After", "1"),),
            )
        except BatcherClosedError as exc:
            return 503, self._error_body(503, str(exc)), ()
        try:
            outcome: _Outcome = await asyncio.wait_for(work.future, timeout_s)
        except (asyncio.TimeoutError, DeadlineExceededError):
            return (
                504,
                self._error_body(504, f"deadline of {timeout_ms} ms exceeded"),
                (),
            )
        except RequestValidationError as exc:
            return 400, self._error_body(400, str(exc)), ()
        except Exception as exc:
            return 500, self._error_body(500, f"{type(exc).__name__}: {exc}"), ()
        return 200, to_json(outcome.body).encode(), ()

    # -- endpoint handlers -------------------------------------------------

    async def _handle_diagnose(self, payload: dict[str, Any]):
        request = decode(DiagnoseRequest, payload)
        validate_diagnose_request(request)
        registered, ref = await self._resolve_pattern_set(request)
        if registered is None:
            return (
                400,
                self._error_body(
                    400,
                    f"unknown patterns_ref {request.patterns_ref!r}; upload the "
                    "pattern sequence inline once to register it",
                ),
                (),
            )
        # Only dictionary lookups fuse across requests (one matmul pass
        # scores the whole group); other methods run solo.
        group_key: Any = (
            ("diagnose", request.circuit, request.scale, ref, request.method)
            if request.method == "dictionary"
            else object()
        )
        item = _DiagnoseItem(request=request, registered=registered, ref=ref)
        return await self._submit_and_wait(
            "diagnose", group_key, item, request.timeout_ms
        )

    # /atpg and /sweep build their flow configs here, on the event loop:
    # a knob PipelineConfig rejects is a ValueError, which _route_inner
    # answers with a 400 naming the field and its bound, and the
    # compute thread receives configs that are already valid.

    async def _handle_atpg(self, payload: dict[str, Any]):
        request = decode(AtpgRequest, payload)
        validate_atpg_request(request)
        config = PipelineConfig(
            seed=request.seed,
            max_random_patterns=request.max_random_patterns,
            backtrack_limit=request.backtrack_limit,
        )
        return await self._submit_and_wait(
            "atpg", object(), (request, config), request.timeout_ms
        )

    async def _handle_sweep(self, payload: dict[str, Any]):
        request = decode(SweepRequest, payload)
        validate_sweep_request(request)
        base_config = PipelineConfig(seed=request.seed)
        grid_configs(base_config, request.evolution_lengths)  # checks every T
        return await self._submit_and_wait(
            "sweep", object(), (request, base_config), request.timeout_ms
        )

    # -- pattern-set registry ----------------------------------------------

    async def _resolve_pattern_set(
        self, request: DiagnoseRequest
    ) -> tuple[_Registered | None, str]:
        """Inline patterns register (and persist) a shared
        :class:`PatternSet`; a ``patterns_ref`` resolves memory first,
        then the shared store (another worker may have published it, or
        it was evicted here).  Store reads/writes hit the filesystem, so
        they run on the compute executor instead of blocking the event
        loop."""
        loop = asyncio.get_running_loop()
        if request.patterns is not None:
            width = len(request.patterns[0])
            if any(len(p) != width for p in request.patterns):
                raise RequestValidationError("patterns have mixed widths")
            digest = hashlib.sha256(
                "\n".join(request.patterns).encode()
            ).hexdigest()
            ref = ArtifactCache.key(
                "pattern_set",
                circuit=request.circuit,
                width=width,
                digest=digest,
            )
            registered = self._lookup_pattern_set(ref)
            if registered is None:
                pattern_set = PatternSet(
                    circuit_name=request.circuit,
                    width=width,
                    patterns=tuple(
                        BitVector.from_string(p) for p in request.patterns
                    ),
                )
                registered = self._register_pattern_set(ref, pattern_set)
                if self.store is not None:
                    await loop.run_in_executor(
                        self._executor, self.store.put, ref, encode(pattern_set)
                    )
            return registered, ref
        ref = request.patterns_ref or ""
        registered = self._lookup_pattern_set(ref)
        if registered is None and self.store is not None:
            pattern_set = await loop.run_in_executor(
                self._executor,
                self.store.get,
                ref,
                "pattern_set",
                partial(decode, PatternSet),
            )
            if pattern_set is not None:
                registered = self._register_pattern_set(ref, pattern_set)
        return registered, ref

    def _lookup_pattern_set(self, ref: str) -> _Registered | None:
        """The registered entry for ``ref``, marked most recently used."""
        registered = self._pattern_sets.get(ref)
        if registered is not None:
            self._pattern_sets.move_to_end(ref)
        return registered

    def _register_pattern_set(self, ref: str, pattern_set: PatternSet) -> _Registered:
        """Pack and register ``pattern_set``, evicting the least recently
        used entry past :data:`MAX_PATTERN_SETS`."""
        registered = _Registered(
            pattern_set,
            PackedPatterns.from_patterns(pattern_set.patterns, pattern_set.width),
        )
        self._pattern_sets[ref] = registered
        if len(self._pattern_sets) > MAX_PATTERN_SETS:
            self._pattern_sets.popitem(last=False)
            self._m_pattern_set_evictions.inc()
        return registered

    # -- compute (runs on the single executor thread) ----------------------

    def _session(self, circuit: str, scale: float) -> Session:
        """The per-(circuit, scale) Session, store-backed, built on first
        use and kept while it is among the :data:`MAX_SESSIONS` most
        recently used.  Compute-thread only: loading a netlist is real
        work."""
        key = (circuit, scale)
        session = self._sessions.get(key)
        if session is None:
            session = Session.from_name(
                circuit,
                scale=scale,
                cache=self.store,
                telemetry=self.telemetry,
            )
            self._sessions[key] = session
            if len(self._sessions) > MAX_SESSIONS:
                self._sessions.popitem(last=False)
        else:
            self._sessions.move_to_end(key)
        return session

    async def _process_group(self, group: list[PendingWork]) -> None:
        """Batcher callback: one fused group to the compute thread."""
        loop = asyncio.get_running_loop()
        kind = group[0].kind
        compute = {
            "diagnose": self._compute_diagnose,
            "atpg": self._compute_atpg,
            "sweep": self._compute_sweep,
        }[kind]
        outcomes = await loop.run_in_executor(
            self._executor, compute, [work.payload for work in group]
        )
        for work, outcome in zip(group, outcomes):
            if work.future.done():
                continue
            if outcome.error is not None:
                work.future.set_exception(outcome.error)
            else:
                work.future.set_result(outcome)

    def _compute_diagnose(self, items: list[_DiagnoseItem]) -> list[_Outcome]:
        with self.telemetry.tracer.span("serve.compute.diagnose") as span:
            first = items[0].request
            session = self._session(first.circuit, first.scale)
            outcomes = [_Outcome() for _ in items]
            valid: list[int] = []
            for index, item in enumerate(items):
                # Each request is checked on its own: a malformed one
                # gets its 400 and never fails the requests fused with it.
                try:
                    _check_diagnose_item(item, session.circuit)
                except RequestValidationError as exc:
                    outcomes[index].error = exc
                    continue
                valid.append(index)
            results = self._diagnose_valid(session, [items[i] for i in valid])
            seconds = span.elapsed6()
        for index, result in zip(valid, results):
            result_payload = encode(result)
            # Deterministic body: identical to a local Session.diagnose.
            result_payload["timings"] = {}
            response = DiagnoseResponse(
                result=result_payload,
                patterns_ref=items[index].ref,
                batched=len(items) > 1,
                batch_size=len(items),
                seconds=seconds,
            )
            outcomes[index].body = encode(response)
        return outcomes

    @staticmethod
    def _diagnose_valid(session: Session, items: list[_DiagnoseItem]) -> list:
        """Diagnose checked items.  A dictionary group shares one ref, so
        its responses are parsed straight into response rows and scored
        against that ref's packed sequence in one pass; any other method
        diagnoses each item's :class:`~repro.diagnosis.inject.FailLog`."""
        if items and items[0].request.method == "dictionary":
            width = session.circuit.n_outputs
            return session.diagnose_responses(
                items[0].registered.packed,
                [parse_response_rows(item.request.responses, width) for item in items],
                top_k=[item.request.top_k for item in items],
            )
        from repro.diagnosis.inject import FailLog

        return [
            session.diagnose(
                FailLog(
                    circuit_name=session.circuit.name,
                    patterns=list(item.registered.pattern_set.patterns),
                    responses=[BitVector.from_string(r) for r in item.request.responses],
                ).attach_packed(item.registered.packed),
                method=item.request.method,
                top_k=item.request.top_k,
            )
            for item in items
        ]

    def _compute_atpg(
        self, items: list[tuple[AtpgRequest, PipelineConfig]]
    ) -> list[_Outcome]:
        outcomes = []
        for request, config in items:
            with self.telemetry.tracer.span("serve.compute.atpg") as span:
                session = self._session(request.circuit, request.scale)
                result, source = session.atpg_info(config)
                response = AtpgResponse(
                    result=encode(result),
                    from_memo=source == "memo",
                    seconds=span.elapsed6(),
                )
            outcomes.append(_Outcome(body=encode(response)))
        return outcomes

    def _compute_sweep(
        self, items: list[tuple[SweepRequest, PipelineConfig]]
    ) -> list[_Outcome]:
        outcomes = []
        for request, base_config in items:
            with self.telemetry.tracer.span("serve.compute.sweep") as span:
                sessions = {
                    name: self._session(name, request.scale)
                    for name in request.circuits
                }
                grid = sweep(
                    list(request.circuits),
                    list(request.tpgs),
                    base_config=base_config,
                    evolution_lengths=list(request.evolution_lengths),
                    scale=request.scale,
                    sessions=sessions,
                    cache=self.store,
                )
                cells = tuple(outcome.cell() for outcome in grid)
                response = SweepResponse(
                    cells=cells,
                    n_cached=grid.n_cached,
                    seconds=span.elapsed6(),
                )
            outcomes.append(_Outcome(body=encode(response)))
        return outcomes

    # -- stats -------------------------------------------------------------

    def _sync_gauges(self) -> None:
        """Refresh point-in-time gauges just before a /metrics scrape
        (counters update at their event sites; gauges are sampled)."""
        m = self.telemetry.metrics
        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        m.gauge(
            "repro_serve_uptime_seconds", help="Seconds since the listener bound."
        ).set(round(uptime, 3))
        m.gauge(
            "repro_serve_open_connections", help="Live client connections."
        ).set(len(self._conn_tasks))
        m.gauge(
            "repro_serve_pattern_sets", help="Pattern sets registered in memory."
        ).set(len(self._pattern_sets))
        m.gauge(
            "repro_serve_sessions", help="Resident (circuit, scale) sessions."
        ).set(len(self._sessions))

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` document, rendered from the registry."""
        samples = self.telemetry.metrics.collect()[0]

        def by_label(name: str, label: str) -> dict[str, int]:
            return {
                dict(s.labels)[label]: int(s.value) for s in samples if s.name == name
            }

        uptime = (
            time.monotonic() - self._started_monotonic
            if self._started_monotonic is not None
            else 0.0
        )
        return {
            "server": {
                "host": self.host,
                "port": self.port,
                "uptime_s": round(uptime, 3),
                "draining": self._draining,
                "open_connections": len(self._conn_tasks),
                "max_batch": self.config.max_batch,
                "max_queue": self.config.max_queue,
            },
            "requests": by_label("repro_serve_requests_total", "path"),
            "responses": by_label("repro_serve_responses_total", "status"),
            "batcher": self.batcher.stats(),
            "sessions": sorted(
                # A snapshot: the compute thread reorders the LRU.
                f"{name}@{scale:g}" for name, scale in list(self._sessions)
            ),
            "pattern_sets": len(self._pattern_sets),
            "pattern_set_evictions": int(self._m_pattern_set_evictions.value),
            "store": (
                {
                    **self.store.stats(),
                    "worker_id": f"pid-{os.getpid()}",
                    "root": str(self.store.root),
                }
                if self.store is not None
                else None
            ),
        }
