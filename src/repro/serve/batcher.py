"""Request micro-batching: queue, fuse, dispatch when compute is free.

The compute engines underneath the service are word/fault-parallel —
one :class:`~repro.diagnosis.dictionary.FaultDictionary` lookup pass
scores a whole batch of fail logs for barely more than one (PRs 1/4/6
established the same trick along the fault axis).  :class:`MicroBatcher`
is work-conserving: whenever compute is free, its worker takes
everything already queued (capped at ``--max-batch``), fuses same-group
requests (same circuit, scale, pattern set, method) and hands each
fused group to the compute executor in one call.  Requests queued while
a group computes fuse into the next group; nothing is held, so an idle
server answers at once and a loaded one batches by itself.

Robustness contract:

* **bounded queue** — ``submit`` raises :class:`QueueFullError` once
  ``max_queue`` requests are pending; the server maps that to ``429`` +
  ``Retry-After`` (load shedding beats collapse);
* **deadline propagation** — every work item carries its deadline;
  items that expire while queued are failed at dispatch with
  :class:`DeadlineExceededError` (``504``) instead of burning compute;
* **graceful drain** — :meth:`close` stops intake, then the worker
  finishes everything already queued before the batcher reports
  drained, which is what makes SIGTERM loss-free.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Hashable

from repro.obs.metrics import MetricsRegistry

#: Batch-occupancy histogram bounds (requests fused per dispatched
#: group) — powers of two up to the default ``max_batch``.
OCCUPANCY_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


class QueueFullError(RuntimeError):
    """The bounded request queue is at capacity (shed with 429)."""


class BatcherClosedError(RuntimeError):
    """The batcher is draining/closed and accepts no new work."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before compute started (504)."""


@dataclass
class PendingWork:
    """One queued request: its parsed payload, fuse key, and future."""

    kind: str
    group_key: Hashable
    payload: Any
    future: asyncio.Future
    enqueued: float
    deadline: float


_SENTINEL = object()


@dataclass
class MicroBatcher:
    """Work-conserving, bounded-size, deadline-aware request fuser.

    ``process`` is an async callable receiving one *group* (a list of
    :class:`PendingWork` sharing ``group_key``); it must resolve every
    item's future.  Groups taken off the queue together are dispatched
    back to back.
    """

    process: Callable[[list[PendingWork]], Awaitable[None]]
    max_batch: int = 32
    max_queue: int = 256
    #: The :class:`repro.obs.MetricsRegistry` holding the batcher's
    #: counters — their one copy, read by both :meth:`stats`
    #: (``GET /stats``) and ``GET /metrics``.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def __post_init__(self) -> None:
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self._task: asyncio.Task | None = None
        m = self.metrics
        self._m_submitted = m.counter(
            "repro_serve_submitted_total", help="Requests accepted by the batcher."
        )
        self._m_shed = m.counter(
            "repro_serve_shed_total", help="Requests shed at the bounded queue (429)."
        )
        self._m_expired = m.counter(
            "repro_serve_deadline_expired_total",
            help="Requests whose deadline passed while queued (504).",
        )
        self._m_batches = m.counter(
            "repro_serve_batches_total", help="Fused groups dispatched to compute."
        )
        self._m_batched_requests = m.counter(
            "repro_serve_batched_requests_total",
            help="Requests dispatched inside fused groups.",
        )
        self._m_occupancy = m.histogram(
            "repro_serve_batch_occupancy",
            buckets=OCCUPANCY_BUCKETS,
            help="Requests fused per dispatched group.",
        )
        self._m_occupancy_high = m.gauge(
            "repro_serve_batch_occupancy_high_water",
            help="Most requests fused into one dispatched group.",
        )
        self._m_depth = m.gauge(
            "repro_serve_queue_depth", help="Requests currently queued."
        )
        self._m_depth_high = m.gauge(
            "repro_serve_queue_depth_high_water",
            help="Deepest the request queue has been.",
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker loop on the running event loop."""
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def close(self) -> None:
        """Stop intake, drain everything already queued, stop the
        worker.  Returns only when every accepted request is resolved."""
        if self._closed:
            if self._task is not None:
                await self._task
            return
        self._closed = True
        self._queue.put_nowait(_SENTINEL)
        if self._task is not None:
            await self._task
            self._task = None

    @property
    def depth(self) -> int:
        """Requests currently queued (the load-shedding signal)."""
        return self._queue.qsize()

    def stats(self) -> dict[str, Any]:
        """The ``GET /stats`` batcher block, read off the instruments."""
        occupancy = self._m_occupancy
        return {
            "submitted": self._m_submitted.value,
            "batches": self._m_batches.value,
            "batched_requests": self._m_batched_requests.value,
            "avg_occupancy": (
                round(occupancy.sum / occupancy.count, 3) if occupancy.count else 0.0
            ),
            "max_occupancy": int(self._m_occupancy_high.value),
            "expired": self._m_expired.value,
            "shed": self._m_shed.value,
            "depth_high_water": int(self._m_depth_high.value),
        }

    # -- intake ------------------------------------------------------------

    def submit(self, work: PendingWork) -> None:
        """Queue one request; raises instead of queueing unboundedly."""
        if self._closed:
            raise BatcherClosedError("server is draining")
        if self._queue.qsize() >= self.max_queue:
            self._m_shed.inc()
            raise QueueFullError(
                f"queue depth {self._queue.qsize()} >= max {self.max_queue}"
            )
        self._queue.put_nowait(work)
        self._m_submitted.inc()
        depth = self._queue.qsize()
        self._m_depth.set(depth)
        if depth > self._m_depth_high.value:
            self._m_depth_high.set(depth)

    # -- worker ------------------------------------------------------------

    async def _run(self) -> None:
        # close() queues the sentinel behind every accepted request, so
        # reaching it means the queue has drained.
        stopping = False
        while not stopping:
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            if batch[-1] is _SENTINEL:
                batch.pop()
                stopping = True
            if batch:
                await self._dispatch(batch)

    async def _dispatch(self, batch: list[PendingWork]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: list[PendingWork] = []
        self._m_depth.set(self._queue.qsize())
        for work in batch:
            if work.deadline <= now:
                self._m_expired.inc()
                if not work.future.done():
                    work.future.set_exception(
                        DeadlineExceededError("deadline passed while queued")
                    )
            else:
                live.append(work)
        groups: dict[Hashable, list[PendingWork]] = {}
        for work in live:
            groups.setdefault(work.group_key, []).append(work)
        for group in groups.values():
            self._m_batches.inc()
            self._m_batched_requests.inc(len(group))
            self._m_occupancy.observe(len(group))
            if len(group) > self._m_occupancy_high.value:
                self._m_occupancy_high.set(len(group))
            try:
                await self.process(group)
            except Exception as exc:  # the group's failure, not the loop's
                for work in group:
                    if not work.future.done():
                        work.future.set_exception(exc)
