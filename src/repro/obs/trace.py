"""Span tracing: a monotonic-clock tree of timed spans per run.

A :class:`Tracer` owns one run-scoped ``trace_id`` and a thread-local
span stack; ``with tracer.span("sim.detection_matrix", circuit="s1238")``
opens a child of whatever span is active on the current thread, times
it on ``time.perf_counter``, and files it under its parent on exit.
Completed roots accumulate on the tracer for export
(:func:`repro.obs.export.trace_document`) or rendering
(:func:`repro.obs.export.profile_table`).

Two deliberate asymmetries with the metrics side:

* :class:`NullTracer` spans still *measure*.  The serve worker needs a
  request's elapsed seconds for its response body whether or not
  telemetry is on, so ``span()`` always yields an object with a live
  :meth:`Span.elapsed6`; the null variant just never records a tree.
* The :func:`stage_hook` bridge adapts the existing ``StageEvent``
  progress stream onto spans (and stage metrics) without the flow layer
  importing anything new: ``start`` opens a span, ``done``/``skipped``
  closes it, and done-events that never had a start (session-level
  cache hits, pre-seeded ATPG timings) synthesize a completed span of
  the reported duration.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Callable

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "stage_hook",
]


class Span:
    """One timed node in the trace tree.

    ``start`` is seconds since the tracer's epoch (so a document's spans
    share one origin); ``seconds`` is the measured duration.  Both come
    from ``time.perf_counter`` — wall-clock never enters the tree.
    """

    __slots__ = ("name", "attrs", "start", "seconds", "children", "_t0", "_tracer")

    def __init__(self, name: str, attrs: dict | None, tracer: "Tracer | None"):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self._tracer = tracer
        self._t0 = time.perf_counter()
        self.start = (self._t0 - tracer.epoch) if tracer is not None else 0.0
        self.seconds = 0.0
        self.children: list[Span] = []

    def elapsed6(self) -> float:
        """Live elapsed seconds, rounded to 6 d.p. — the single duration
        capture the serve worker stamps into response bodies."""
        return round(time.perf_counter() - self._t0, 6)

    def set(self, **attrs) -> None:
        """Attach attributes to an open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.seconds = time.perf_counter() - self._t0
        if self._tracer is not None:
            self._tracer._pop(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": round(self.start, 6),
            "seconds": round(self.seconds, 6),
            "attrs": self.attrs,
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, seconds={self.seconds:.6f}, children={len(self.children)})"


class Tracer:
    """Collects spans into per-thread trees under one ``trace_id``."""

    enabled = True

    def __init__(self) -> None:
        self.trace_id = uuid.uuid4().hex[:16]
        self.epoch = time.perf_counter()
        self.roots: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, **attrs) -> Span:
        """Open a child span of the current thread's active span."""
        return Span(name, attrs, self)

    def record(self, name: str, seconds: float, **attrs) -> Span:
        """File an already-measured interval as a completed span ending
        now — the bridge uses this for events that report a duration
        without ever emitting a ``start``."""
        span = Span(name, attrs, tracer=None)
        span.start = max(0.0, (time.perf_counter() - self.epoch) - seconds)
        span.seconds = seconds
        self._attach(span)
        return span

    # -- stack plumbing -------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        while stack and stack[-1] is not span:  # tolerate missed exits
            stack.pop()
        if stack:
            stack.pop()
        self._attach(span)

    def _attach(self, span: Span) -> None:
        parent = self.current()
        if parent is not None:
            parent.children.append(span)
        else:
            with self._lock:
                self.roots.append(span)


class NullTracer:
    """Disabled tracer: spans still time themselves (callers rely on
    ``elapsed6`` for response bodies) but no tree is ever kept."""

    enabled = False
    trace_id = ""
    roots: list[Span] = []

    def span(self, name: str, **attrs) -> Span:
        return Span(name, None, tracer=None)

    def record(self, name: str, seconds: float, **attrs) -> None:
        return None

    def current(self) -> None:
        return None


#: Shared disabled tracer — the default ``tracer`` everywhere.
NULL_TRACER = NullTracer()

#: Buckets for per-stage duration histograms (seconds): flow stages span
#: sub-millisecond skips up to minutes-long evolution runs.
STAGE_SECONDS_BUCKETS = (
    0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)


def stage_hook(telemetry, inner: Callable | None = None) -> Callable:
    """Bridge a ``StageEvent`` progress stream onto spans and metrics.

    Returns a hook suitable for ``Session(progress=...)``; a session
    with telemetry enabled installs one itself.  For every event it

    * forwards to ``inner`` (the caller's original hook) last, so
      existing progress consumers keep working unchanged;
    * on ``status == "start"`` opens a span ``flow.<stage>``;
    * on ``done`` / ``skipped`` closes the matching open span, or —
      when no start was seen (session-level ``atpg``/``dictionary``
      events, ``cache-hit`` notifications) — records a completed span
      of ``event.seconds``;
    * observes ``repro_flow_stage_seconds{stage=}`` and increments
      ``repro_flow_stage_runs_total{stage=,status=}`` for every
      terminal event.

    Events are duck-typed (``stage`` / ``status`` / ``seconds`` /
    ``attrs``) so this module never imports the flow layer.
    """
    metrics = telemetry.metrics
    tracer = telemetry.tracer
    open_spans: dict[str, Span] = {}

    def hook(event) -> None:
        status = event.status
        attrs = getattr(event, "attrs", None) or {}
        if status == "start":
            if tracer.enabled:
                span = tracer.span(f"flow.{event.stage}")
                span.__enter__()
                open_spans[event.stage] = span
        else:
            span = open_spans.pop(event.stage, None)
            if span is not None:
                span.set(status=status, **attrs)
                span.__exit__(None, None, None)
            elif tracer.enabled:
                tracer.record(f"flow.{event.stage}", event.seconds,
                              status=status, **attrs)
            if metrics.enabled:
                metrics.histogram(
                    "repro_flow_stage_seconds",
                    buckets=STAGE_SECONDS_BUCKETS,
                    help="Flow stage wall time by stage name.",
                    stage=event.stage,
                ).observe(event.seconds)
                metrics.counter(
                    "repro_flow_stage_runs_total",
                    help="Flow stage completions by terminal status.",
                    stage=event.stage, status=status,
                ).inc()
        if inner is not None:
            inner(event)

    return hook
