"""Unified telemetry: counters, histograms, and span tracing.

One opt-in surface for every layer of the reproduction — the packed
fault-sim and PODEM kernels, the flow session and artifact cache, the
``repro serve`` micro-batcher and request loop:

* :class:`~repro.obs.metrics.MetricsRegistry` — process-local,
  thread-safe named counters / gauges / fixed-bucket histograms,
  rendered as Prometheus text at ``GET /metrics``;
* :class:`~repro.obs.trace.Tracer` — a monotonic-clock span tree per
  run (``repro run --trace out.json`` → ``repro trace out.json``);
* :class:`Telemetry` — the pair of them, defaulting to shared no-op
  singletons so un-instrumented code paths cost nothing.

Enable per session (``Session(telemetry=Telemetry.on())``); every
``repro serve`` worker runs one live registry behind ``GET /metrics``
and ``GET /stats``.  See ``docs/observability.md`` for
the metric-name glossary and trace-document schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
    Sample,
)
from repro.obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    metrics_snapshot,
    parse_prometheus_text,
    profile_table,
    render_prometheus,
    trace_document,
    validate_trace_document,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer, stage_hook

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "Sample",
    "Span",
    "Telemetry",
    "Tracer",
    "metrics_snapshot",
    "parse_prometheus_text",
    "profile_table",
    "render_prometheus",
    "stage_hook",
    "trace_document",
    "validate_trace_document",
]


@dataclass
class Telemetry:
    """A metrics registry and a tracer, carried together through the
    stack.  ``Telemetry.off()`` (the default everywhere) is a shared
    no-op pair; ``Telemetry.on()`` enables metrics, and
    ``Telemetry.on(trace=True)`` additionally collects a span tree —
    long-running workers keep tracing off so span trees cannot grow
    without bound."""

    metrics: MetricsRegistry | NullMetricsRegistry = field(default=NULL_REGISTRY)
    tracer: Tracer | NullTracer = field(default=NULL_TRACER)

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.tracer.enabled

    @classmethod
    def off(cls) -> "Telemetry":
        """The shared disabled pair (also the module default)."""
        return NULL_TELEMETRY

    @classmethod
    def on(cls, trace: bool = False) -> "Telemetry":
        """A fresh live registry, plus a live tracer when ``trace``."""
        return cls(MetricsRegistry(), Tracer() if trace else NULL_TRACER)


#: Shared disabled telemetry — safe to pass anywhere, costs nothing.
NULL_TELEMETRY = Telemetry()
