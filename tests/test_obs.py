"""The repro.obs telemetry subsystem: metrics, spans, exporters.

Covers the contracts the rest of the repo leans on:

* histogram ``le`` edge semantics (boundary values land in their
  bucket, over-max lands in ``+Inf``, empty histograms render);
* thread safety of instrument increments (the serve worker updates
  from the asyncio loop and the compute executor concurrently);
* scrape-time collectors, including counter aggregation across
  instances and weakref death with the owning object;
* Prometheus text rendering and the strict parser round-trip;
* the span tracer (tree shape, ``record()``, document schema) and the
  ``stage_hook`` bridge from ``StageEvent`` streams;
* ``StageEvent`` backward compatibility (old positional construction).
"""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.flow.serialize import SCHEMA_VERSION, SchemaMismatchError
from repro.flow.stages import StageEvent
from repro.obs import (
    NULL_REGISTRY,
    NULL_TELEMETRY,
    NULL_TRACER,
    MetricsRegistry,
    Sample,
    Telemetry,
    Tracer,
    metrics_snapshot,
    parse_prometheus_text,
    profile_table,
    render_prometheus,
    stage_hook,
    trace_document,
    validate_trace_document,
)

# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------


class TestInstruments:
    def test_counter_counts_and_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_depth")
        gauge.set(7)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 5

    def test_registry_returns_same_instrument_for_same_key(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", kind="atpg")
        b = registry.counter("repro_x_total", kind="atpg")
        c = registry.counter("repro_x_total", kind="sim")
        assert a is b
        assert a is not c

    def test_histogram_boundary_value_lands_in_its_bucket(self):
        # Prometheus `le` is less-or-equal: observe(0.01) belongs to the
        # 0.01 bucket, not the next one up.
        hist = MetricsRegistry().histogram("repro_h", buckets=(0.01, 0.1, 1.0))
        hist.observe(0.01)
        snap = hist.snapshot()
        assert snap["counts"] == [1, 0, 0, 0]

    def test_histogram_over_max_lands_in_inf(self):
        hist = MetricsRegistry().histogram("repro_h", buckets=(0.01, 0.1, 1.0))
        hist.observe(5.0)
        snap = hist.snapshot()
        assert snap["counts"] == [0, 0, 0, 1]
        cumulative = hist.cumulative()
        assert cumulative[-1] == (math.inf, 1)

    def test_histogram_buckets_must_strictly_increase(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_h", buckets=(0.1, 0.1))
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("repro_h", buckets=())

    def test_histogram_quantiles_interpolate(self):
        hist = MetricsRegistry().histogram("repro_h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.0
        assert 0.0 < hist.quantile(0.5) <= 2.0
        assert hist.quantile(1.0) <= 4.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_empty_histogram_quantile_is_zero(self):
        hist = MetricsRegistry().histogram("repro_h", buckets=(1.0,))
        assert hist.quantile(0.99) == 0.0

    def test_concurrent_increments_from_threads(self):
        # The serve worker increments from the asyncio loop and from the
        # compute thread; bare `+=` would lose updates under contention.
        registry = MetricsRegistry()
        counter = registry.counter("repro_threads_total")
        hist = registry.histogram("repro_threads_h", buckets=(0.5, 1.0))
        n, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                counter.inc()
                hist.observe(0.25)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n * per_thread
        assert hist.count == n * per_thread
        assert hist.snapshot()["counts"][0] == n * per_thread


# ----------------------------------------------------------------------
# Registry: collectors, aggregation, the null variant
# ----------------------------------------------------------------------


class _Kernel:
    """Stand-in for a packed kernel keeping plain int counters."""

    def __init__(self, n: int) -> None:
        self.n = n

    def samples(self):
        return [Sample("repro_kernel_words_total", "counter", (), self.n)]


class TestRegistry:
    def test_collector_samples_are_summed_across_instances(self):
        registry = MetricsRegistry()
        a, b = _Kernel(10), _Kernel(32)
        registry.register_collector(a.samples)
        registry.register_collector(b.samples)
        assert registry.scalar_value("repro_kernel_words_total") == 42

    def test_collector_dies_with_its_owner(self):
        registry = MetricsRegistry()
        kernel = _Kernel(10)
        registry.register_collector(kernel.samples)
        assert registry.scalar_value("repro_kernel_words_total") == 10
        del kernel
        with pytest.raises(KeyError):
            registry.scalar_value("repro_kernel_words_total")

    def test_scalar_value_unknown_series_raises(self):
        with pytest.raises(KeyError):
            MetricsRegistry().scalar_value("repro_absent_total")

    def test_null_registry_is_inert(self):
        assert not NULL_REGISTRY.enabled
        counter = NULL_REGISTRY.counter("repro_ignored_total")
        counter.inc(10)
        assert counter.value == 0
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").observe(1.0)
        assert NULL_REGISTRY.collect() == ([], [])
        # Null instruments are shared singletons: no allocation per call.
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")

    def test_telemetry_defaults_off(self):
        assert not NULL_TELEMETRY.enabled
        assert Telemetry.off() is NULL_TELEMETRY
        on = Telemetry.on()
        assert on.enabled and on.metrics.enabled and not on.tracer.enabled
        traced = Telemetry.on(trace=True)
        assert traced.tracer.enabled


# ----------------------------------------------------------------------
# Prometheus rendering and parsing
# ----------------------------------------------------------------------


class TestPrometheus:
    def test_render_empty_registry(self):
        text = render_prometheus(MetricsRegistry())
        assert parse_prometheus_text(text) == {}

    def test_render_empty_histogram(self):
        registry = MetricsRegistry()
        registry.histogram("repro_empty_seconds", buckets=(0.1, 1.0))
        series = parse_prometheus_text(render_prometheus(registry))
        assert series['repro_empty_seconds_bucket{le="+Inf"}'] == 0
        assert series["repro_empty_seconds_count"] == 0
        assert series["repro_empty_seconds_sum"] == 0

    def test_round_trip_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total", help="Events.", kind="a").inc(3)
        registry.counter("repro_events_total", kind="b").inc(1)
        registry.gauge("repro_depth", help="Depth.").set(7)
        hist = registry.histogram("repro_lat_seconds", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(10.0)
        text = render_prometheus(registry)
        series = parse_prometheus_text(text)
        assert series['repro_events_total{kind="a"}'] == 3
        assert series['repro_events_total{kind="b"}'] == 1
        assert series["repro_depth"] == 7
        # Cumulative le buckets: 0.1 holds 1, 1.0 holds 2, +Inf holds 3.
        assert series['repro_lat_seconds_bucket{le="0.1"}'] == 1
        assert series['repro_lat_seconds_bucket{le="1"}'] == 2
        assert series['repro_lat_seconds_bucket{le="+Inf"}'] == 3
        assert series["repro_lat_seconds_count"] == 3
        assert series["repro_lat_seconds_sum"] == pytest.approx(10.55)

    def test_counter_rendered_with_total_suffix_once(self):
        registry = MetricsRegistry()
        registry.counter("repro_hits").inc()
        registry.counter("repro_misses_total").inc()
        text = render_prometheus(registry)
        assert "repro_hits_total 1" in text
        assert "repro_misses_total 1" in text
        assert "repro_misses_total_total" not in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_esc_total", path='a"b\\c\nd').inc()
        series = parse_prometheus_text(render_prometheus(registry))
        assert len(series) == 1
        (key,) = series
        assert key.startswith("repro_esc_total{path=")

    @pytest.mark.parametrize(
        "bad",
        [
            "not a metric line",
            "name{unterminated=\"x} 1",
            "repro_x_total notanumber",
            "# BOGUS comment kind",
        ],
    )
    def test_parser_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_prometheus_text(bad)

    def test_metrics_snapshot_is_schema_versioned(self):
        registry = MetricsRegistry()
        registry.counter("repro_events_total").inc(2)
        registry.histogram("repro_lat_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = metrics_snapshot(registry)
        assert snapshot["schema_version"] == SCHEMA_VERSION
        assert snapshot["kind"] == "metrics_snapshot"
        assert snapshot["counters"]["repro_events_total"] == 2
        assert snapshot["histograms"]["repro_lat_seconds"]["count"] == 1
        json.dumps(snapshot)  # must be serialisable as-is


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------


class TestTracer:
    def test_span_tree_shape(self):
        tracer = Tracer()
        with tracer.span("root", circuit="c17") as root:
            with tracer.span("child.a"):
                pass
            tracer.record("child.recorded", 0.25, source="memo")
        assert tracer.roots == [root]
        names = [c.name for c in root.children]
        assert names == ["child.a", "child.recorded"]
        assert root.attrs == {"circuit": "c17"}
        recorded = root.children[1]
        assert recorded.seconds == 0.25
        assert recorded.attrs["source"] == "memo"

    def test_span_seconds_measured(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            pass
        assert span.seconds >= 0.0
        assert span.elapsed6() >= span.seconds

    def test_null_tracer_spans_still_time(self):
        # The serve worker stamps response bodies with span.elapsed6()
        # whether or not telemetry is enabled.
        with NULL_TRACER.span("x") as span:
            pass
        assert span.seconds >= 0.0
        assert isinstance(span.elapsed6(), float)
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.record("y", 1.0) is None

    def test_trace_document_schema(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        document = trace_document(tracer)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["kind"] == "trace"
        assert document["trace_id"] == tracer.trace_id
        assert validate_trace_document(document) is document
        round_tripped = json.loads(json.dumps(document))
        assert validate_trace_document(round_tripped)["spans"][0]["children"]

    def test_validate_rejects_wrong_kind_and_missing_spans(self):
        with pytest.raises(SchemaMismatchError):
            validate_trace_document(
                {"schema_version": SCHEMA_VERSION, "kind": "pipeline_result"}
            )
        with pytest.raises(ValueError):
            validate_trace_document(
                {"schema_version": SCHEMA_VERSION, "kind": "trace"}
            )

    def test_profile_table_renders(self):
        tracer = Tracer()
        with tracer.span("root", circuit="s420"):
            with tracer.span("child", rows=5):
                pass
        table = profile_table(trace_document(tracer))
        assert "root" in table and "  child" in table
        assert "circuit=s420" in table


# ----------------------------------------------------------------------
# The StageEvent bridge
# ----------------------------------------------------------------------


class TestStageHook:
    def test_stage_event_old_positional_construction(self):
        event = StageEvent("atpg", "done", 1.5, "42 faults")
        assert event.stage == "atpg"
        assert event.detail == "42 faults"
        assert event.attrs is None

    def test_start_done_pair_becomes_span_and_metrics(self):
        telemetry = Telemetry.on(trace=True)
        seen = []
        hook = stage_hook(telemetry, seen.append)
        hook(StageEvent("detection_matrix", "start"))
        hook(
            StageEvent(
                "detection_matrix", "done", 0.5, attrs={"rows_built": 5}
            )
        )
        assert [e.status for e in seen] == ["start", "done"]
        (root,) = telemetry.tracer.roots
        assert root.name == "flow.detection_matrix"
        assert root.attrs["status"] == "done"
        assert root.attrs["rows_built"] == 5
        assert (
            telemetry.metrics.scalar_value(
                "repro_flow_stage_runs_total",
                stage="detection_matrix",
                status="done",
            )
            == 1
        )
        hist = telemetry.metrics.histogram(
            "repro_flow_stage_seconds", stage="detection_matrix"
        )
        assert hist.count == 1

    def test_done_without_start_records_span(self):
        telemetry = Telemetry.on(trace=True)
        hook = stage_hook(telemetry)
        hook(StageEvent("atpg", "done", 2.0, attrs={"test_length": 13}))
        (span,) = telemetry.tracer.roots
        assert span.name == "flow.atpg"
        assert span.seconds == 2.0
        assert span.attrs["test_length"] == 13

    def test_metrics_only_telemetry_keeps_counting(self):
        telemetry = Telemetry.on()  # null tracer
        hook = stage_hook(telemetry)
        hook(StageEvent("trim", "start"))
        hook(StageEvent("trim", "skipped", 0.0))
        assert (
            telemetry.metrics.scalar_value(
                "repro_flow_stage_runs_total", stage="trim", status="skipped"
            )
            == 1
        )
        assert telemetry.tracer.roots == []


# ----------------------------------------------------------------------
# ATPG sub-stage spans
# ----------------------------------------------------------------------


class TestAtpgSpans:
    """The session's ATPG run opens ``flow.atpg`` and the engine nests
    one span per phase under it; the top-off span carries the search
    effort.  Tracing costs no work: counters and answers are equal with
    the tracer on and off."""

    @staticmethod
    def _run(trace: bool):
        from repro.flow.pipeline import PipelineConfig
        from repro.flow.session import Session

        telemetry = Telemetry.on(trace=trace)
        session = Session.from_name(
            "s420",
            scale=0.25,
            config=PipelineConfig(max_random_patterns=64),
            telemetry=telemetry,
        )
        result = session.atpg_result
        samples, _ = telemetry.metrics.collect()
        counters = {
            (sample.name, sample.labels): sample.value
            for sample in samples
            if sample.kind == "counter" and sample.name != "repro_flow_stage_runs_total"
        }
        return result, counters, telemetry

    def test_phase_spans_nest_under_flow_atpg(self):
        _, counters, telemetry = self._run(trace=True)
        (atpg,) = [s for s in telemetry.tracer.roots if s.name == "flow.atpg"]
        assert [c.name for c in atpg.children] == [
            "atpg.random",
            "atpg.topoff",
            "atpg.compact",
            "atpg.verify",
        ]
        topoff = atpg.children[1].attrs
        for key in ("lanes_seated", "rounds", "backtracks", "decisions"):
            assert topoff[key] == counters[(f"repro_atpg_{key}_total", ())]
        assert topoff["rounds"] > 0

    def test_tracer_changes_no_result_and_no_counter(self):
        untraced, untraced_counters, _ = self._run(trace=False)
        traced, traced_counters, _ = self._run(trace=True)
        assert traced.test_set == untraced.test_set
        assert traced.untestable == untraced.untestable
        assert traced.aborted == untraced.aborted
        assert traced_counters == untraced_counters
        assert traced_counters[("repro_atpg_rounds_total", ())] > 0
