"""Tests of the benchmark's own machinery (not of the program).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

from common import ROOT, tail, use_checkout_source

use_checkout_source()

from tracing import SpanRecorder  # noqa: E402  (imports repro)

HERE = Path(__file__).resolve().parent


class _Target:
    @classmethod
    def build(cls, n):
        return cls.work(n)

    @staticmethod
    def work(n):
        time.sleep(0.01 * n)
        return n

    def rows(self, n):
        for i in range(n):
            time.sleep(0.01)
            yield i


def test_self_time_subtracts_direct_children():
    rec = SpanRecorder()
    rec.wrap(_Target, "work", "layer_b.work")
    rec.wrap(_Target, "build", "layer_a.build")
    try:
        with rec.span("bench.timed") as root:
            assert _Target.build(3) == 3
    finally:
        rec.restore()
    own = rec.self_times(root)
    assert own["layer_b.work"] >= 0.03
    assert own["layer_a.build"] < own["layer_b.work"] / 3
    layers = rec.layer_self_times(root)
    assert sum(layers.values()) == pytest.approx(root.seconds, rel=1e-9)
    assert rec.counts["layer_a.build.calls"] == 1


def test_restore_puts_back_the_original_kinds():
    before = dict(_Target.__dict__)
    rec = SpanRecorder()
    rec.wrap(_Target, "build", "a.build")
    rec.wrap(_Target, "work", "a.work")
    rec.restore()
    assert _Target.__dict__["build"] is before["build"]
    assert _Target.__dict__["work"] is before["work"]


def test_generator_steps_exclude_consumer_time():
    rec = SpanRecorder()
    rec.wrap(_Target, "rows", "sim.rows")
    try:
        with rec.span("bench.timed") as root:
            for _ in _Target().rows(3):
                time.sleep(0.02)
    finally:
        rec.restore()
    assert rec.total("sim.rows", root) >= 0.03
    assert rec.self_times(root)["bench.timed"] >= 0.06
    assert rec.total("sim.rows", root) < rec.self_times(root)["bench.timed"]
    assert rec.counts["sim.rows.calls"] == 1


def test_trace_file_is_a_repro_trace_document(tmp_path):
    from repro.obs import profile_table, validate_trace_document

    rec = SpanRecorder()
    rec.wrap(_Target, "work", "layer_b.work")
    try:
        with rec.span("bench.timed", workload="demo"):
            _Target.work(1)
    finally:
        rec.restore()
    rec.write(tmp_path / "trace.json")
    document = validate_trace_document(
        json.loads((tmp_path / "trace.json").read_text()))
    [root] = document["spans"]
    assert root["attrs"] == {"workload": "demo"}
    assert [c["name"] for c in root["children"]] == ["layer_b.work"]
    assert "layer_b.work" in profile_table(document)


def test_tail_keeps_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == 2.0
    assert tail([float(i) for i in range(16)]) == 8.0
    values = [float(i) for i in range(1, 31)]
    assert tail(values) == 20.0
    assert sum(v > tail(values) for v in values) == 10


def test_benchmark_json_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_every_metric_is_measured_somewhere():
    """A per-layer metric a workload does not produce reads 0, so a typo
    in a name would silently report nothing: every name must appear in
    the workload code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    source = "".join(
        (HERE / name).read_text()
        for name in ("flows.py", "serve_mixed.py", "run.py"))
    quoted = set(re.findall(r'"([a-z][\w.]*)"', source))
    missing = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]
               if m["name"] not in quoted]
    assert missing == []
