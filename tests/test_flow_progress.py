"""The progress contract: which ``StageEvent``s a session emits, and when.

Progress hooks, ``repro.obs.stage_hook`` spans and the stage metrics all
read the same event stream, so its shape is pinned here case by case:
every event is recorded as ``(stage, status, sorted attr keys)``.
"""

from __future__ import annotations

import pytest

from repro.circuits import load_circuit
from repro.diagnosis import make_fail_log
from repro.faults.collapse import collapse_faults
from repro.flow.pipeline import PipelineConfig
from repro.flow.session import Session
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

CONFIG = PipelineConfig(evolution_length=8, max_random_patterns=128)

MATRIX_ATTRS = (
    "detect_cells", "evolution_length", "n_faults", "reused_patterns",
    "rows_built", "words_simulated",
)
COVER_ATTRS = ("n_essential", "reduced_shape", "reduction_iterations", "solver")
TRIM_ATTRS = ("n_triplets", "test_length")

#: Matrix, cover and trim as every run that reaches them reports them.
POST_ATPG = [
    ("detection_matrix", "start", ()),
    ("detection_matrix", "done", MATRIX_ATTRS),
    ("set_cover", "start", ()),
    ("set_cover", "done", COVER_ATTRS),
    ("trim", "start", ()),
    ("trim", "done", TRIM_ATTRS),
]

DIAGNOSIS = [
    ("diagnosis", "start", ()),
    ("diagnosis", "done", ("method", "n_candidates", "n_considered")),
]

TIMING_KEYS = {"atpg", "detection_matrix", "set_cover", "trim"}


@pytest.fixture(scope="module")
def c17():
    return load_circuit("c17")


def _record(events) -> list[tuple]:
    return [(e.stage, e.status, tuple(sorted(e.attrs or ()))) for e in events]


def test_cold_run_then_second_tpg(c17):
    events = []
    session = Session(c17, CONFIG, progress=events.append)
    result = session.run("adder")
    assert _record(events) == [
        ("atpg", "start", ()),
        ("atpg", "done", ()),
        *POST_ATPG,
    ]
    assert set(result.timings) == TIMING_KEYS
    # The session's memoized ATPG is reported as started and skipped.
    events.clear()
    result = session.run("multiplier")
    assert _record(events) == [
        ("atpg", "start", ()),
        ("atpg", "skipped", ("skip_reason",)),
        *POST_ATPG,
    ]
    assert set(result.timings) == TIMING_KEYS


def test_atpg_cache_hit_then_pipeline_cache_hit(c17, tmp_path):
    Session(c17, CONFIG, cache=tmp_path).run("adder")
    events = []
    result = Session(c17, CONFIG, cache=tmp_path, progress=events.append).run(
        "multiplier"
    )
    assert _record(events) == [("atpg", "cache-hit", ()), *POST_ATPG]
    assert set(result.timings) == TIMING_KEYS
    events = []
    result = Session(c17, CONFIG, cache=tmp_path, progress=events.append).run(
        "adder"
    )
    assert _record(events) == [("pipeline", "cache-hit", ())]
    assert set(result.timings) == TIMING_KEYS


def test_diagnose_methods(c17):
    rng = RngStream(77, "progress")
    patterns = [BitVector.random(c17.n_inputs, rng) for _ in range(32)]
    faults = collapse_faults(c17)
    events = []
    session = Session(c17, CONFIG, progress=events.append)
    detected = session.simulator.detected(patterns, faults)
    target = next(f for f, flag in zip(faults, detected) if flag)
    log = make_fail_log(c17, patterns, target)
    expected = {
        "dictionary": [("dictionary", "done", ())],
        "effect_cause": DIAGNOSIS,
        "signature": DIAGNOSIS,
        "multiplet": DIAGNOSIS,
    }
    for method, stream in expected.items():
        events.clear()
        result = session.diagnose(log, method=method, min_window=4)
        assert _record(events) == stream, method
        assert result.candidates[0].fault == target, method
        assert ("stage" in result.timings) == (method != "dictionary"), method
