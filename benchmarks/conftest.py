"""Shared benchmark fixtures.

Benchmarks run the same experiment code as ``repro.experiments`` at a
reduced circuit scale (``BENCH_SCALE``) so the whole harness finishes in
minutes on a laptop.  The ATPG result and compiled fault simulator for
each circuit are cached per session — they are circuit-level artefacts,
not part of the measured covering flow.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.flow.pipeline import PipelineConfig
from repro.flow.session import Session

#: Repository root — machine-readable benchmark documents land here.
REPO_ROOT = Path(__file__).resolve().parents[1]


#: Numeric leaves may drift by this factor between runs without the
#: committed ``BENCH_*.json`` being rewritten — machine-to-machine
#: timing noise easily spans 1.5x, real regressions/speedups (and the
#: 3x-class floors) do not hide inside it.
MEANINGFUL_RATIO = 1.5


def _is_timing_noise(old, new, ratio: float = MEANINGFUL_RATIO) -> bool:
    """True when ``new`` differs from ``old`` only in numeric leaves
    within ``ratio`` — i.e. the same document modulo timing noise.

    Structure (keys, list lengths, value kinds) and every non-numeric
    leaf must match exactly; a numeric leaf passes when the two values
    are within a factor of ``ratio`` of each other (zero only matches
    zero, signs must agree).
    """
    if isinstance(old, dict) and isinstance(new, dict):
        return old.keys() == new.keys() and all(
            _is_timing_noise(old[k], new[k], ratio) for k in old
        )
    if isinstance(old, list) and isinstance(new, list):
        return len(old) == len(new) and all(
            _is_timing_noise(a, b, ratio) for a, b in zip(old, new)
        )
    if isinstance(old, bool) or isinstance(new, bool):
        return old is new
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        if old == new:
            return True
        if old == 0 or new == 0 or (old < 0) != (new < 0):
            return False
        big, small = max(abs(old), abs(new)), min(abs(old), abs(new))
        return big / small <= ratio
    return old == new


def write_bench_json(filename: str, payload: dict) -> None:
    """Write one ``BENCH_*.json`` perf document at the repo root.

    The files are the machine-readable perf trajectory, and they are
    **committed** — so a run only rewrites one when the delta is
    meaningful (new structure, new fields, or a numeric change beyond
    :data:`MEANINGFUL_RATIO`).  Re-running benchmarks on an unchanged
    tree leaves the working copy clean instead of churning every
    ``BENCH_*.json`` with timing noise.
    """
    document = {"schema": 1, **payload}
    path = REPO_ROOT / filename
    if path.exists():
        try:
            previous = json.loads(path.read_text())
        except (OSError, ValueError):
            previous = None
        if previous is not None and _is_timing_noise(previous, document):
            return
    path.write_text(json.dumps(document, indent=2) + "\n")


@pytest.fixture(scope="session")
def bench_json_writer():
    """The ``BENCH_*.json`` writer, as a fixture so benchmark modules
    need no import path to the conftest."""
    return write_bench_json

#: Circuit size factor for benchmarks (1.0 = real ISCAS sizes).
BENCH_SCALE = 0.2

#: Circuits benchmarked (one ISCAS'85 member, one small and one larger
#: full-scan ISCAS'89 member — enough to show every Table-2 regime).
BENCH_CIRCUITS = ("c499", "s420", "s1238")

#: Evolution length used by the benchmark pipelines.
BENCH_EVOLUTION_LENGTH = 32


@pytest.fixture(scope="session")
def bench_config() -> PipelineConfig:
    """The flow configuration all benchmarks share."""
    return PipelineConfig(
        seed=2001,
        evolution_length=BENCH_EVOLUTION_LENGTH,
        max_random_patterns=512,
    )


@pytest.fixture(scope="session")
def sessions(bench_config) -> dict[str, Session]:
    """ATPG + simulator per circuit, computed once per session."""
    sessions = {
        name: Session.from_name(name, scale=BENCH_SCALE, config=bench_config)
        for name in BENCH_CIRCUITS
    }
    for session in sessions.values():
        session.atpg_result  # eager: kept out of the measured flows
    return sessions
