"""Shared benchmark fixtures.

Benchmarks run the same experiment code as ``repro.experiments`` at a
reduced circuit scale (``BENCH_SCALE``) so the whole harness finishes in
minutes on a laptop.  The ATPG result and compiled fault simulator for
each circuit are cached per session — they are circuit-level artefacts,
not part of the measured covering flow.
"""

from __future__ import annotations

import pytest

from repro.flow.pipeline import PipelineConfig
from repro.flow.session import Session

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
