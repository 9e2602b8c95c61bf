"""``repro.serve`` — BIST diagnosis as a high-traffic async service.

The flow layer's artefacts (ATPG results, fault dictionaries, packed
pattern sets) are expensive to build and cheap to reuse; this package
puts an HTTP boundary in front of them so a tester-farm's fail logs can
be diagnosed as traffic rather than as batch jobs:

* :mod:`~repro.serve.server` — asyncio HTTP/1.1 + JSON worker with
  ``POST /diagnose``, ``POST /atpg``, ``POST /sweep``, ``GET /healthz``,
  ``GET /stats`` and ``GET /metrics`` (both rendered from the worker's
  one :class:`~repro.obs.MetricsRegistry`);
* :mod:`~repro.serve.batcher` — the micro-batcher that fuses concurrent
  same-circuit diagnose requests into one vectorised dictionary pass;
* :mod:`~repro.serve.api` / :mod:`~repro.serve.http11` — typed wire
  bodies and the minimal stdlib HTTP framing;
* :mod:`~repro.serve.client` / :mod:`~repro.serve.bootstrap` — the
  blocking typed client, the SIGTERM-draining foreground runner and the
  in-process :class:`BackgroundServer` used by tests and benchmarks.

``repro serve --store DIR`` mounts an
:class:`~repro.flow.session.ArtifactCache`: the same sharded tree that
``repro run --cache`` and sweeps write, so N workers and batch runs
share every artefact.
"""

from repro.serve.api import (
    DIAGNOSE_METHODS,
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
)
from repro.serve.batcher import (
    BatcherClosedError,
    DeadlineExceededError,
    MicroBatcher,
    PendingWork,
    QueueFullError,
)
from repro.serve.bootstrap import BackgroundServer, run
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import ReproServer, ServeConfig

__all__ = [
    "DIAGNOSE_METHODS",
    "AtpgRequest",
    "AtpgResponse",
    "BackgroundServer",
    "BatcherClosedError",
    "DeadlineExceededError",
    "DiagnoseRequest",
    "DiagnoseResponse",
    "MicroBatcher",
    "PatternSet",
    "PendingWork",
    "QueueFullError",
    "ReproServer",
    "RequestValidationError",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeError",
    "ServeStats",
    "SweepRequest",
    "SweepResponse",
    "run",
]
