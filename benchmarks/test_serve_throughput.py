"""Serve-layer soak: batched concurrent traffic vs one-at-a-time.

The workload is the tester-farm shape the serve subsystem exists for:
one BIST pattern sequence on ``c880``, many failing dies, each die's
fail log POSTed to ``/diagnose`` with the shared content-addressed
``patterns_ref``.  Two traffic regimes over the same request set:

* **baseline** — fusing disabled (``max_batch=1``), one client sending
  one request at a time: every log pays the full HTTP + parse +
  dispatch + compute round trip serially;
* **batched** — the serve defaults, 32 concurrent client threads: the
  work-conserving micro-batcher fuses the requests queued while a
  group computes into the next vectorised dictionary pass.

Two tiers, like the other throughput benchmarks:

* the always-on record test runs a reduced workload on ``c499`` in
  both regimes and checks they give the same answers and that the
  batched one fuses requests (its first wave is parked behind a held
  compute thread, so the fusing is deterministic);
* the slow-marked floor test runs the full ``c880`` soak, with its
  first wave parked the same way, checks that every concurrent request
  succeeded, nothing was shed and the responses match the baseline's,
  and then bounds how many compute batches the requests took.  The
  bound is a batcher count, not a wall-clock ratio: the 32 client
  threads share the server's process, so a throughput ratio measures
  the host as much as the batcher (it read 1.2-1.5x on 2-vCPU hosts).
"""

from __future__ import annotations

import contextlib
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.diagnosis import make_fail_log
from repro.faults.collapse import collapse_faults
from repro.flow.serialize import to_json
from repro.flow.session import Session
from repro.serve import (
    BackgroundServer,
    DiagnoseRequest,
    ServeClient,
    ServeConfig,
)
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

#: Record tier: small enough for the default (non-slow) suite.
RECORD_CIRCUIT = "c499"
RECORD_PATTERNS = 64
RECORD_REQUESTS = 32
RECORD_CLIENTS = 8

#: Floor tier: the acceptance workload.
FLOOR_CIRCUIT = "c880"
FLOOR_PATTERNS = 256
FLOOR_REQUESTS = 96
FLOOR_CLIENTS = 32

#: Most compute batches the floor soak may dispatch per request (the
#: warm-up request included).  The one-at-a-time baseline takes one
#: batch per request.  On a 2-vCPU host busy with another test run, the
#: held soak took 8 batches for 97 requests (0.082) in each of 5 runs,
#: and 10-13 without the hold.  The bound leaves 3x headroom; a batcher
#: that stopped fusing would take 1.0.
MAX_BATCHES_PER_REQUEST = 0.25

def _traffic(circuit_name: str, n_patterns: int, n_requests: int):
    """One shared pattern sequence + ``n_requests`` single-fault logs."""
    session = Session.from_name(circuit_name)
    circuit = session.circuit
    faults = collapse_faults(circuit)
    rng = RngStream(3, "serve-bench", circuit.name)
    patterns = [
        BitVector.random(circuit.n_inputs, rng) for _ in range(n_patterns)
    ]
    detected = session.simulator.detected(patterns, faults)
    detectable = [f for f, flag in zip(faults, detected) if flag]
    responses = [
        tuple(
            r.to_string()
            for r in make_fail_log(
                circuit,
                patterns,
                detectable[i % len(detectable)],
                session.simulator.compiled,
            ).responses
        )
        for i in range(n_requests)
    ]
    return tuple(p.to_string() for p in patterns), responses


@contextlib.contextmanager
def _held_compute(server: BackgroundServer, arrivals: int):
    """Park the server's single compute thread on an Event until
    ``arrivals`` requests have reached the batcher (a bounded liveness
    wait, not a timing gate), so they queue up and fuse on release —
    the same hold as the ``_HeldCompute`` helper in tests/test_serve.py."""
    gate = threading.Event()
    parked = server.server._executor.submit(gate.wait)
    try:
        yield
        batcher = server.server.batcher
        deadline = time.monotonic() + 30.0
        while batcher.stats()["submitted"] < arrivals:
            assert time.monotonic() < deadline, f"{arrivals} arrivals never came"
            time.sleep(0.001)
    finally:
        gate.set()
        parked.result(timeout=30)


def _soak(
    circuit_name: str,
    patterns_text,
    responses,
    *,
    n_clients: int,
    max_batch: int = ServeConfig.max_batch,
    hold: bool = False,
):
    """One traffic regime: returns (metrics dict, served result JSONs).
    ``hold`` parks the first wave of ``n_clients`` requests behind the
    compute thread (see :func:`_held_compute`)."""
    config = ServeConfig(
        port=0,
        max_batch=max_batch,
        max_queue=max(512, 4 * len(responses)),
    )
    with BackgroundServer(config) as server:
        with ServeClient(server.host, server.port) as warm:
            # Register the pattern set and warm the dictionary: the soak
            # measures traffic handling, not the cold artefact build.
            ref = warm.diagnose(
                DiagnoseRequest(
                    circuit=circuit_name,
                    patterns=patterns_text,
                    responses=responses[0],
                )
            ).patterns_ref

        def one_request(index):
            with ServeClient(server.host, server.port) as client:
                start = time.perf_counter()
                response = client.diagnose(
                    DiagnoseRequest(
                        circuit=circuit_name,
                        patterns_ref=ref,
                        responses=responses[index],
                    )
                )
                return response, (time.perf_counter() - start) * 1000.0

        start = time.perf_counter()
        if n_clients == 1:
            served = [one_request(i) for i in range(len(responses))]
        else:
            with ThreadPoolExecutor(max_workers=n_clients) as pool:
                with (
                    _held_compute(server, 1 + n_clients)
                    if hold
                    else contextlib.nullcontext()
                ):
                    waves = pool.map(one_request, range(len(responses)))
                served = list(waves)
        wall_s = time.perf_counter() - start
        with ServeClient(server.host, server.port) as client:
            batcher = client.stats()["batcher"]
    latencies = sorted(ms for _, ms in served)
    metrics = {
        "n_requests": len(served),
        "n_clients": n_clients,
        "max_batch": max_batch,
        "wall_seconds": round(wall_s, 4),
        "logs_per_sec": round(len(served) / wall_s, 1),
        "p50_ms": round(statistics.median(latencies), 2),
        "p99_ms": round(latencies[int(0.99 * (len(latencies) - 1))], 2),
        "avg_batch_occupancy": batcher["avg_occupancy"],
        "max_batch_occupancy": batcher["max_occupancy"],
        "submitted": batcher["submitted"],
        "batches": batcher["batches"],
        "shed": batcher["shed"],
    }
    return metrics, [to_json(resp.result) for resp, _ in served]


def test_record_batched_vs_serial():
    """Always-on record tier: both regimes on the reduced c499 soak."""
    patterns_text, responses = _traffic(
        RECORD_CIRCUIT, RECORD_PATTERNS, RECORD_REQUESTS
    )
    serial, serial_results = _soak(
        RECORD_CIRCUIT, patterns_text, responses,
        max_batch=1, n_clients=1,
    )
    batched, batched_results = _soak(
        RECORD_CIRCUIT, patterns_text, responses,
        n_clients=RECORD_CLIENTS, hold=True,
    )
    assert batched_results == serial_results  # same answers, any regime
    assert batched["max_batch_occupancy"] > 1


@pytest.mark.slow
def test_batched_throughput_floor():
    """Concurrent traffic on the full c880 soak: every request succeeds,
    nothing is shed, the answers equal the one-at-a-time baseline's,
    and the batcher fuses the requests into at most
    ``MAX_BATCHES_PER_REQUEST`` compute batches per request.

    Marked ``slow`` for its size; CI runs it in the dedicated
    benchmark-floor step.
    """
    patterns_text, responses = _traffic(
        FLOOR_CIRCUIT, FLOOR_PATTERNS, FLOOR_REQUESTS
    )
    serial, serial_results = _soak(
        FLOOR_CIRCUIT, patterns_text, responses,
        max_batch=1, n_clients=1,
    )
    batched, batched_results = _soak(
        FLOOR_CIRCUIT, patterns_text, responses, n_clients=FLOOR_CLIENTS,
        hold=True,
    )
    # Every one of the >= 32 concurrent requests succeeded, nothing was
    # shed, and batching never changed an answer.
    assert len(batched_results) == FLOOR_REQUESTS
    assert batched["shed"] == 0
    assert batched_results == serial_results
    assert batched["max_batch_occupancy"] > 1
    # Both regimes saw the same requests; only the batched one fuses.
    assert serial["submitted"] == batched["submitted"] == FLOOR_REQUESTS + 1
    assert serial["batches"] == serial["submitted"]
    per_request = batched["batches"] / batched["submitted"]
    assert per_request <= MAX_BATCHES_PER_REQUEST, (
        f"{batched['batches']} compute batches for {batched['submitted']} "
        f"requests ({per_request:.2f} per request)"
    )
