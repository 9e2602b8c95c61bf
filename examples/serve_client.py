#!/usr/bin/env python3
"""Driving ``repro serve``: BIST diagnosis as batched HTTP traffic.

A tester farm applies one BIST program to thousands of dies; each
failing die yields a fail log that needs a diagnosis.  ``repro serve``
turns the flow layer into that service: an asyncio HTTP worker that
*micro-batches* concurrent ``POST /diagnose`` requests — logs applying
the same pattern sequence that queue up while a group computes fuse
into the next group, one vectorised fault-dictionary lookup pass;
nothing is held — and answers each request with a payload
byte-identical to a local ``Session.diagnose()``.

This example hosts a worker in-process (:class:`BackgroundServer` —
exactly the server ``python -m repro serve`` runs in the foreground),
then plays the tester farm:

1. synthesise fail logs for several distinct injected faults;
2. upload the shared pattern sequence once, keep the content-addressed
   ``patterns_ref`` the server hands back;
3. fire all the fail logs concurrently from worker threads, each
   shipping only its observed responses plus the ref;
4. verify every served diagnosis ranks its injected fault first and is
   identical to the local library answer, and print the latency
   distribution plus the server's ``/stats`` counters — where the
   batcher's occupancy shows the requests were fused, not serialised.

Run: ``python examples/serve_client.py [--circuit c499] [--patterns 64]
[--requests 24] [--clients 8]``
"""

import argparse
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

from repro.diagnosis import fault_representatives, make_fail_log
from repro.faults.collapse import collapse_faults
from repro.flow.serialize import encode, to_json
from repro.flow.session import Session
from repro.serve import (
    BackgroundServer,
    DiagnoseRequest,
    ServeClient,
    ServeConfig,
)
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream
from repro.utils.tables import AsciiTable


def synthesize_traffic(circuit_name, n_patterns, n_requests, seed=2001):
    """One shared pattern sequence + one fail log per injected fault."""
    session = Session.from_name(circuit_name)
    circuit = session.circuit
    faults = collapse_faults(circuit)
    rng = RngStream(seed, "serve-example", circuit.name)
    patterns = [
        BitVector.random(circuit.n_inputs, rng) for _ in range(n_patterns)
    ]
    detected = session.simulator.detected(patterns, faults)
    detectable = [f for f, flag in zip(faults, detected) if flag]
    injected = [detectable[i % len(detectable)] for i in range(n_requests)]
    logs = [
        make_fail_log(circuit, patterns, fault, session.simulator.compiled)
        for fault in injected
    ]
    return session, patterns, injected, logs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="c499")
    parser.add_argument("--patterns", type=int, default=64)
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--clients", type=int, default=8)
    args = parser.parse_args()

    print(
        f"synthesising {args.requests} fail logs on {args.circuit} "
        f"({args.patterns} patterns)..."
    )
    session, patterns, injected, logs = synthesize_traffic(
        args.circuit, args.patterns, args.requests
    )
    patterns_text = tuple(p.to_string() for p in patterns)
    representatives = fault_representatives(session.circuit)

    config = ServeConfig(
        port=0,
        max_batch=max(args.clients, 2),
    )
    with BackgroundServer(config) as server:
        print(f"worker listening on http://{server.host}:{server.port}")
        with ServeClient(server.host, server.port) as warmup:
            # Upload the shared BIST program once; every later request
            # ships only its observed responses + this content ref.
            first = warmup.diagnose(
                DiagnoseRequest(
                    circuit=args.circuit,
                    patterns=patterns_text,
                    responses=tuple(r.to_string() for r in logs[0].responses),
                    method="dictionary",
                )
            )
            ref = first.patterns_ref
            print(f"pattern set registered: patterns_ref={ref[:16]}...")

        def one_request(log):
            with ServeClient(server.host, server.port) as client:
                start = time.perf_counter()
                response = client.diagnose(
                    DiagnoseRequest(
                        circuit=args.circuit,
                        patterns_ref=ref,
                        responses=tuple(r.to_string() for r in log.responses),
                        method="dictionary",
                    )
                )
                return response, (time.perf_counter() - start) * 1000.0

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            served = list(pool.map(one_request, logs))
        wall_s = time.perf_counter() - start

        with ServeClient(server.host, server.port) as client:
            stats = client.stats()

    # -- verify: served == local library answers, injected fault on top
    mismatches = 0
    top_ranked = 0
    for (response, _), log, fault in zip(served, logs, injected):
        local = session.diagnose(log, method="dictionary", top_k=10)
        if to_json(response.result) != to_json(encode(local)):
            mismatches += 1
        rank = local.rank_of(representatives.get(fault, fault))
        if rank == 1:
            top_ranked += 1

    latencies = sorted(ms for _, ms in served)
    table = AsciiTable(
        ["metric", "value"], title="serve traffic summary"
    )
    table.add_row(["requests", len(served)])
    table.add_row(["wall time", f"{wall_s:.3f} s"])
    table.add_row(["throughput", f"{len(served) / wall_s:.1f} logs/s"])
    table.add_row(["p50 latency", f"{statistics.median(latencies):.1f} ms"])
    table.add_row(
        ["p99 latency", f"{latencies[int(0.99 * (len(latencies) - 1))]:.1f} ms"]
    )
    table.add_row(
        ["max batch occupancy", stats["batcher"]["max_occupancy"]]
    )
    table.add_row(
        ["avg batch occupancy", stats["batcher"]["avg_occupancy"]]
    )
    table.add_row(["byte-identical to local", len(served) - mismatches])
    table.add_row(["injected fault ranked #1", top_ranked])
    print(table.render())

    fused = stats["batcher"]["max_occupancy"]
    print(
        f"{len(served)} concurrent requests served in "
        f"{stats['batcher']['batches']} compute passes "
        f"(largest fused batch: {fused})"
    )
    assert mismatches == 0, "served payloads diverged from Session.diagnose"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
