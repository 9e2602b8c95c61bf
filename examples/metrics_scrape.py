#!/usr/bin/env python3
"""Telemetry end to end: kernel counters to a Prometheus scrape.

``repro.obs`` is one opt-in surface for the whole stack.  This example
walks it bottom-up:

1. a local :class:`Session` with ``Telemetry.on()`` — after one
   diagnosis, the *library* registry already carries the packed
   fault-sim kernel counters (``repro_sim_words_simulated_total``, the
   plan-cache economics) and the flow-stage histograms, rendered as the
   same Prometheus text a scraper would see;
2. a ``repro serve`` worker (every worker runs a live registry) —
   after a burst of concurrent diagnosis traffic, ``GET /metrics`` exposes the
   request/latency/batcher/cache series, strict-parsed back into
   numbers with :func:`repro.obs.parse_prometheus_text` and
   cross-checked against ``GET /stats``, which renders the same
   registry as JSON.

Run: ``python examples/metrics_scrape.py [--circuit c17]
[--patterns 32] [--requests 6] [--clients 3]``
"""

import argparse
from concurrent.futures import ThreadPoolExecutor

from repro.diagnosis import make_fail_log
from repro.faults.collapse import collapse_faults
from repro.flow.session import Session
from repro.obs import Telemetry, parse_prometheus_text, render_prometheus
from repro.serve import (
    BackgroundServer,
    DiagnoseRequest,
    ServeClient,
    ServeConfig,
)
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream
from repro.utils.tables import AsciiTable


def print_series(title: str, parsed: dict[str, float], prefixes: tuple) -> None:
    table = AsciiTable(["series", "value"], title=title)
    for key in sorted(parsed):
        if key.startswith(prefixes) and "_bucket" not in key:
            value = parsed[key]
            table.add_row([key, int(value) if value == int(value) else value])
    print(table.render())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="c17")
    parser.add_argument("--patterns", type=int, default=32)
    parser.add_argument("--requests", type=int, default=6)
    parser.add_argument("--clients", type=int, default=3)
    args = parser.parse_args()

    # -- 1. library-level telemetry: the kernels count, the scrape sees
    telemetry = Telemetry.on()
    session = Session.from_name(args.circuit, telemetry=telemetry)
    circuit = session.circuit
    faults = collapse_faults(circuit)
    rng = RngStream(2001, "metrics-example", circuit.name)
    patterns = [
        BitVector.random(circuit.n_inputs, rng) for _ in range(args.patterns)
    ]
    detected = session.simulator.detected(patterns, faults)
    injected = next(f for f, flag in zip(faults, detected) if flag)
    log = make_fail_log(circuit, patterns, injected, session.simulator.compiled)
    result = session.diagnose(log, method="effect_cause", top_k=3)
    print(
        f"local diagnosis on {circuit.name}: injected {injected} "
        f"ranked #{result.rank_of(result.candidates[0].fault)}"
    )
    local = parse_prometheus_text(render_prometheus(telemetry.metrics))
    print_series(
        "library registry after one diagnosis",
        local,
        ("repro_sim_", "repro_flow_stage_runs"),
    )

    # -- 2. the same registry family, served over HTTP by a worker
    config = ServeConfig(port=0, max_batch=args.clients)
    patterns_text = tuple(p.to_string() for p in patterns)
    responses_text = tuple(r.to_string() for r in log.responses)
    with BackgroundServer(config) as server:
        print(f"\nworker listening on http://{server.host}:{server.port}")

        def one_request(_index: int):
            with ServeClient(server.host, server.port) as client:
                return client.diagnose(
                    DiagnoseRequest(
                        circuit=args.circuit,
                        patterns=patterns_text,
                        responses=responses_text,
                        method="dictionary",
                    )
                )

        with ThreadPoolExecutor(max_workers=args.clients) as pool:
            served = list(pool.map(one_request, range(args.requests)))

        with ServeClient(server.host, server.port) as client:
            stats = client.stats()
            exposition = client.metrics()

    parsed = parse_prometheus_text(exposition)
    print_series(
        "GET /metrics after the traffic burst",
        parsed,
        ("repro_serve_requests", "repro_serve_responses", "repro_serve_batch"),
    )

    # /stats and /metrics render the same registry.
    scraped = parsed['repro_serve_requests_total{path="/diagnose"}']
    counted = stats["requests"]["/diagnose"]
    print(
        f"{len(served)} diagnoses served; /stats counts "
        f"{counted} /diagnose requests, /metrics scraped {scraped:.0f}"
    )
    assert scraped == counted == len(served)
    p_count = parsed['repro_serve_request_seconds_count{path="/diagnose"}']
    assert p_count == len(served), "latency histogram missed requests"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
