"""The service workload: ``serve_mixed``.

``python -m repro serve`` runs as a child process with its default
configuration (ephemeral port).  This process is the only client: two
threads, each holding one keep-alive connection in a closed loop, like
tester stations that each wait for their reply.  Every request is a
``POST /diagnose`` on c880@1.0 with a 256-pattern BIST sequence.  Of
every 20 requests, 19 send ``patterns_ref`` to the shared sequence
(reads) and one sends a new inline sequence, which the server must
register and build a fault dictionary for (a write).  Writes hold the
single compute thread, so reads queue behind them.
"""

from __future__ import annotations

import itertools
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time

from common import (
    SETUP_REPS,
    TRACES,
    BenchError,
    Outcome,
    child_env,
    mean,
    median,
    proc_hwm_mb,
    tail,
    work_dir,
)
from tracing import SpanRecorder

CIRCUIT = "c880"
N_PATTERNS = 256
#: Distinct fail logs replayed against the shared sequence.
READ_LOGS = 32
#: One request in WRITE_EVERY registers a new pattern sequence.
WRITE_EVERY = 20
#: The request budget is fixed work: this many per second of
#: ``--seconds``.  Two cores served 20-40 req/s at the commit that added
#: this benchmark, so a run measures for one to two times ``--seconds``.
REQUESTS_PER_SECOND = 25
CLIENTS = 2
_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


class Inputs:
    """Everything the client sends, generated from the seed alone."""

    def __init__(self, seed: int, n_requests: int) -> None:
        from repro import Session
        from repro.diagnosis import make_fail_log
        from repro.faults.collapse import collapse_faults
        from repro.utils.bitvec import BitVector

        rng = random.Random(seed)
        self.session = Session.from_name(CIRCUIT, scale=1.0)
        circuit = self.session.circuit
        compiled = self.session.simulator.compiled
        faults = collapse_faults(circuit)

        def sequence():
            return [BitVector(rng.getrandbits(circuit.n_inputs),
                              circuit.n_inputs) for _ in range(N_PATTERNS)]

        self.read_patterns = sequence()
        detected = self.session.simulator.detected(self.read_patterns, faults)
        detectable = [f for f, hit in zip(faults, detected) if hit]
        self.read_logs = [
            make_fail_log(circuit, self.read_patterns, fault, compiled)
            for fault in rng.sample(detectable, READ_LOGS)
        ]
        #: Per request: ("read", log index) or ("write", write index).
        self.schedule: list[tuple[str, int]] = []
        self.write_logs = []
        for index in range(n_requests):
            if index % WRITE_EVERY == WRITE_EVERY - 1:
                self.schedule.append(("write", len(self.write_logs)))
                self.write_logs.append(make_fail_log(
                    circuit, sequence(), rng.choice(faults), compiled))
            else:
                self.schedule.append(("read", rng.randrange(READ_LOGS)))
        self.read_text = tuple(p.to_string() for p in self.read_patterns)

    def request(self, index: int, ref: str):
        from repro.serve import DiagnoseRequest

        kind, which = self.schedule[index]
        if kind == "read":
            log = self.read_logs[which]
            return DiagnoseRequest(
                circuit=CIRCUIT, patterns_ref=ref,
                responses=tuple(r.to_string() for r in log.responses))
        log = self.write_logs[which]
        return DiagnoseRequest(
            circuit=CIRCUIT,
            patterns=tuple(p.to_string() for p in log.patterns),
            responses=tuple(r.to_string() for r in log.responses))

    def expected(self, index: int) -> str:
        """The reply body an in-process diagnosis gives for a request."""
        from repro.flow.serialize import diagnosis_result_to_dict, to_json

        kind, which = self.schedule[index]
        log = (self.read_logs if kind == "read" else self.write_logs)[which]
        local = self.session.diagnose(log, method="dictionary")
        return to_json(diagnosis_result_to_dict(local))


class Server:
    """One ``python -m repro serve`` child on an ephemeral port."""

    def __init__(self, name: str, metrics: bool) -> None:
        args = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if metrics:
            args.append("--metrics")
        self.log = work_dir(name) / "server.err"
        with self.log.open("w") as err:
            self.proc = subprocess.Popen(
                args, env=child_env(), stdout=subprocess.PIPE, stderr=err,
                text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        match = _LISTENING.search(line)
        if match is None:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"serve did not start: {line!r} "
                             f"{self.log.read_text()[-500:]}")
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(self.host, self.port, timeout=60.0)

    def stop(self) -> bool:
        """SIGTERM, then wait for the drain; True on a clean exit 0."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return False
        return self.proc.returncode == 0 and "drained cleanly" in rest


def start(inputs: Inputs, name: str, metrics: bool):
    """Start a server and warm it: register the shared sequence and build
    its dictionary.  Returns (server, patterns_ref, seconds)."""
    from repro.serve import DiagnoseRequest

    begin = time.perf_counter()
    server = Server(name, metrics)
    try:
        with server.client() as client:
            log = inputs.read_logs[0]
            ref = client.diagnose(DiagnoseRequest(
                circuit=CIRCUIT, patterns=inputs.read_text,
                responses=tuple(r.to_string() for r in log.responses),
            )).patterns_ref
    except BaseException:
        server.proc.kill()
        server.proc.communicate()
        raise
    return server, ref, time.perf_counter() - begin


def closed_loop(server: Server, inputs: Inputs, ref: str,
                recorder: SpanRecorder | None = None):
    """Send every scheduled request from CLIENTS closed-loop threads.
    Returns (per-request (latency_s, response | error), wall seconds)."""
    requests = [inputs.request(i, ref) for i in range(len(inputs.schedule))]
    results: list = [None] * len(requests)
    indices = itertools.count()
    lock = threading.Lock()

    def station() -> None:
        with server.client() as client:
            while True:
                with lock:
                    index = next(indices)
                if index >= len(results):
                    return
                request = requests[index]
                begin = time.perf_counter()
                try:
                    if recorder is None:
                        reply = client.diagnose(request)
                    else:
                        with recorder.span("serve.request"):
                            reply = client.diagnose(request)
                except Exception as exc:  # counted as a failed request
                    reply = exc
                results[index] = (time.perf_counter() - begin, reply)

    threads = [threading.Thread(target=station) for _ in range(CLIENTS)]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - begin


def check_replies(inputs: Inputs, results, out: Outcome) -> None:
    """Every reply is a 200 whose body is byte-identical to an in-process
    ``Session.diagnose(method="dictionary")`` of the same log."""
    from repro.flow.serialize import to_json
    from repro.serve import DiagnoseResponse

    expected: dict[tuple[str, int], str] = {}
    for index, (_, reply) in enumerate(results):
        key = inputs.schedule[index]
        if not isinstance(reply, DiagnoseResponse):
            out.check(False, f"request {index} {key}: {reply!r}")
            continue
        if key not in expected:
            expected[key] = inputs.expected(index)
        out.check(to_json(reply.result) == expected[key],
                  f"request {index} {key}: reply differs from Session.diagnose")


def serve_mixed(seed: int, seconds: int, trace: bool, out: Outcome) -> None:
    inputs = Inputs(seed, REQUESTS_PER_SECOND * seconds)
    servers: list[Server] = []

    def launch(name: str, metrics: bool = False):
        server, ref, seconds_taken = start(inputs, name, metrics)
        servers.append(server)
        return server, ref, seconds_taken

    def stop(server: Server) -> None:
        out.check(server.stop(), "serve: no clean drain on SIGTERM")

    try:
        setups = []
        for rep in range(1 if trace else SETUP_REPS):
            if rep:
                stop(server)
            server, ref, seconds_taken = launch(f"serve{rep}")
            setups.append(seconds_taken)
        results, wall = closed_loop(server, inputs, ref)
        hwm = proc_hwm_mb(server.proc.pid)
        stop(server)
        if trace:
            rec = SpanRecorder()
            server, ref, _ = launch("serve-traced", metrics=True)
            with rec.span("bench.timed", workload="serve_mixed",
                          seed=seed) as root:
                traced, traced_wall = closed_loop(server, inputs, ref, rec)
            with server.client() as client:
                stats, scrape = client.stats(), client.metrics()
            stop(server)
            # Bracket the traced run with untraced ones, so drift over the
            # run does not pass for tracing overhead.
            server, ref, _ = launch("serve-after")
            wall_after = closed_loop(server, inputs, ref)[1]
            stop(server)
            layer_metrics(inputs, traced, stats, scrape, rec, root,
                          (wall + wall_after) / 2, traced_wall, out)
            rec.write(TRACES / f"serve_mixed-{seed}.json")
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.communicate()
    check_replies(inputs, results, out)
    reads = [lat for (lat, _), (kind, _) in zip(results, inputs.schedule)
             if kind == "read"]
    writes = [lat for (lat, _), (kind, _) in zip(results, inputs.schedule)
              if kind == "write"]
    out.put("read_p50_ms", 1000 * median(reads))
    out.put("read_p95_ms", 1000 * tail(reads))
    if not trace:
        out.put("setup_s", median(setups))
        out.put("peak_rss_mb", hwm)
        out.put("wall_s", wall)
        out.put("throughput_rps", len(results) / wall)
        out.put("write_mean_ms", 1000 * mean(writes))


def layer_metrics(inputs: Inputs, results, stats: dict, scrape: str,
                  rec: SpanRecorder, root, untraced_wall: float,
                  traced_wall: float, out: Outcome) -> None:
    """Per-layer metrics of a traced service run, read from the replies,
    ``GET /stats`` and ``GET /metrics``; the flow layers do no work here."""
    from repro.obs import parse_prometheus_text
    from repro.serve import DiagnoseResponse

    reads, writes = [], []
    for (latency, reply), (kind, _) in zip(results, inputs.schedule):
        if isinstance(reply, DiagnoseResponse):
            (reads if kind == "read" else writes).append((latency, reply.seconds))
    batcher = stats["batcher"]
    out.put("serve.compute_ms", 1000 * median([c for _, c in reads]))
    out.put("serve.wait_ms", 1000 * median([lat - c for lat, c in reads]))
    out.put("serve.write_compute_ms", 1000 * median([c for _, c in writes]))
    out.put("serve.batches", batcher["batches"])
    out.put("serve.avg_occupancy", batcher["avg_occupancy"])
    out.put("serve.shed", batcher["shed"])
    out.put("serve.expired", batcher["expired"])
    out.put("diagnosis.pattern_sets", stats["pattern_sets"])
    series = parse_prometheus_text(scrape)
    builds = series.get("repro_sim_plan_builds_total", 0.0)
    hits = series.get("repro_sim_plan_cache_hits_total", 0.0)
    out.put("sim.plan_builds", builds)
    out.put("sim.plan_cache_hits", hits)
    out.put("sim.plan_subsets", series.get("repro_sim_plan_subsets_total", 0.0))
    out.put("sim.plan_hit_ratio",
            hits / (hits + builds) if hits + builds else 0.0)
    out.put("sim.words_simulated",
            series.get("repro_sim_words_simulated_total", 0.0))
    # Share of the timed phase with at least one request in flight.
    spans = sorted((s.start, s.start + s.seconds)
                   for s in rec.named("serve.request"))
    covered, reach = 0.0, root.start
    for begin, end in spans:
        if end > reach:
            covered += end - max(begin, reach)
            reach = end
    out.put("trace.span_coverage", covered / root.seconds)
    out.put("trace.untraced_wall_s", untraced_wall)
    out.put("trace.traced_wall_s", traced_wall)
    out.put("trace.overhead_frac", traced_wall / untraced_wall - 1.0)
    out.put("trace.spans", len(rec.spans))
