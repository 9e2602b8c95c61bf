#!/usr/bin/env python3
"""End-to-end smoke for the ``repro serve`` worker process.

Boots the real foreground server (``python -m repro serve --port 0``)
as a subprocess, then walks the lifecycle CI cares about:

1. parse the "listening on" line for the ephemeral port;
2. ``GET /healthz`` answers ``{"status": "ok"}``;
3. ``POST /diagnose`` on c17 returns a schema-stamped
   ``diagnose_response`` whose embedded payload decodes through the
   codec (``decode(DiagnosisResult, ...)``);
4. a mistyped ``POST /diagnose`` body (``"top_k": "5"``) is a 400
   ``serve_error`` naming the field — typed decode, end to end;
5. one registered sequence, then 8 concurrent ``/diagnose`` reads on its
   ``patterns_ref``: every reply is a 200 whose ``result`` matches the
   serial reply's; then one more concurrent read group in which one
   request's responses hold a non-0/1 character and another's have the
   wrong width: those two get a 400 naming ``responses`` and their
   valid neighbours a 200 equal to the serial reply; ``GET /stats``
   ``batcher.batched_requests`` equals the number of diagnoses
   dispatched (fused or not, none lost);
6. ``GET /metrics`` (always served; the worker boots with no flags)
   returns a Prometheus text exposition that the strict parser accepts
   and that counts the traffic this script just sent, and ``GET /stats``
   — rendered from the same registry — reports the same ``/diagnose``
   count;
7. SIGTERM drains cleanly: exit code 0 and the drain message on stdout.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py

Exits non-zero with a diagnostic on any failure.  CI's tests job runs
this on every Python version in the matrix.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def fail(message: str, server: subprocess.Popen | None = None) -> int:
    print(f"serve smoke FAILED: {message}", file=sys.stderr)
    if server is not None:
        server.kill()
        out, _ = server.communicate(timeout=10)
        print(f"server output:\n{out}", file=sys.stderr)
    return 1


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = server.stdout.readline()
    if "listening on http://" not in banner:
        return fail(f"unexpected banner: {banner!r}", server)
    host, _, port_text = banner.split("http://", 1)[1].split()[0].rpartition(":")

    # The client import needs src/ on the path too.
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.diagnosis.result import DiagnosisResult
    from repro.flow.serialize import decode, encode
    from repro.obs import parse_prometheus_text
    from repro.serve import DiagnoseRequest, ServeClient, ServeClientError

    try:
        with ServeClient(host, int(port_text)) as client:
            health = client.healthz()
            if health.get("status") != "ok":
                return fail(f"healthz said {health}", server)
            request = DiagnoseRequest(
                circuit="c17",
                patterns=("10110", "01001", "11100", "00011"),
                responses=("10", "01", "11", "00"),
                method="effect_cause",
            )
            response = client.diagnose(request)
            if response.result.get("kind") != "diagnosis_result":
                return fail(f"unexpected payload kind: {response.result}", server)
            decode(DiagnosisResult, response.result)  # typed schema round-trip
            try:
                client._request("POST", "/diagnose", {**encode(request), "top_k": "5"})
                return fail("mistyped top_k was accepted", server)
            except ServeClientError as error:
                if error.status != 400 or "top_k" not in error.error.error:
                    return fail(f"mistyped top_k: {error}", server)
            serial = client.diagnose(
                DiagnoseRequest(
                    circuit="c17",
                    patterns=request.patterns,
                    responses=request.responses,
                    method="dictionary",
                )
            )
            read = DiagnoseRequest(
                circuit="c17",
                patterns_ref=serial.patterns_ref,
                responses=request.responses,
                method="dictionary",
            )

            def one_read(_):
                with ServeClient(host, int(port_text)) as reader:
                    try:
                        return reader.diagnose(read)
                    except ServeClientError as error:
                        return error

            with ThreadPoolExecutor(max_workers=8) as pool:
                replies = list(pool.map(one_read, range(8)))
            for reply in replies:
                if isinstance(reply, ServeClientError):
                    return fail(f"concurrent read failed: {reply}", server)
                if reply.result != serial.result:
                    return fail("concurrent read differs from the serial reply", server)
            # One more concurrent read group on the same ref: a non-0/1
            # character and a wrong width among valid neighbours.  The
            # bad ones get a 400 naming ``responses`` (the first on the
            # event loop, the second in its group's compute); every
            # neighbour still matches the serial reply.
            bad_char = ("1x",) + request.responses[1:]
            wrong_width = tuple(r + "0" for r in request.responses)
            group = [
                request.responses, bad_char, request.responses,
                wrong_width, request.responses,
            ]

            def read_with(responses):
                with ServeClient(host, int(port_text)) as reader:
                    try:
                        return reader.diagnose(
                            DiagnoseRequest(
                                circuit="c17",
                                patterns_ref=serial.patterns_ref,
                                responses=responses,
                                method="dictionary",
                            )
                        )
                    except ServeClientError as error:
                        return error

            with ThreadPoolExecutor(max_workers=len(group)) as pool:
                mixed = list(pool.map(read_with, group))
            for responses, reply in zip(group, mixed):
                if responses in (bad_char, wrong_width):
                    if not isinstance(reply, ServeClientError) or reply.status != 400:
                        return fail(f"malformed read was not a 400: {reply!r}", server)
                    if "responses" not in reply.error.error:
                        return fail(f"400 does not name responses: {reply}", server)
                elif isinstance(reply, ServeClientError):
                    return fail(f"read beside a malformed one failed: {reply}", server)
                elif reply.result != serial.result:
                    return fail("read beside a malformed one differs from serial", server)
            # effect_cause + registration + reads; the non-0/1 read is
            # rejected before it reaches the batcher.
            dispatched = 2 + len(replies) + len(group) - 1
            batched = client.stats()["batcher"]["batched_requests"]
            if batched != dispatched:
                return fail(
                    f"batcher dispatched {batched} requests, expected {dispatched}",
                    server,
                )
            exposition = client.metrics()
            try:
                parsed = parse_prometheus_text(exposition)
            except ValueError as error:
                return fail(
                    f"/metrics exposition unparseable: {error}\n{exposition}",
                    server,
                )
            diagnoses = parsed.get('repro_serve_requests_total{path="/diagnose"}')
            if not diagnoses or diagnoses < 1:
                return fail(
                    f"/metrics did not count the diagnose request: {parsed}",
                    server,
                )
            counted = client.stats()["requests"].get("/diagnose")
            if counted != diagnoses:
                return fail(
                    f"/stats counts {counted} /diagnose requests, "
                    f"/metrics {diagnoses}",
                    server,
                )
    except Exception as error:  # noqa: BLE001 - smoke surface, report all
        return fail(f"request phase raised {error!r}", server)

    server.send_signal(signal.SIGTERM)
    try:
        out, _ = server.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        return fail("SIGTERM did not drain within 30s", server)
    if server.returncode != 0:
        return fail(f"exit code {server.returncode}\noutput:\n{out}")
    if "drained cleanly" not in out:
        return fail(f"drain message missing from output:\n{out}")
    print(
        "serve smoke OK: healthz + diagnose + typed 400 + 8 concurrent reads"
        " + malformed reads fail alone"
        " + metrics == stats + clean SIGTERM drain"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
