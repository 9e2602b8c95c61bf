"""A stdlib blocking client for ``repro serve``.

One :class:`ServeClient` owns one keep-alive HTTP/1.1 connection (via
``http.client``) — cheap enough that load generators create one per
thread; the class is intentionally **not** thread-safe, matching the
underlying connection.  Typed helpers wrap each endpoint and decode
through the same schema-versioned :mod:`repro.flow.serialize` codec
(``encode``/``decode``) the server uses, so skew and mistyped replies
are caught client-side too.

Example — diagnose a fail log, then reuse the uploaded pattern set::

    from repro.serve import DiagnoseRequest, ServeClient

    with ServeClient("127.0.0.1", 8731) as client:
        first = client.diagnose(DiagnoseRequest(
            circuit="c880", patterns=patterns, responses=responses))
        ref = first.patterns_ref          # content-addressed
        again = client.diagnose(DiagnoseRequest(
            circuit="c880", patterns_ref=ref, responses=responses2))
"""

from __future__ import annotations

import http.client
import json
from typing import Any

from repro.flow.serialize import decode, encode
from repro.serve.api import (
    AtpgRequest,
    AtpgResponse,
    DiagnoseRequest,
    DiagnoseResponse,
    ServeError,
    ServeStats,
    SweepRequest,
    SweepResponse,
)


class ServeClientError(RuntimeError):
    """A non-2xx reply, carrying the decoded :class:`ServeError`."""

    def __init__(self, status: int, error: ServeError) -> None:
        super().__init__(f"HTTP {status}: {error.error}")
        self.status = status
        self.error = error
        self.retry_after = error.retry_after


class ServeClient:
    """Blocking typed client for one serve worker."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Drop the keep-alive connection."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        conn = self._connection()
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            # A dead keep-alive connection (server restarted, drain
            # closed it): reconnect once and retry.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        decoded = json.loads(raw) if raw else {}
        if response.status >= 400:
            if isinstance(decoded, dict) and decoded.get("kind") == "serve_error":
                raise ServeClientError(response.status, decode(ServeError, decoded))
            raise ServeClientError(
                response.status,
                ServeError(error=str(decoded), status=response.status),
            )
        return response.status, decoded

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        """``GET /healthz``: liveness document."""
        return self._request("GET", "/healthz")[1]

    def stats(self) -> dict[str, Any]:
        """``GET /stats``: the worker's counters (inner document)."""
        return decode(ServeStats, self._request("GET", "/stats")[1]).stats

    def metrics(self) -> str:
        """``GET /metrics``: the raw Prometheus text exposition of the
        worker's registry (always served)."""
        conn = self._connection()
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            self.close()
            conn = self._connection()
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            raw = response.read()
        if response.status >= 400:
            decoded = json.loads(raw) if raw else {}
            if isinstance(decoded, dict) and decoded.get("kind") == "serve_error":
                raise ServeClientError(response.status, decode(ServeError, decoded))
            raise ServeClientError(
                response.status,
                ServeError(error=str(decoded), status=response.status),
            )
        return raw.decode("utf-8")

    def diagnose(self, request: DiagnoseRequest) -> DiagnoseResponse:
        """``POST /diagnose`` one fail log."""
        _, decoded = self._request("POST", "/diagnose", encode(request))
        return decode(DiagnoseResponse, decoded)

    def atpg(self, request: AtpgRequest) -> AtpgResponse:
        """``POST /atpg``: run (or reuse) the ATPG substrate."""
        _, decoded = self._request("POST", "/atpg", encode(request))
        return decode(AtpgResponse, decoded)

    def sweep(self, request: SweepRequest) -> SweepResponse:
        """``POST /sweep``: a circuits x TPGs x lengths grid."""
        _, decoded = self._request("POST", "/sweep", encode(request))
        return decode(SweepResponse, decoded)
