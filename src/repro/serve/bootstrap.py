"""Process entry points for ``repro serve``.

:func:`run` is the foreground worker the CLI execs: it installs
SIGTERM/SIGINT handlers that trigger the server's graceful drain (stop
accepting, finish every accepted request, flush responses, exit 0) —
the contract a process supervisor rolling a worker fleet relies on.

:class:`BackgroundServer` hosts the same server on a daemon thread
inside the current process — the harness tests, the example client and
the throughput benchmark all use it to get a real listening socket
without subprocess management.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Any

from repro.serve.server import ReproServer, ServeConfig


def run(config: ServeConfig | None = None) -> int:
    """Run one serve worker in the foreground until SIGTERM/SIGINT."""
    config = config or ServeConfig()
    server = ReproServer(config)

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
        await server.start()
        print(
            f"repro serve listening on http://{server.host}:{server.port} "
            f"(max batch {config.max_batch}, max queue {config.max_queue})",
            flush=True,
        )
        await server.serve_until(stop)
        print("repro serve drained cleanly", flush=True)

    asyncio.run(main())
    return 0


class BackgroundServer:
    """A live serve worker on a daemon thread (context manager).

    ::

        with BackgroundServer(ServeConfig(port=0)) as server:
            client = ServeClient(server.host, server.port)
            ...

    ``port=0`` binds an ephemeral port; the resolved address is on
    ``host``/``port`` once ``__enter__`` returns.  Exit performs the
    same graceful drain as SIGTERM in the foreground path.
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig(port=0)
        self.server: ReproServer | None = None
        self.host: str = self.config.host
        self.port: int = self.config.port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._done = threading.Event()
        self._error: BaseException | None = None

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve worker failed to start within 30 s")
        if self._error is not None:
            raise RuntimeError("serve worker failed to start") from self._error
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def stop(self) -> None:
        """Trigger the graceful drain and join the worker thread."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not self._done.is_set():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # surface startup failures to __enter__
            self._error = exc
            self._ready.set()
        finally:
            self._done.set()

    async def _serve(self) -> None:
        self.server = ReproServer(self.config)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self.host, self.port = self.server.host, self.server.port
        self._ready.set()
        await self.server.serve_until(self._stop)
