"""Minimal stdlib HTTP/JSON front end over the shard router.

An :mod:`asyncio`-streams HTTP/1.1 server (no third-party framework)
exposing the cluster to anything that can speak JSON over a socket:

* ``POST /solve_batch`` — ``{"columnar": frame}`` in, ``{"columnar":
  true, "designs": [K per-archetype designs], "codes": [...]}`` out —
  O(K) JSON per hop for an n-subject batch (see
  :func:`~repro.serving.cluster.codec.columnar_frame`); one design is a
  one-row frame.  Each row's fingerprint is recomputed under the
  router's ``(mu, config)`` before routing, and a frame whose
  fingerprints disagree is answered 400: the router caches under those
  keys, so a wrong one would poison every later request for it.  Any
  other malformed body (bad JSON, nesting too deep to parse, a frame
  field of the wrong type or out of range) is a 400 too;
* ``GET /healthz`` — shard liveness (with per-shard restart counts) +
  overall ``ok``/``degraded``;
* ``GET /stats`` — router counters, per-shard serving counters (pid,
  the misses each solved) and the router cache's totals;
* ``GET /metrics`` — live Prometheus text exposition federated across
  every shard registry (per-shard ``{shard="..."}`` samples plus
  unlabeled aggregates; see :mod:`repro.obs.aggregate`).

Solve requests honour an incoming W3C ``traceparent`` header: when
tracing is enabled the request span attaches under the remote caller
and the context keeps propagating through the router into the shard
processes, so one trace id follows the request end to end.

Solving is CPU + IPC work, so request handlers push it off the event
loop into the default executor — the loop keeps accepting connections
while the cluster solves.  Responses serialize floats via ``repr``
(:mod:`json`'s default), which round-trips every finite double exactly:
a compensation vector survives the HTTP hop bit-identically.

:class:`HTTPServerThread` hosts the server on a private event loop in a
daemon thread so synchronous callers (the CLI, the load generator,
tests) can stand a cluster endpoint up with two calls.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ...errors import ServingError
from ...obs.trace import TRACEPARENT_HEADER, Tracer, get_tracer, parse_traceparent
from .codec import design_to_json, frame_from_json, subproblems_from_frame
from .router import ShardRouter

__all__ = ["ClusterHTTPServer", "HTTPServerThread", "run_http_in_thread"]

#: Largest accepted request body, in bytes (a defensive bound; a frame
#: of a few thousand archetypes stays well under it).
MAX_BODY_BYTES = 8 * 1024 * 1024

_STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _RequestError(ServingError):
    """A request that cannot be read: answered with ``status``, then closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One line of a request head; a line over the stream limit is a 400."""
    try:
        return await reader.readline()
    except ValueError as error:
        raise _RequestError(400, f"request head line too long: {error}") from error


class ClusterHTTPServer:
    """Asyncio HTTP/1.1 JSON server fronting a :class:`ShardRouter`.

    Args:
        router: the (started) cluster router requests are served from.
        host: bind address.
        port: bind port (``0``: pick a free one; see :attr:`port`).
    """

    def __init__(
        self,
        router: ShardRouter,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.router = router
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the server is accepting connections."""
        return self._server is not None and self._server.is_serving()

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServingError("HTTP server is not running (call start())")
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the server is bound to."""
        return (self.host, self.port)

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self._requested_port
            )

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ClusterHTTPServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- connection handling ------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _RequestError as error:
                    # The body was never read, so the stream cannot be
                    # resynchronized: answer, then close.
                    await self._write_response(
                        writer, error.status, {"error": str(error)}, False
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                status, payload = await self._dispatch(method, path, headers, body)
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            except asyncio.CancelledError:
                # Shutdown cancels parked keep-alive handlers; the
                # transport is being torn down with the loop anyway.
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        try:
            request_line = await _read_line(reader)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None
        if not request_line or request_line.strip() == b"":
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _RequestError(
                400, f"malformed request line {request_line.strip()!r}"
            )
        method, raw_path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise _RequestError(400, f"invalid Content-Length {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise _RequestError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte bound",
            )
        body = await reader.readexactly(length) if length else b""
        path = raw_path.split("?", 1)[0]
        return method, path, headers, body

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], str]]:
        """Route one request to its handler; status + payload out.

        When tracing is enabled the handler runs inside a
        ``cluster.http_request`` span, attached under the caller's
        span when the request carried a ``traceparent`` header.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return await self._dispatch_inner(method, path, body)
        remote = parse_traceparent(headers.get(TRACEPARENT_HEADER))
        with tracer.attach(remote):
            with tracer.span(
                "cluster.http_request", method=method, path=path
            ) as span:
                status, payload = await self._dispatch_inner(method, path, body)
                span.set("status", status)
                return status, payload

    async def _dispatch_inner(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, Any], str]]:
        try:
            if path == "/healthz":
                if method != "GET":
                    return 405, {"error": f"{method} not allowed on {path}"}
                report = self.router.healthz()
                status = 200 if report["status"] == "ok" else 503
                return status, report
            if path == "/stats":
                if method != "GET":
                    return 405, {"error": f"{method} not allowed on {path}"}
                return 200, self.router.stats_snapshot()
            if path == "/metrics":
                if method != "GET":
                    return 405, {"error": f"{method} not allowed on {path}"}
                # Scraping talks to every shard over the pipes — off
                # the event loop, like solving.  Metrics only: span
                # drains stay with the trace-dump path.
                loop = asyncio.get_running_loop()
                scrape = await loop.run_in_executor(
                    None,
                    functools.partial(
                        self.router.obs_scrape, include_spans=False
                    ),
                )
                return 200, scrape.prometheus_text()
            if path == "/solve_batch":
                if method != "POST":
                    return 405, {"error": f"{method} not allowed on {path}"}
                return 200, await self._solve_batch(body)
            return 404, {"error": f"no such endpoint: {path}"}
        except ServingError as error:
            return 400, {"error": str(error)}
        except Exception as error:  # noqa: BLE001 - last-resort 500
            return 500, {"error": f"{type(error).__name__}: {error}"}

    async def _solve_batch(self, body: bytes) -> Dict[str, Any]:
        """Solve a columnar batch frame posted to ``/solve_batch``.

        The request carries ``{"columnar": frame}`` — the archetype
        table + per-request codes of
        :func:`~repro.serving.cluster.codec.columnar_frame` in JSON
        form — and the response stays columnar: K per-archetype designs
        plus the echoed codes, so an n-subject batch costs O(K) JSON on
        both hops.  The caller fans results out through the codes.
        """
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
            raise ServingError(f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict) or "columnar" not in payload:
            raise ServingError(
                'solve requests need a JSON object with a "columnar" frame'
            )
        frame = frame_from_json(payload["columnar"])
        representatives, fingerprints = subproblems_from_frame(frame)
        expected = self.router.fingerprints(representatives)
        for row, (claimed, actual) in enumerate(zip(fingerprints, expected)):
            if claimed != actual:
                raise ServingError(
                    f"frame row {row} carries fingerprint {claimed!r}, but its "
                    f"fields fingerprint to {actual!r} under this server's mu "
                    "and config"
                )
        loop = asyncio.get_running_loop()
        # Executor threads don't see this task's contextvars, so the
        # request span's context is captured here and handed to the
        # router explicitly — the batch span still parents under it.
        trace_context = (
            Tracer.current_context() if get_tracer().enabled else None
        )
        designs, cache_hits = await loop.run_in_executor(
            None,
            functools.partial(
                self.router.solve_designs,
                representatives,
                fingerprints,
                trace_context=trace_context,
            ),
        )
        encoded = [
            design_to_json(
                subproblem.subject_id,
                design,
                fingerprint=fingerprint,
                cache_hit=hit,
            )
            for subproblem, design, fingerprint, hit in zip(
                representatives, designs, fingerprints, cache_hits
            )
        ]
        return {
            "columnar": True,
            "designs": encoded,
            "codes": np.asarray(frame["codes"], dtype=np.int64).tolist(),
        }

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[Dict[str, Any], str],
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, str):
            # Pre-rendered text body (the /metrics Prometheus page).
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _STATUS_REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


class HTTPServerThread:
    """A :class:`ClusterHTTPServer` on a private loop in a daemon thread.

    Synchronous callers (the CLI, the load generator, tests) start the
    thread, read :attr:`address`, and talk plain HTTP to it.

    Args:
        router: the (started) cluster router to serve from.
        host: bind address.
        port: bind port (``0``: pick a free one).
    """

    def __init__(
        self,
        router: ShardRouter,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.router = router
        self.host = host
        self._requested_port = port
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ClusterHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` the server is bound to (after :meth:`start`)."""
        if self._server is None:
            raise ServingError("HTTP server thread is not running")
        return self._server.address

    def start(self, timeout: float = 10.0) -> "HTTPServerThread":
        """Boot the loop thread and wait for the server to bind."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name="repro-cluster-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServingError("HTTP server thread failed to start in time")
        if self._startup_error is not None:
            raise ServingError(
                f"HTTP server failed to bind: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join the loop thread."""
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=timeout)
        self._loop = None
        self._thread = None
        self._server = None
        self._ready.clear()

    def __enter__(self) -> "HTTPServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = ClusterHTTPServer(
            self.router, host=self.host, port=self._requested_port
        )
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # noqa: BLE001 - surfaced in start()
            self._startup_error = error
            self._ready.set()
            loop.close()
            return
        self._server = server
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(server.stop())
            # Keep-alive handler tasks may still be parked on a read;
            # cancel them so the loop closes without pending work.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()


def run_http_in_thread(
    router: ShardRouter, host: str = "127.0.0.1", port: int = 0
) -> HTTPServerThread:
    """Start a :class:`HTTPServerThread` and return it once bound."""
    return HTTPServerThread(router, host=host, port=port).start()
