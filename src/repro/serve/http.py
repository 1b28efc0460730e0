"""Async (asyncio) HTTP front door over the worker pool.

Three endpoints, all JSON:

* ``POST /predict`` — body ``{"input": <nested list>}`` shaped like the
  spec's ``data.input_shape``.  Answers ``{"output": [...], "cached": bool}``.
  Malformed JSON, a wrong shape or a malformed ``Content-Length`` (any
  endpoint; the connection then closes) is ``400``.  A ``Content-Length``
  over the body cap the app derives from its input shape is ``413``; more
  than ``MAX_HEADER_LINES`` header lines, or a request or header line over
  ``MAX_LINE_BYTES``, is ``431``.  Both close the connection unread, and are
  counted under the ``other`` endpoint like the ``400``.  Over the latency budget is
  ``429`` with a ``Retry-After`` header (admission control — the client's
  load, not our failure); a saturated pool or a draining server is ``503``
  (load shedding); a worker failure that exhausted its retries is ``500``.
* ``GET /healthz`` — ``200 {"status": "ok"}`` while serving, ``503`` with
  ``"draining"``/``"unhealthy"`` while shutting down or with dead workers.
  A pool over its latency *budget* stays ``200``: busy is not broken.
* ``GET /stats`` — cache, per-endpoint latency percentiles, pool counters
  (transport/assembly fallbacks, the adaptive ``pipeline`` depth subtree,
  per-stage latency reservoirs, and the ``secure`` accounting section).

The server is a single-threaded :func:`asyncio.start_server` loop running in
one background thread.  Handlers do no inference — they parse, consult the
LRU cache, submit to the pool and ``await`` the answer, so thousands of
connections can wait on the pool with no thread per connection (the old
``ThreadingHTTPServer`` spent one OS thread per in-flight request, and its
thread wake-ups were a measurable slice of the p99).  The bridge from the
pool's dispatcher thread back into the loop is
:meth:`~repro.serve.pool.PoolFuture.add_done_callback` →
``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .admission import AdmissionRejected
from .cache import LRUCache, input_digest
from .config import ServeConfig
from .metrics import ServingMetrics
from .pool import PoolClosed, PoolFuture, PoolSaturated, WorkerCrashed, WorkerPool

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Content Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: Header lines one request may carry (``http.client`` accepts as many).
MAX_HEADER_LINES = 100
#: Longest request or header line, in bytes: the stream reader's limit.
MAX_LINE_BYTES = 1 << 16
#: A ``POST /predict`` body may spend this many bytes per input element, plus
#: one line-length of envelope: room for any float32 pretty-printed by
#: ``json.dumps(..., indent=4)``.
BODY_BYTES_PER_ELEMENT = 64


class ServingApp:
    """Transport-free request handling: parse → cache → pool → JSON.

    Separated from the HTTP plumbing so tests (and in-process callers like
    ``ServingServer.predict``) can drive the exact request path without a
    socket.  The blocking entry points (:meth:`predict_array`,
    :meth:`predict_payload`) and the async ones the front door uses share
    all their validation and error mapping.
    """

    def __init__(self, pool: WorkerPool, input_shape: Tuple[int, ...],
                 config: Optional[ServeConfig] = None) -> None:
        self.pool = pool
        self.input_shape = tuple(input_shape)
        #: The largest request body the front door reads (``413`` above it).
        self.max_body_bytes = (MAX_LINE_BYTES + BODY_BYTES_PER_ELEMENT
                               * int(np.prod(self.input_shape)))
        self.config = config or getattr(pool, "config", ServeConfig())
        self.cache = LRUCache(self.config.cache_size)
        self.metrics = ServingMetrics()
        self.draining = False

    # ----------------------------------------------------------------- /predict
    def predict_array(self, sample: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Answer one sample through cache + pool; returns (output, cached)."""
        sample = np.asarray(sample, dtype=np.float32)
        key = input_digest(sample)
        cached = self.cache.get(key)
        if cached is not None:
            return cached, True
        output = np.asarray(self.pool.predict(sample))
        return self._finish(key, output), False

    async def predict_array_async(self, sample: np.ndarray) -> Tuple[np.ndarray, bool]:
        """:meth:`predict_array` without blocking the event loop."""
        sample = np.asarray(sample, dtype=np.float32)
        key = input_digest(sample)
        cached = self.cache.get(key)
        if cached is not None:
            return cached, True
        future = self.pool.submit(sample)      # admission/watermark raise here
        output = np.asarray(await asyncio.wait_for(
            _awaitable(future), timeout=self.config.request_timeout))
        return self._finish(key, output), False

    def _finish(self, key: str, output: np.ndarray) -> np.ndarray:
        # The same array is handed to the caller and kept by the cache, so
        # freeze it — a caller mutating its result would otherwise silently
        # corrupt every future cache hit for this input.
        output.setflags(write=False)
        self.cache.put(key, output)
        return output

    def _parse(self, payload: Any):
        """Shared validation; returns (sample, None) or (None, (status, body))."""
        if self.draining:
            return None, (503, {"error": "server is draining; no new requests accepted"})
        if not isinstance(payload, dict) or "input" not in payload:
            return None, (400, {"error": 'request body must be a JSON object {"input": [...]}'})
        try:
            sample = np.asarray(payload["input"], dtype=np.float32)
        except (TypeError, ValueError) as error:
            return None, (400, {"error": f"could not parse 'input' as a float array: {error}"})
        if sample.shape != self.input_shape:
            return None, (400, {"error": f"'input' has shape {list(sample.shape)}; this model "
                                         f"serves shape {list(self.input_shape)}"})
        return sample, None

    @staticmethod
    def _error_response(error: BaseException) -> Tuple[int, Dict[str, Any]]:
        if isinstance(error, AdmissionRejected):
            return 429, {"error": f"over latency budget: {error}",
                         "estimated_wait_ms": round(error.estimated_wait_ms, 3),
                         "budget_ms": error.budget_ms,
                         "retry_after_s": error.retry_after_s}
        if isinstance(error, PoolSaturated):
            return 503, {"error": f"overloaded: {error}"}
        if isinstance(error, PoolClosed):
            return 503, {"error": f"shutting down: {error}"}
        return 500, {"error": f"{type(error).__name__}: {error}"}

    def predict_payload(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """The full ``POST /predict`` semantics; returns (status, body)."""
        sample, failure = self._parse(payload)
        if failure is not None:
            return failure
        try:
            output, was_cached = self.predict_array(sample)
        except (AdmissionRejected, PoolSaturated, PoolClosed, WorkerCrashed,
                TimeoutError, RuntimeError) as error:
            return self._error_response(error)
        return 200, {"output": np.asarray(output).tolist(), "cached": was_cached}

    async def predict_payload_async(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """What the async front door calls for ``POST /predict``."""
        sample, failure = self._parse(payload)
        if failure is not None:
            return failure
        try:
            output, was_cached = await self.predict_array_async(sample)
        except (AdmissionRejected, PoolSaturated, PoolClosed, WorkerCrashed,
                TimeoutError, asyncio.TimeoutError, RuntimeError) as error:
            return self._error_response(error)
        return 200, {"output": np.asarray(output).tolist(), "cached": was_cached}

    # ----------------------------------------------------------------- /healthz
    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        alive = self.pool.alive_workers()
        total = self.config.workers
        if self.draining:
            return 503, {"status": "draining", "workers_alive": alive,
                         "workers_total": total}
        if alive == 0 or not self.pool.accepting:
            return 503, {"status": "unhealthy", "workers_alive": alive,
                         "workers_total": total}
        return 200, {"status": "ok", "workers_alive": alive, "workers_total": total}

    # ------------------------------------------------------------------- /stats
    def stats(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "serving": self.metrics.to_dict(),
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
            "draining": self.draining,
        }


def _awaitable(future: PoolFuture) -> "asyncio.Future":
    """Bridge a :class:`PoolFuture` into the running event loop.

    The pool settles futures on its dispatcher thread; the only thread-safe
    way into asyncio is ``call_soon_threadsafe``, so the done-callback hops
    the result across.
    """
    loop = asyncio.get_running_loop()
    aio_future = loop.create_future()

    def _settle() -> None:
        if aio_future.done():          # wait_for cancelled it already
            return
        try:
            aio_future.set_result(future.result(timeout=0))
        except BaseException as error:  # noqa: BLE001 — forwarded, not handled
            aio_future.set_exception(error)

    future.add_done_callback(lambda _: loop.call_soon_threadsafe(_settle))
    return aio_future


class _Refused(Exception):
    """A request the front door answers without reading, then hangs up on."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:          # the reader's limit: MAX_LINE_BYTES
        raise _Refused(431, f"request or header line longer than "
                            f"{MAX_LINE_BYTES} bytes") from None


class AsyncFrontDoor:
    """One listening socket, one event loop, one background thread.

    The socket is bound synchronously in ``__init__`` so an address conflict
    surfaces as :class:`OSError` in the caller (and the pool can be torn
    down) instead of dying later inside the serving thread.  Connections are
    plain HTTP/1.1 with keep-alive — enough for ``urllib``, ``http.client``
    and every load generator in this repo, with zero dependencies.
    """

    def __init__(self, app: ServingApp, host: str, port: int) -> None:
        self.app = app
        self._sock = socket.create_server((host, port), backlog=128)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> "AsyncFrontDoor":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-http")
        self._thread.start()
        if not self._started.wait(10.0):
            raise RuntimeError("HTTP front door failed to start within 10s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(self._serve_connection,
                                                sock=self._sock,
                                                limit=MAX_LINE_BYTES)
        except BaseException as error:  # surface in start(), not a dead thread
            self._startup_error = error
            self._started.set()
            return
        self._started.set()
        await self._stop.wait()
        server.close()
        await server.wait_closed()
        # Cancel lingering keep-alive connections so the loop closes clean.
        tasks = [task for task in asyncio.all_tasks()
                 if task is not asyncio.current_task()]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    def shutdown(self, timeout: float = 5.0) -> None:
        if self._loop is not None and self._stop is not None \
                and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:     # loop already closed between checks
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        with contextlib.suppress(OSError):
            self._sock.close()

    # --------------------------------------------------------------- connection
    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request_line = await _read_line(reader)
                    if not request_line or request_line in (b"\r\n", b"\n"):
                        break
                    started = time.perf_counter()
                    try:
                        method, path, version = request_line.decode("latin-1").split()
                    except ValueError:
                        break                  # not HTTP; hang up
                    headers = await self._read_headers(reader)
                    body = await reader.readexactly(self._body_length(headers))
                except _Refused as refused:
                    # No later byte on this connection can be framed as a
                    # request: answer and hang up.  Only the answer is timed.
                    started = time.perf_counter()
                    endpoint, status, extra, close = "other", refused.status, [], True
                    payload = {"error": str(refused)}
                else:
                    endpoint, status, payload, extra = await self._route(method, path, body)
                    close = (headers.get("connection", "").lower() == "close"
                             or version == "HTTP/1.0")
                await self._respond(writer, status, payload, extra, close)
                latency_ms = (time.perf_counter() - started) * 1000.0
                self.app.metrics.endpoint(endpoint).record(
                    latency_ms, status,
                    shed=endpoint == "/predict" and status in (429, 503))
                if close:
                    break
        except (asyncio.IncompleteReadError, asyncio.CancelledError,
                ConnectionError, TimeoutError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
            # A shutdown-time cancel can land on this await; CancelledError is
            # a BaseException, so suppress it explicitly — the task must end
            # *finished*, not *cancelled*, or asyncio's stream protocol logs a
            # spurious traceback when its done-callback inspects the task.
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    @staticmethod
    async def _read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        for _ in range(MAX_HEADER_LINES + 1):
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                return headers
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raise _Refused(431, f"more than {MAX_HEADER_LINES} header lines")

    def _body_length(self, headers: Dict[str, str]) -> int:
        length = headers.get("content-length") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _Refused(400, f"malformed Content-Length: {length!r}")
        if int(length) > self.app.max_body_bytes:
            raise _Refused(413, f"Content-Length {length} exceeds this model's "
                                f"limit of {self.app.max_body_bytes} bytes")
        return int(length)

    async def _route(self, method: str, path: str, body: bytes):
        """Dispatch one request; returns (endpoint, status, payload, headers)."""
        if method == "GET" and path == "/healthz":
            status, payload = self.app.healthz()
            return "/healthz", status, payload, []
        if method == "GET" and path == "/stats":
            status, payload = self.app.stats()
            return "/stats", status, payload, []
        if method == "POST" and path == "/predict":
            try:
                parsed = json.loads(body or b"")
            except (TypeError, ValueError) as error:
                return "/predict", 400, \
                    {"error": f"request body is not valid JSON: {error}"}, []
            status, payload = await self.app.predict_payload_async(parsed)
            extra: List[Tuple[str, str]] = []
            if status == 429:
                extra.append(("Retry-After", str(payload.get("retry_after_s", 1))))
            return "/predict", status, payload, extra
        # Metrics-bucket unknown paths under one key: per-path entries would
        # let a fuzzer grow the counter map without bound.
        return "other", 404, {"error": f"no such endpoint: {path}"}, []

    @staticmethod
    async def _respond(writer: asyncio.StreamWriter, status: int,
                       payload: Dict[str, Any], extra: List[Tuple[str, str]],
                       close: bool) -> None:
        data = json.dumps(payload).encode()
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 "Server: repro-serve",
                 "Content-Type: application/json",
                 f"Content-Length: {len(data)}"]
        lines.extend(f"{name}: {value}" for name, value in extra)
        lines.append("Connection: close" if close else "Connection: keep-alive")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data)
        await writer.drain()


class ServingServer:
    """The deployable unit: worker pool + HTTP front door, one lifecycle.

    Built by :meth:`repro.experiment.Experiment.serve` and the ``repro
    serve`` CLI.  Construction is cheap; :meth:`start` spawns the workers,
    waits until they are ready, and binds the HTTP socket.

    Example
    -------
    >>> server = experiment.serve(workers=2, port=0)   # port 0: OS-assigned
    >>> with server:                                   # start() ... close()
    ...     print(server.url)                          # http://127.0.0.1:PORT
    ...     out = server.predict(sample)               # in-process request path
    """

    def __init__(self, spec, state: Optional[Dict[str, np.ndarray]] = None,
                 config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.pool = WorkerPool(spec, state=state, config=self.config)
        self.app: Optional[ServingApp] = None
        self._door: Optional[AsyncFrontDoor] = None
        self._input_shape = self._infer_input_shape(self.pool.spec_dict)
        self._closed = False

    @staticmethod
    def _infer_input_shape(spec_dict: Dict[str, Any]) -> Tuple[int, ...]:
        from ..experiment import ExperimentSpec

        return tuple(ExperimentSpec.from_dict(spec_dict).data.input_shape)

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> "ServingServer":
        """Start workers, then bind and serve HTTP in a background thread."""
        if self._closed:
            raise RuntimeError("this server has been closed; build a new one")
        if self._door is not None:
            return self
        self.pool.start()
        try:
            self.app = ServingApp(self.pool, self._input_shape, self.config)
            self._door = AsyncFrontDoor(self.app, self.config.host,
                                        self.config.port).start()
        except BaseException:
            # e.g. EADDRINUSE — the already-running workers must not leak.
            self.pool.close(timeout=5.0)
            raise
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (meaningful once started; resolves ``port=0``)."""
        if self._door is None:
            return self.config.port
        return self._door.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def predict(self, sample: np.ndarray) -> np.ndarray:
        """In-process request through the exact cache + pool path HTTP uses."""
        if self.app is None:
            raise RuntimeError("server not started; call start() first")
        output, _ = self.app.predict_array(sample)
        return output

    def drain(self, wait: bool = True, timeout: Optional[float] = None) -> bool:
        """Flip /healthz to draining, stop admissions, optionally wait empty."""
        if self.app is not None:
            self.app.draining = True
        if not wait:
            self.pool.stop_accepting()
            return False
        return self.pool.drain(timeout=timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Drain, stop the HTTP listener, shut the pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.drain(wait=True, timeout=min(timeout, self.config.drain_timeout))
        if self._door is not None:
            self._door.shutdown()
        self.pool.close(timeout=timeout)

    def __enter__(self) -> "ServingServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("serving" if self._door else "new")
        return f"ServingServer({self.url}, workers={self.config.workers}, {state})"
