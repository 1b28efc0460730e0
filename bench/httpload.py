"""Single-process asyncio load generator for ``POST /predict``.

One event loop in one thread drives a fixed set of keep-alive HTTP/1.1
connections (the benchmark opens two).  Request bodies are encoded
before timing starts, so while it measures the generator only writes bytes
and parses the small answers.

* Closed loop: each connection sends its next request when the previous
  answer arrives, so a slow server receives less load.
* Open loop: requests come due at seeded Poisson offsets.  A request that
  comes due while every connection is busy waits in the generator, and its
  latency is timed from when it was due, so a stall delays every request
  queued behind it.  How late the generator itself woke up for an idle
  connection is recorded separately as lateness.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

import numpy as np

from repro.serve.metrics import percentile
from spans import Tracer


@dataclass
class Outcome:
    """One request as the client saw it (times are ``perf_counter`` seconds)."""

    index: int                  # position in the input pool
    status: int                 # HTTP status; 0 = connection error or timeout
    due: float
    sent: float
    done: float
    output: Optional[list]

    @property
    def latency_ms(self) -> float:
        """From when the request was due to when its answer arrived."""
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        """From when the request was written to when its answer arrived."""
        return (self.done - self.sent) * 1e3


def encode_request(host: str, sample: np.ndarray) -> bytes:
    """The complete ``POST /predict`` request for one input array."""
    body = json.dumps({"input": sample.tolist()}).encode()
    head = (f"POST /predict HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def poisson_offsets(rate: float, seconds: float,
                    seed: Union[int, Sequence[int]]) -> np.ndarray:
    """Seeded Poisson arrival offsets (seconds from phase start) below ``seconds``.

    ``seed`` is anything :func:`numpy.random.default_rng` accepts, such as
    ``(run seed, launch index)``.
    """
    if rate <= 0 or seconds <= 0:
        raise ValueError(f"rate and seconds must be positive, got {rate}, {seconds}")
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * seconds) + 16))
    while offsets[-1] < seconds:
        more = np.cumsum(rng.exponential(1.0 / rate, size=int(rate) + 16))
        offsets = np.concatenate([offsets, offsets[-1] + more])
    return offsets[offsets < seconds]


def latency_summary(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Nearest-rank percentiles (the estimator ``GET /stats`` uses) of answered requests."""
    latencies = [outcome.latency_ms for outcome in outcomes if outcome.status == 200]
    return {"count": len(latencies),
            "p50_ms": percentile(latencies, 50), "p90_ms": percentile(latencies, 90)}


class Connection:
    """One keep-alive HTTP/1.1 connection; reconnects after any failure."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def post(self, request: bytes) -> Tuple[int, bytes]:
        """Send one request; returns (status, body), or (0, b"") on failure."""
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port), self.timeout)
            return await asyncio.wait_for(self._exchange(request), self.timeout)
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError, IndexError):
            await self.close()
            return 0, b""

    async def _exchange(self, request: bytes) -> Tuple[int, bytes]:
        self._writer.write(request)
        await self._writer.drain()
        status = int((await self._reader.readline()).split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


class LoadGenerator:
    """Cycles through pre-encoded requests over ``connections`` connections.

    Request ``k`` of the generator's lifetime sends input ``k mod len(requests)``,
    so consecutive phases keep walking the input pool.
    """

    def __init__(self, url: str, requests: Sequence[bytes], connections: int,
                 timeout: float = 10.0) -> None:
        parts = urlsplit(url)
        self.connections = [Connection(parts.hostname, parts.port, timeout)
                            for _ in range(connections)]
        self.requests = requests
        self._next = 0

    async def close(self) -> None:
        for connection in self.connections:
            await connection.close()

    async def _send(self, connection: Connection, due: float, tracer: Tracer,
                    parent: int) -> Outcome:
        index = self._next % len(self.requests)
        self._next += 1
        sent = time.perf_counter()
        status, body = await connection.post(self.requests[index])
        done = time.perf_counter()
        tracer.record("http.predict", sent, done, parent=parent)
        output = None
        if status == 200:
            try:
                output = json.loads(body)["output"]
            except (ValueError, KeyError, TypeError):
                output = None
        return Outcome(index, status, due, sent, done, output)

    async def closed(self, tracer: Tracer, seconds: float = float("inf"),
                     count: Optional[int] = None, parent: int = 0) -> List[Outcome]:
        """Closed loop until ``seconds`` pass or ``count`` requests were sent."""
        outcomes: List[Outcome] = []
        deadline = time.perf_counter() + seconds
        remaining = count if count is not None else float("inf")

        async def client(connection: Connection) -> None:
            nonlocal remaining
            while remaining > 0 and time.perf_counter() < deadline:
                remaining -= 1
                outcomes.append(await self._send(connection, time.perf_counter(),
                                                 tracer, parent))

        await asyncio.gather(*(client(c) for c in self.connections))
        return outcomes

    async def open(self, offsets: np.ndarray, tracer: Tracer,
                   parent: int = 0) -> Tuple[List[Outcome], List[float]]:
        """Open loop over ``offsets``; returns (outcomes, lateness in ms).

        Lateness is recorded for requests whose connection was already free
        when they came due: any delay before sending them is the generator's.
        """
        outcomes: List[Outcome] = []
        lateness: List[float] = []
        dues = iter(time.perf_counter() + offsets)

        async def client(connection: Connection) -> None:
            free_since = float("-inf")
            # The connections share one schedule: whichever is free takes
            # the next due request, so requests queue in arrival order.
            for due in dues:
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if free_since <= due:
                    lateness.append((time.perf_counter() - due) * 1e3)
                outcome = await self._send(connection, due, tracer, parent)
                outcomes.append(outcome)
                free_since = outcome.done

        await asyncio.gather(*(client(c) for c in self.connections))
        return outcomes, lateness
