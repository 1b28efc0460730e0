"""The benchmark's load generator: seeded schedules, due-time latency, percentiles."""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from httpload import (LoadGenerator, Outcome, encode_request,  # noqa: E402
                      latency_summary, poisson_offsets)
from spans import Tracer  # noqa: E402

from repro.serve.metrics import percentile  # noqa: E402


def test_poisson_schedule_repeats_for_a_seed():
    first = poisson_offsets(120.0, 5.0, seed=7)
    assert np.array_equal(first, poisson_offsets(120.0, 5.0, seed=7))
    assert not np.array_equal(first, poisson_offsets(120.0, 5.0, seed=8))
    assert np.all(np.diff(first) > 0) and first[-1] < 5.0
    assert abs(len(first) - 600) < 100          # ~rate x seconds arrivals


def test_percentiles_are_the_servers_nearest_rank_estimator():
    rng = np.random.default_rng(3)
    outcomes = [Outcome(i, 200, 0.0, 0.0, float(t), [0.0])
                for i, t in enumerate(rng.exponential(0.01, size=257))]
    outcomes.append(Outcome(257, 0, 0.0, 0.0, 99.0, None))       # failures are excluded
    latencies = [o.latency_ms for o in outcomes[:-1]]
    summary = latency_summary(outcomes)
    assert summary["count"] == 257
    assert summary["p50_ms"] == percentile(latencies, 50)
    assert summary["p90_ms"] == percentile(latencies, 90)


async def _start_stalling_server(stall_s: float):
    """A minimal keep-alive HTTP server whose first answer takes ``stall_s``."""
    answered = 0

    async def handle(reader, writer):
        nonlocal answered
        try:
            while await reader.readline():
                length = 0
                while (header := await reader.readline()) not in (b"\r\n", b""):
                    name, _, value = header.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                await reader.readexactly(length)
                answered += 1
                if answered == 1:
                    await asyncio.sleep(stall_s)
                body = b'{"output": [1.0]}'
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s"
                             % (len(body), body))
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_a_stall_inflates_the_latency_of_requests_due_behind_it():
    stall_s = 0.3
    offsets = np.array([0.0, 0.05, 0.10, 0.15])

    async def scenario():
        server = await _start_stalling_server(stall_s)
        port = server.sockets[0].getsockname()[1]
        generator = LoadGenerator(f"http://127.0.0.1:{port}",
                                  [encode_request("127.0.0.1", np.zeros(2))], connections=1)
        try:
            return await generator.open(offsets, Tracer(False))
        finally:
            await generator.close()
            server.close()
            await server.wait_closed()

    outcomes, lateness = asyncio.run(scenario())
    assert [o.status for o in outcomes] == [200] * 4
    assert [o.output for o in outcomes] == [[1.0]] * 4
    start = outcomes[0].due
    for outcome, offset in zip(outcomes[1:], offsets[1:]):
        assert abs(outcome.due - start - offset) < 1e-6
        # Queued behind the stall: timed from its due time, not from sending.
        assert outcome.latency_ms >= 0.95 * (stall_s - offset) * 1e3
        assert outcome.service_ms < outcome.latency_ms
    # Only the first request found the connection idle when it came due.
    assert len(lateness) == 1
