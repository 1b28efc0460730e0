"""Latency distributions and outcome counters for the serving data plane.

The first serving PR tracked running means only — fine for spotting a dead
server, useless for capacity work: a mean hides exactly the tail that SLOs
are written about, and MLSYSIM-style capacity models need per-stage latency
*distributions*, not one number.  This module keeps three kinds of state:

* :class:`ReservoirSample` — a fixed-memory uniform sample of a latency
  stream (Vitter's algorithm R) from which p50/p95/p99 are read at any
  moment.  Bounded memory, every request has an equal chance of being in
  the sample, and the RNG is seeded so tests are deterministic.
* :class:`EndpointMetrics` — per-HTTP-endpoint counters + a latency
  reservoir (what the *client* experienced at our front door).
* :class:`StageMetrics` — the pool's per-stage reservoirs: ``queue`` (time
  in the backlog before dispatch), ``transport`` (IPC both ways: frame
  writes, queue hops, response copy-out) and ``compute`` (the worker's
  forward), plus end-to-end ``total``.  Stages are measured as *durations*
  on whichever side owns them, so no cross-process clock comparison is
  ever needed.

Everything serializes into ``GET /stats``; the field set is drift-tested
against ``docs/serving.md`` so the documentation cannot rot.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

#: percentiles every latency summary reports, in order.
PERCENTILES = (50, 95, 99)

#: default reservoir size — large enough that p99 of a steady stream is
#: estimated from ~5 samples above it, small enough to forget about memory.
RESERVOIR_CAPACITY = 512


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (which may be unsorted).

    Nearest-rank (not interpolated) so the result is always a latency that
    actually happened — tails should never be softened by averaging.
    Returns 0.0 for an empty list.
    """
    if not values:
        return 0.0
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(int(-(-q * len(ordered) // 100)), 1)  # ceil without floats
    return ordered[rank - 1]


class ReservoirSample:
    """Uniform fixed-size sample of an unbounded stream (algorithm R).

    Thread-safe; every ``add`` is O(1).  ``seed`` pins the replacement RNG
    so repeated runs sample identically — CI assertions on percentiles stay
    reproducible.
    """

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, seed: int = 17) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._values: List[float] = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.count = 0          # stream length, not sample size
        self.total = 0.0
        self.max_value = 0.0

    def add(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value > self.max_value:
                self.max_value = value
            if len(self._values) < self.capacity:
                self._values.append(value)
                return
            index = self._rng.randrange(self.count)
            if index < self.capacity:
                self._values[index] = value

    def values(self) -> List[float]:
        with self._lock:
            return list(self._values)

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the current sample (0.0 when empty).

        The read side of adaptive control loops — the pipeline-depth
        controller asks a stage reservoir for its p50/p95/p99 on every
        re-target tick.
        """
        return percentile(self.values(), q)

    def percentiles(self, qs: Iterable[float] = PERCENTILES) -> Dict[str, float]:
        values = self.values()
        return {f"p{q:g}": round(percentile(values, q), 3) for q in qs}

    def summary(self) -> Dict[str, Any]:
        """count/mean/max plus the standard percentiles, JSON-ready."""
        with self._lock:
            count, total, max_value = self.count, self.total, self.max_value
            values = list(self._values)
        return {
            "count": count,
            "mean_ms": round(total / count, 3) if count else 0.0,
            "max_ms": round(max_value, 3),
            **{f"p{q:g}_ms": round(percentile(values, q), 3) for q in PERCENTILES},
        }


#: the pool's pipeline stages, in causal order.
STAGES = ("queue", "transport", "compute", "total")


class StageMetrics:
    """Per-stage latency reservoirs for the pool's request pipeline."""

    def __init__(self, capacity: int = RESERVOIR_CAPACITY) -> None:
        self._reservoirs = {stage: ReservoirSample(capacity, seed=11 + i)
                            for i, stage in enumerate(STAGES)}

    def record(self, queue_ms: float, transport_ms: float, compute_ms: float,
               total_ms: float) -> None:
        self._reservoirs["queue"].add(queue_ms)
        self._reservoirs["transport"].add(transport_ms)
        self._reservoirs["compute"].add(compute_ms)
        self._reservoirs["total"].add(total_ms)

    def stage(self, name: str) -> ReservoirSample:
        return self._reservoirs[name]

    def to_dict(self) -> Dict[str, Any]:
        return {stage: reservoir.summary()
                for stage, reservoir in self._reservoirs.items()}


class EndpointMetrics:
    """Counters + latency distribution for one endpoint."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0       # 4xx: the caller's fault
        self.failures = 0     # 5xx: our fault
        self.shed = 0         # backpressure rejections (429 budget + 503 load)
        self.reservoir = ReservoirSample()

    def record(self, latency_ms: float, status: int, shed: bool = False) -> None:
        with self._lock:
            self.requests += 1
            if 400 <= status < 500:
                self.errors += 1
            elif status >= 500:
                self.failures += 1
            if shed:
                self.shed += 1
        self.reservoir.add(latency_ms)

    def to_dict(self) -> Dict[str, Any]:
        latency = self.reservoir.summary()
        with self._lock:
            return {
                "requests": self.requests,
                "errors_4xx": self.errors,
                "failures_5xx": self.failures,
                "shed": self.shed,
                "mean_ms": latency["mean_ms"],
                "max_ms": latency["max_ms"],
                "p50_ms": latency["p50_ms"],
                "p95_ms": latency["p95_ms"],
                "p99_ms": latency["p99_ms"],
            }


class ServingMetrics:
    """All endpoint counters plus uptime/throughput for ``GET /stats``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: Dict[str, EndpointMetrics] = {}
        self.started_at = time.time()

    def endpoint(self, name: str) -> EndpointMetrics:
        with self._lock:
            metrics = self._endpoints.get(name)
            if metrics is None:
                metrics = self._endpoints[name] = EndpointMetrics(name)
            return metrics

    def to_dict(self) -> Dict[str, Any]:
        uptime = time.time() - self.started_at
        with self._lock:
            endpoints = {name: metrics.to_dict()
                         for name, metrics in sorted(self._endpoints.items())}
        predict = endpoints.get("/predict", {})
        served = predict.get("requests", 0)
        return {
            "uptime_seconds": round(uptime, 3),
            "throughput_rps": round(served / uptime, 3) if uptime > 0 else 0.0,
            "endpoints": endpoints,
        }


class StageClock:
    """Tiny helper for measuring one duration on whichever side owns it."""

    __slots__ = ("started",)

    def __init__(self) -> None:
        self.started = time.perf_counter()

    def ms(self) -> float:
        return (time.perf_counter() - self.started) * 1000.0


def split_batch_timings(compute_ms: Optional[List[float]], size: int) -> List[float]:
    """Per-request compute times for a batch, tolerant of lossy workers.

    Workers report one compute duration per request; a frame that carries
    another count (or none) still gives every request a share.
    """
    if not compute_ms:
        return [0.0] * size
    if len(compute_ms) == size:
        return list(compute_ms)
    share = sum(compute_ms) / size
    return [share] * size
