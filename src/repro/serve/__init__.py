"""``repro.serve`` — scale-out serving: zero-copy data plane + async front door.

PR 2's :class:`~repro.inference.BatchedPredictor` made one process fast;
this package makes N of them a service.  A :class:`WorkerPool` shards
inference across worker processes (each rebuilds the model from the spec
and weights it receives over IPC and compiles it), with:

* a **zero-copy transport** — per-worker shared-memory ring buffers
  (:mod:`repro.serve.shm`) carry the tensors; only ~100-byte control frames
  are pickled.  A frame that does not fit a slot travels inline through the
  queues instead, with the same bits.
* **continuous cross-request batching** (:mod:`repro.serve.batching`) — one
  pool-wide FIFO backlog; batches are cut for whichever worker has capacity,
  growing with load instead of waiting on a timer.
* **latency-budget admission control** (:mod:`repro.serve.admission`) —
  requests predicted to wait longer than ``latency_budget_ms`` are shed
  with HTTP ``429`` + ``Retry-After`` before they ever queue.
* crash respawn with slot reclamation and front-of-backlog request retry.
* **secure serving** (``ServeConfig(secure=True)``) — workers host
  :class:`repro.ppml.SecurePredictor` instances (int64 fixed-point
  hybrid-protocol inference); a traced warm-up forward sizes the offline
  Beaver-triple / garbled-label pools (:mod:`repro.ppml.offline`), the
  batcher only co-batches requests sharing a (protocol, frac_bits,
  truncation) configuration, and every dispatch debits the pools.

:class:`ServingServer` puts an asyncio HTTP front door on top:
``POST /predict`` with an LRU response cache, ``GET /healthz`` (flips to 503
while draining) and ``GET /stats`` (p50/p95/p99 per endpoint and per
pipeline stage; plus the ``secure`` accounting section when serving
securely).

Example
-------
>>> from repro.experiment import Experiment, get_preset
>>> exp = Experiment(get_preset("smoke"))
>>> exp.build()
>>> with exp.serve(workers=2, port=0) as server:
...     out = server.predict(sample)        # same path as POST /predict
...     print(server.url)                   # point curl here

Entry points: :meth:`repro.experiment.Experiment.serve` — one call for both
modes (``serve(secure=True)`` flips to fixed-point serving) — and the
``repro serve <spec|preset> --workers N --port P [--secure ...]`` CLI
subcommand.
"""

from .admission import AdmissionController, AdmissionRejected, littles_law_wait_ms
from .batching import (
    DEFAULT_PIPELINE_DEPTH,
    MAX_PIPELINE_DEPTH,
    MIN_PIPELINE_DEPTH,
    PipelineController,
    RequestBacklog,
    coalescing_key,
    ring_slots,
)
from .cache import LRUCache, input_digest
from .config import ServeConfig
from .http import AsyncFrontDoor, ServingApp, ServingServer
from .metrics import (
    EndpointMetrics,
    ReservoirSample,
    ServingMetrics,
    StageMetrics,
    percentile,
)
from .pool import (
    PoolClosed,
    PoolFuture,
    PoolSaturated,
    WorkerCrashed,
    WorkerPool,
)
from .shm import RingFull, ShmFrame, ShmRing, StaleFrame, WorkerRings
from .worker import build_serving_predictor, worker_main

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "littles_law_wait_ms",
    "DEFAULT_PIPELINE_DEPTH",
    "MAX_PIPELINE_DEPTH",
    "MIN_PIPELINE_DEPTH",
    "PipelineController",
    "RequestBacklog",
    "coalescing_key",
    "ring_slots",
    "LRUCache",
    "input_digest",
    "ServeConfig",
    "AsyncFrontDoor",
    "ServingApp",
    "ServingServer",
    "EndpointMetrics",
    "ReservoirSample",
    "ServingMetrics",
    "StageMetrics",
    "percentile",
    "PoolClosed",
    "PoolFuture",
    "PoolSaturated",
    "WorkerCrashed",
    "WorkerPool",
    "RingFull",
    "ShmFrame",
    "ShmRing",
    "StaleFrame",
    "WorkerRings",
    "build_serving_predictor",
    "worker_main",
]
