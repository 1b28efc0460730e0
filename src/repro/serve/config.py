"""Declarative configuration for the scale-out serving subsystem.

One :class:`ServeConfig` value describes everything about a deployment that
is *not* the model: how many worker processes to run, how deep their request
queues may grow, when the front door starts shedding load, and how the HTTP
endpoint binds.  Like the experiment specs, it is a plain dataclass that
round-trips through dicts so the CLI, :meth:`repro.experiment.Experiment.serve`
and the tests all configure the same machinery the same way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict

#: Start methods the pool accepts.  ``spawn`` is the default everywhere: it
#: never inherits the parent's threads (the parent may be running predictor
#: worker threads or HTTP handler threads, which make ``fork`` unsafe), at the
#: cost of re-importing the library in each worker (~0.5 s).
START_METHODS = ("spawn", "fork", "forkserver")


@dataclass
class ServeConfig:
    """Knobs of the worker pool and its HTTP front door.

    Parameters
    ----------
    workers : int
        Worker processes in the pool.  Each rebuilds and compiles its own
        model, so throughput scales with cores.
    max_batch_size : int
        Largest batch the pool cuts from its backlog for one worker.
    max_wait : float
        Coalescing window (seconds) the capacity planner
        (:meth:`~repro.experiment.Experiment.plan`) assumes.  The pool's
        continuous batcher itself never waits on a timer.
    queue_depth : int
        Bound of each worker's request queue.  A full queue is backpressure:
        the dispatcher refuses the request instead of buffering unboundedly.
    watermark : int
        Load-shedding threshold on requests in flight across the whole pool.
        Once reached, new submissions raise :class:`~repro.serve.PoolSaturated`
        (the HTTP layer answers ``503``).  ``0`` picks the default
        ``workers * queue_depth``.
    max_retries : int
        How many times a request orphaned by a worker crash is retried on a
        respawned/other worker before the error is surfaced to the caller.
    request_timeout, startup_timeout, drain_timeout : float
        Seconds to wait for (respectively) one prediction, all workers to
        report ready, and in-flight requests to finish during shutdown.
    start_method : str
        ``multiprocessing`` start method; see :data:`START_METHODS`.
    host, port :
        HTTP bind address.  ``port=0`` asks the OS for a free port (the bound
        port is available as ``ServingServer.port``).
    cache_size : int
        Entries in the front door's LRU response cache (``0`` disables it).
    backend : str
        Compute backend each worker compiles its model with (a
        :mod:`repro.backends` registry name: ``numpy`` or ``threaded``).
        The default is the reference engine; ``threaded`` makes each worker
        use every core, so pair it with a small ``workers``.
    latency_budget_ms : float
        Admission-control budget: reject a request (HTTP ``429`` with
        ``Retry-After``) when its estimated queue wait exceeds this many
        milliseconds.  ``0`` disables admission control.
    shm_slots, shm_slot_bytes : int
        Geometry of each worker's shared-memory rings.  ``0`` (default)
        sizes them automatically: enough slots for the dispatch pipeline,
        slots big enough for one ``max_batch_size`` input batch.
    secure : bool
        Serve int64 fixed-point inference under hybrid-protocol semantics
        (:mod:`repro.ppml.runtime`) instead of the float path.  Workers
        host a :class:`~repro.ppml.SecurePredictor`, a warm-up traced
        forward sizes the offline triple pools, and every request debits
        them.
    protocol : str
        Hybrid protocol the secure trace is costed under (``delphi``,
        ``gazelle``, ``cryptonets``).  ``""`` (default) defers to the
        experiment spec's ``ppml.protocol``.
    frac_bits : int
        Fixed-point fractional bits of the secure runtime
        (1..\\ :data:`repro.ppml.fixedpoint.MAX_FRAC_BITS`).
    truncation : str
        Post-multiplication rescaling mode — one of
        :data:`repro.ppml.fixedpoint.TRUNCATION_MODES`.  ``nearest`` (the
        default) is deterministic, so served answers stay bit-identical to
        the single-process :meth:`~repro.experiment.Experiment.secure_predictor`.
    strategy : str
        PPML-friendly conversion applied before secure compilation
        (``square``, ``quadratic``, ``quadratic_no_relu``); ``""`` defers
        to the spec's ``ppml.strategy`` and ``none`` serves the model
        unconverted (ReLUs run as garbled comparisons).
    triple_pool_depth : int
        Target depth of each offline pool in *request quanta* (one quantum
        = all the Beaver triples and garbled labels one request consumes).
        ``0`` (default) auto-sizes to cover the dispatch pipeline at its
        maximum adaptive depth:
        ``workers * effective_max_pipeline_depth * max_batch_size``.
    pipeline_depth : int
        Batches in flight per worker.  ``0`` (default) lets each worker's
        :class:`~repro.serve.batching.PipelineController` adapt the depth
        within [:data:`~repro.serve.batching.MIN_PIPELINE_DEPTH`,
        :data:`~repro.serve.batching.MAX_PIPELINE_DEPTH`] from measured
        stage percentiles; a non-zero value pins it.
    """

    workers: int = 2
    max_batch_size: int = 8
    max_wait: float = 0.002
    queue_depth: int = 32
    watermark: int = 0
    max_retries: int = 1
    request_timeout: float = 30.0
    startup_timeout: float = 60.0
    drain_timeout: float = 30.0
    start_method: str = "spawn"
    host: str = "127.0.0.1"
    port: int = 8100
    cache_size: int = 256
    backend: str = "numpy"
    latency_budget_ms: float = 0.0
    shm_slots: int = 0
    shm_slot_bytes: int = 0
    secure: bool = False
    protocol: str = ""
    frac_bits: int = 12
    truncation: str = "nearest"
    strategy: str = ""
    triple_pool_depth: int = 0
    pipeline_depth: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        for name in ("request_timeout", "startup_timeout", "drain_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.watermark < 0:
            raise ValueError(f"watermark must be >= 0 (0 = auto), got {self.watermark}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.start_method not in START_METHODS:
            raise ValueError(
                f"start_method must be one of {START_METHODS}, got '{self.start_method}'")
        if self.latency_budget_ms < 0:
            raise ValueError(f"latency_budget_ms must be >= 0 (0 = disabled), "
                             f"got {self.latency_budget_ms}")
        for name in ("shm_slots", "shm_slot_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0 (0 = auto), "
                                 f"got {getattr(self, name)}")
        from ..backends import backend_names  # lazy: keep config import-light

        if self.backend not in backend_names():
            raise ValueError(
                f"unknown backend '{self.backend}'; registered backends: "
                f"{', '.join(backend_names())}")

        # Secure knobs mirror the PPML spec's validation so one ServeConfig
        # is the single source of truth for `repro serve --secure`.
        from ..ppml.fixedpoint import MAX_FRAC_BITS, TRUNCATION_MODES  # lazy
        from ..ppml.protocols import available_protocols  # lazy

        if not 1 <= self.frac_bits <= MAX_FRAC_BITS:
            raise ValueError(
                f"frac_bits must be in 1..{MAX_FRAC_BITS}, got {self.frac_bits}")
        if self.truncation not in TRUNCATION_MODES:
            raise ValueError(
                f"truncation must be one of {TRUNCATION_MODES}, got '{self.truncation}'")
        if self.protocol and self.protocol not in available_protocols():
            raise ValueError(
                f"unknown protocol '{self.protocol}'; available: "
                f"{', '.join(available_protocols())}")
        valid_strategies = ("", "none", "square", "quadratic", "quadratic_no_relu")
        if self.strategy not in valid_strategies:
            raise ValueError(
                f"strategy must be one of {valid_strategies[1:]} (or '' = spec "
                f"default), got '{self.strategy}'")
        if self.triple_pool_depth < 0:
            raise ValueError(f"triple_pool_depth must be >= 0 (0 = auto), "
                             f"got {self.triple_pool_depth}")
        from .batching import MAX_PIPELINE_DEPTH, MIN_PIPELINE_DEPTH  # lazy

        if self.pipeline_depth and not (
                MIN_PIPELINE_DEPTH <= self.pipeline_depth <= MAX_PIPELINE_DEPTH):
            raise ValueError(
                f"pipeline_depth must be 0 (adaptive) or in "
                f"{MIN_PIPELINE_DEPTH}..{MAX_PIPELINE_DEPTH}, "
                f"got {self.pipeline_depth}")
        if self.pipeline_depth < 0:
            raise ValueError(f"pipeline_depth must be >= 0 (0 = adaptive), "
                             f"got {self.pipeline_depth}")

    @property
    def effective_watermark(self) -> int:
        """The in-flight ceiling actually enforced (resolves ``watermark=0``)."""
        return self.watermark if self.watermark > 0 else self.workers * self.queue_depth

    @property
    def effective_max_pipeline_depth(self) -> int:
        """The deepest per-worker pipeline this deployment can reach — the
        pinned ``pipeline_depth`` when set, else the adaptive ceiling.  Ring
        and triple-pool sizing must cover this, not the default depth."""
        if self.pipeline_depth > 0:
            return self.pipeline_depth
        from .batching import MAX_PIPELINE_DEPTH  # lazy: avoid an import cycle

        return MAX_PIPELINE_DEPTH

    @property
    def effective_triple_pool_depth(self) -> int:
        """The offline pool depth actually targeted (resolves ``0`` = auto to
        one request quantum per slot of the dispatch pipeline at its maximum
        reachable depth)."""
        if self.triple_pool_depth > 0:
            return self.triple_pool_depth
        return self.workers * self.effective_max_pipeline_depth * self.max_batch_size

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServeConfig":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown ServeConfig field(s) {unknown}; valid: {sorted(known)}")
        return cls(**data)

    def with_(self, **changes: Any) -> "ServeConfig":
        return dataclasses.replace(self, **changes)
