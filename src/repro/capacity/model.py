"""The capacity model: first-principles serving predictions for one deployment.

A :class:`CapacityModel` combines the three ingredient measurements —

* what one request *is* (:class:`~repro.capacity.workload.RequestWork`:
  per-layer MACs bucketed by kernel class, payload bytes),
* what this host *sustains* (:class:`~repro.backends.KernelRates`: measured
  kernel slopes plus dispatch/IPC/copy overheads),
* how the deployment is *shaped* (:class:`~repro.serve.ServeConfig`:
  workers, batching window, secure knobs),

— into one :class:`CapacityPlan`: predicted per-request service time,
sustainable throughput, p50/p99 latency at an offered QPS, and the worker
count a target QPS requires.  No serving benchmark is run to produce a
plan; the benches (``bench_serving_scaleout.py``, ``bench_secure_serving.py``)
*validate* plans against measurements instead.

Model structure
---------------
Service time of one request in a coalesced batch of ``B``::

    S(B) = compute + copy + dispatch + (ipc per batch) / B

``compute`` prices the request's MAC/op counts with the measured kernel
slopes.  The pool always executes in *exact mode* (every request runs as
its own batch-of-1 forward — see :class:`repro.serve.worker.ResponseArena`),
so compute and per-step dispatch do **not** amortize with batching; only the
per-batch control traffic (queue round trips) does.  The expected batch
size under Poisson arrivals at rate λ with coalescing window ``w`` is
``B = 1 + λ·w`` (the opener plus the arrivals that land inside its
window), clamped to ``max_batch_size``.

The pool itself is an M/M/c system (:mod:`repro.capacity.queueing`):
``c = workers`` servers at rate ``μ = 1/S`` each, fed by one FIFO backlog.
Latency quantiles come from the Erlang-C wait tail plus the deterministic
service time; the same Little's-law arithmetic the admission controller
uses online (:func:`repro.serve.admission.littles_law_wait_ms`) prices the
backlog, so the planner and the front door never disagree about queueing.

Secure serving swaps the service time for the protocol-priced online time
of the measured :class:`~repro.ppml.ProtocolTrace` (per-op costs plus one
RTT per communication round) and adds the offline-phase ledger: the refill
rate the triple pools must sustain (``qps`` request quanta per second,
i.e. ``qps × triples_per_request`` Beaver triples per second) and how many
seconds of burst the configured pool depth absorbs when refill stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .queueing import MMcQueue
from .workload import RequestWork, SecureWork

__all__ = ["CapacityModel", "CapacityPlan", "SecureCapacity"]

#: Default utilization ceiling when sizing worker counts: running an M/M/c
#: pool hotter than ~80 % makes the wait tail explode, so "required workers"
#: means "enough servers to keep ρ at or under this".
TARGET_UTILIZATION = 0.8


@dataclass(frozen=True)
class SecureCapacity:
    """Offline-phase requirements of one secure deployment at one QPS."""

    work: SecureWork
    required_refill_rps: float      # request quanta/s the producers must sustain
    triples_per_s: float
    labels_per_s: float
    pool_depth: int                 # configured quanta target
    burst_absorbed_s: float         # seconds a full pool survives a refill stall

    def to_dict(self) -> Dict[str, Any]:
        payload = self.work.to_dict()
        payload.update({
            "required_refill_rps": self.required_refill_rps,
            "triples_per_s": self.triples_per_s,
            "labels_per_s": self.labels_per_s,
            "pool_depth": self.pool_depth,
            # inf (a full pool outlasts any stall at qps 0) is not valid JSON.
            "burst_absorbed_s": (self.burst_absorbed_s
                                 if math.isfinite(self.burst_absorbed_s) else None),
        })
        return payload


@dataclass(frozen=True)
class CapacityPlan:
    """One deployment × one offered QPS, fully priced.

    All times are milliseconds at this reporting edge; the queueing layer
    underneath works in seconds.
    """

    qps: float
    workers: int
    expected_batch: float
    max_batch_size: int
    compute_ms: float
    copy_ms: float
    dispatch_ms: float
    ipc_ms: float                   # per-request share of the batch control traffic
    service_ms: float
    queue: MMcQueue
    required_workers: int
    max_throughput_rps: float       # ceiling with full batches on this worker count
    secure: Optional[SecureCapacity] = None

    # ------------------------------------------------------------ predictions
    @property
    def capacity_rps(self) -> float:
        """Sustainable rate at the *offered-load* batch size."""
        return self.queue.capacity_rps

    @property
    def throughput_rps(self) -> float:
        """Predicted carried throughput: the offer, capped by capacity."""
        return min(self.qps, self.capacity_rps)

    @property
    def utilization(self) -> float:
        return self.queue.utilization

    @property
    def stable(self) -> bool:
        return self.queue.stable

    @property
    def p50_ms(self) -> float:
        return self.queue.response_quantile_s(0.50) * 1e3

    @property
    def p99_ms(self) -> float:
        return self.queue.response_quantile_s(0.99) * 1e3

    @property
    def mean_latency_ms(self) -> float:
        return self.queue.mean_response_s * 1e3

    @property
    def mean_in_system(self) -> float:
        """Little's law ``L = λ·W`` over the whole pool."""
        return self.queue.mean_in_system

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested dict — the ``repro plan --json`` payload."""

        def _finite(value: float) -> Optional[float]:
            return value if math.isfinite(value) else None

        return {
            "qps": self.qps,
            "workers": self.workers,
            "batch": {
                "expected_size": self.expected_batch,
                "max_size": self.max_batch_size,
            },
            "service": {
                "compute_ms": self.compute_ms,
                "copy_ms": self.copy_ms,
                "dispatch_ms": self.dispatch_ms,
                "ipc_ms": self.ipc_ms,
                "total_ms": self.service_ms,
            },
            "queue": {
                "offered_load": self.queue.offered_load,
                "utilization": self.utilization,
                "stable": self.stable,
                "wait_probability": self.queue.wait_probability,
                "mean_wait_ms": _finite(self.queue.mean_wait_s * 1e3),
                "mean_in_system": _finite(self.mean_in_system),
            },
            "predictions": {
                "throughput_rps": self.throughput_rps,
                "capacity_rps": self.capacity_rps,
                "max_throughput_rps": self.max_throughput_rps,
                "p50_ms": _finite(self.p50_ms),
                "p99_ms": _finite(self.p99_ms),
                "mean_latency_ms": _finite(self.mean_latency_ms),
                "required_workers": self.required_workers,
            },
            "secure": self.secure.to_dict() if self.secure else None,
        }


class CapacityModel:
    """Prices one (model work, host rates, deployment shape) combination.

    Parameters
    ----------
    work : RequestWork
        Per-request kernel-class work counts (:func:`~repro.capacity.request_work`).
    rates : KernelRates
        Measured host rates (:meth:`repro.backends.Backend.measure_rates`).
    workers : int
        Worker processes of the deployment.
    max_batch_size, max_wait :
        The pool's coalescing knobs (defaults match :class:`~repro.serve.ServeConfig`).
    secure_work : SecureWork, optional
        Protocol structure of one request (:func:`~repro.capacity.secure_work`);
        switches the service-time model to the secure online path.
    triple_pool_depth : int
        Configured offline pool depth in request quanta (secure only).
    """

    def __init__(self, work: RequestWork, rates, *, workers: int = 2,
                 max_batch_size: int = 8, max_wait: float = 0.002,
                 secure_work: Optional[SecureWork] = None,
                 triple_pool_depth: int = 0) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.work = work
        self.rates = rates
        self.workers = int(workers)
        self.max_batch_size = int(max_batch_size)
        self.max_wait = float(max_wait)
        self.secure_work = secure_work
        self.triple_pool_depth = int(triple_pool_depth)

    # ------------------------------------------------------------ service time
    def expected_batch(self, qps: float) -> float:
        """Mean coalesced batch size under Poisson arrivals at ``qps``.

        The request that opens a batch waits up to ``max_wait`` for company:
        ``1 + λ·w`` arrivals land in that window on average, clamped to the
        configured maximum.  ``qps → 0`` gives batches of one, which is what
        makes the planner's low-load latency collapse to pure service time.
        """
        if qps < 0:
            raise ValueError(f"qps must be >= 0, got {qps}")
        return min(float(self.max_batch_size), 1.0 + qps * self.max_wait)

    def compute_seconds(self) -> float:
        """Pure kernel time of one request (batch-independent: exact mode)."""
        if self.secure_work is not None:
            return self.secure_work.online_ms / 1e3
        rates = self.rates
        return (self.work.conv_macs / rates.conv_macs_per_s
                + self.work.gemm_macs / rates.gemm_macs_per_s
                + self.work.elementwise_ops / rates.elementwise_ops_per_s
                + self.work.pool_window_elems / rates.pool_window_elems_per_s)

    def service_breakdown(self, batch: float) -> Dict[str, float]:
        """Per-request service-time terms (seconds) at mean batch size ``batch``."""
        rates = self.rates
        compute_s = self.compute_seconds()
        copy_s = self.work.transport_bytes / rates.copy_bytes_per_s
        dispatch_s = self.work.layers * rates.dispatch_us / 1e6
        # Two queue round trips per coalesced batch (submit + response frame),
        # shared by the batch's requests.
        ipc_s = 2.0 * rates.ipc_us / 1e6 / max(batch, 1.0)
        return {
            "compute_s": compute_s,
            "copy_s": copy_s,
            "dispatch_s": dispatch_s,
            "ipc_s": ipc_s,
            "total_s": compute_s + copy_s + dispatch_s + ipc_s,
        }

    def service_seconds(self, qps: float = 0.0) -> float:
        """Per-request service time at the batch size ``qps`` induces."""
        return self.service_breakdown(self.expected_batch(qps))["total_s"]

    # ------------------------------------------------------------------ sizing
    def required_workers(self, qps: float,
                         target_utilization: float = TARGET_UTILIZATION) -> int:
        """Fewest workers keeping utilization at or under the target at ``qps``."""
        if not 0 < target_utilization <= 1:
            raise ValueError(
                f"target_utilization must be in (0, 1], got {target_utilization}")
        if qps <= 0:
            return 1
        offered = qps * self.service_seconds(qps)        # Erlangs
        return max(1, math.ceil(offered / target_utilization))

    # -------------------------------------------------------------------- plan
    def plan(self, qps: float, workers: Optional[int] = None) -> CapacityPlan:
        """Price the deployment at offered rate ``qps``."""
        if qps < 0:
            raise ValueError(f"qps must be >= 0, got {qps}")
        pool_workers = self.workers if workers is None else int(workers)
        if pool_workers < 1:
            raise ValueError(f"workers must be >= 1, got {pool_workers}")
        batch = self.expected_batch(qps)
        breakdown = self.service_breakdown(batch)
        service_s = breakdown["total_s"]
        queue = MMcQueue(servers=pool_workers, arrival_rps=qps,
                         service_rps=1.0 / service_s)
        full_batch_service = self.service_breakdown(float(self.max_batch_size))
        max_throughput = pool_workers / full_batch_service["total_s"]
        secure = None
        if self.secure_work is not None:
            secure = SecureCapacity(
                work=self.secure_work,
                required_refill_rps=qps,
                triples_per_s=qps * self.secure_work.triples_per_request,
                labels_per_s=qps * self.secure_work.labels_per_request,
                pool_depth=self.triple_pool_depth,
                burst_absorbed_s=(self.triple_pool_depth / qps if qps > 0
                                  else math.inf),
            )
        return CapacityPlan(
            qps=float(qps),
            workers=pool_workers,
            expected_batch=batch,
            max_batch_size=self.max_batch_size,
            compute_ms=breakdown["compute_s"] * 1e3,
            copy_ms=breakdown["copy_s"] * 1e3,
            dispatch_ms=breakdown["dispatch_s"] * 1e3,
            ipc_ms=breakdown["ipc_s"] * 1e3,
            service_ms=service_s * 1e3,
            queue=queue,
            required_workers=self.required_workers(qps),
            max_throughput_rps=max_throughput,
            secure=secure,
        )
