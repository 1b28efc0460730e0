"""The parent-process side of the serving pool: batching, dispatch, respawn.

:class:`WorkerPool` owns N worker processes (see :mod:`repro.serve.worker`),
one bounded request queue per worker, one shared-memory ring pair per worker
(the zero-copy tensor transport, see :mod:`repro.serve.shm`), and a single
pool-wide FIFO :class:`~repro.serve.batching.RequestBacklog`.  Admitted
requests wait in the backlog until *any* worker has dispatch capacity; the
pool then cuts a batch from the front and ships it as one frame — continuous
cross-request batching, sized by load instead of by timer.

A dispatcher thread resolves responses into caller-held :class:`PoolFuture`
handles and doubles as the supervisor: whenever a worker process dies it
reclaims the worker's ring slots, respawns a replacement attached to the
*same* segments, and either requeues the requests the dead worker had in
flight (at the front of the backlog, up to ``max_retries`` attempts) or
rejects them with :class:`WorkerCrashed`.

Admission control is explicit and three-layered:

* a **latency budget** (optional) — before a request enters the backlog the
  :class:`~repro.serve.admission.AdmissionController` estimates its queue
  wait from the measured service-time EWMA; over budget means
  :class:`~repro.serve.admission.AdmissionRejected` (HTTP ``429`` with
  ``Retry-After``),
* a **watermark** on total requests in flight across the pool — beyond it
  :meth:`WorkerPool.submit` raises :class:`PoolSaturated` (HTTP ``503``), and
* the **bounded per-worker queues** — even a confused caller that ignores
  both cannot buffer unboundedly.

Per-request latency is decomposed into ``queue`` / ``transport`` /
``compute`` stage reservoirs (:class:`~repro.serve.metrics.StageMetrics`):
each stage is measured as a *duration* on whichever side owns it, so the
parent never compares timestamps across processes.

Secure serving (``ServeConfig(secure=True)``) layers the PPML offline phase
on top: before any worker spawns, :meth:`WorkerPool.start` executes one
traced warm-up forward and sizes the per-(protocol, frac_bits) triple pools
(:class:`~repro.ppml.offline.OfflinePhase`) from the measured per-request
budget.  The batcher then becomes protocol-aware — only requests sharing a
(protocol, frac_bits, truncation) configuration co-batch, and a batch only
dispatches when its pool holds enough precomputed request quanta (otherwise
it stalls at the front of the backlog until the producers catch up, or is
429'd up front when the estimated precompute wait blows the latency
budget).  Every dispatched request debits its pool; every completed request
folds its measured ``ProtocolTrace`` totals into the accounting that
``GET /stats`` serves.
"""

from __future__ import annotations

import itertools
import queue as queue_module
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..experiment import ExperimentSpec
from ..ppml.offline import OfflinePhase, pool_key
from .admission import AdmissionController, AdmissionRejected
from .batching import (MAX_PIPELINE_DEPTH, MIN_PIPELINE_DEPTH, Batch,
                       PipelineController, RequestBacklog, coalescing_key,
                       ring_slots)
from .config import ServeConfig
from .metrics import StageMetrics, split_batch_timings
from .shm import RingFull, StaleFrame, WorkerRings
from .worker import build_serving_predictor, worker_main

__all__ = [
    "WorkerPool", "PoolFuture", "PoolSaturated", "WorkerCrashed", "PoolClosed",
    "MAX_EARLY_CRASHES",
]


class PoolSaturated(RuntimeError):
    """The pool is at its admission watermark — shed this request."""


class WorkerCrashed(RuntimeError):
    """A worker died with this request in flight and no retries remained."""


class PoolClosed(RuntimeError):
    """The pool is draining or closed and accepts no new requests."""


class PoolFuture:
    """Handle for one request travelling through the pool."""

    __slots__ = ("_event", "_value", "_error", "_callbacks", "_cb_lock")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["PoolFuture"], None]] = []
        self._cb_lock = threading.Lock()

    def _resolve(self, value) -> None:
        self._value = value
        self._fire()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._fire()

    def _fire(self) -> None:
        with self._cb_lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception:   # a broken observer must not break the pool
                pass

    def add_done_callback(self, callback: Callable[["PoolFuture"], None]) -> None:
        """Run ``callback(self)`` when the future settles (immediately if done).

        Callbacks run on the pool's dispatcher thread — keep them short and
        never block (the asyncio front door uses this to hop the result onto
        its event loop with ``call_soon_threadsafe``).
        """
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = 30.0):
        if not self._event.wait(timeout):
            raise TimeoutError(f"pool response not ready after {timeout}s")
        if self._error is not None:
            raise self._error
        return self._value


class _Request:
    """Parent-side bookkeeping for one in-flight request."""

    __slots__ = ("request_id", "kind", "payload", "future", "attempts",
                 "worker_id", "t_admit", "t_dispatch", "secure")

    def __init__(self, request_id: int, kind: str, payload,
                 secure: Optional[tuple] = None) -> None:
        self.request_id = request_id
        self.kind = kind
        self.payload = payload
        self.future = PoolFuture()
        self.attempts = 0
        self.worker_id: Optional[int] = None
        self.t_admit: Optional[float] = None      # stamped by the backlog
        self.t_dispatch: Optional[float] = None   # stamped per dispatch
        #: (protocol, frac_bits, truncation) on secure pools, else None —
        #: the scheduler only co-batches requests sharing this key.
        self.secure = secure


class _WorkerHandle:
    """One worker process plus its queues and in-flight set.

    Every worker gets a *private* pair of queues.  Sharing one response queue
    across the pool would be simpler, but a worker SIGKILLed while its feeder
    thread holds the shared queue's write lock poisons that queue for every
    other worker (this is why ``concurrent.futures`` declares a whole
    ProcessPoolExecutor broken on one crash).  With per-worker channels, a
    crash can only corrupt queues that die with the worker.

    ``in_flight`` tracks every request currently committed to this worker —
    batched or not — and is what crash recovery walks.  ``batches`` tracks
    the frame-level bookkeeping (ring slots, dispatch times) of the batch
    frames in flight, bounded by ``pipeline.depth`` — the per-worker
    :class:`~repro.serve.batching.PipelineController`'s current target.
    """

    def __init__(self, worker_id: int, generation: int, process, request_queue,
                 response_queue,
                 pipeline: Optional[PipelineController] = None) -> None:
        self.worker_id = worker_id
        self.generation = generation
        self.process = process
        self.request_queue = request_queue
        self.response_queue = response_queue
        self.in_flight: Dict[int, _Request] = {}
        self.batches: Dict[int, Batch] = {}
        self.pipeline = pipeline if pipeline is not None else PipelineController()
        self.ready = threading.Event()
        self.served = 0
        self.last_used = 0
        self.stopping = False

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def describe(self) -> Dict[str, Any]:
        return {
            "worker_id": self.worker_id,
            "generation": self.generation,
            "pid": self.process.pid,
            "alive": self.alive,
            "ready": self.ready.is_set(),
            "served": self.served,
            "in_flight": len(self.in_flight),
            "batches": len(self.batches),
            "pipeline_depth": self.pipeline.depth,
        }


#: Consecutive died-before-ready crashes after which a worker slot is given
#: up on instead of respawned — a deterministic startup crash (bad config,
#: corrupt weights) must not become an infinite spawn storm.
MAX_EARLY_CRASHES = 3

#: auto ring geometry: slot count comes from :func:`ring_slots` (sized for
#: the *maximum* adaptive pipeline depth, or a dispatch burst could stall on
#: RingFull exactly when the controller ramps up), and slots of 1 MiB —
#: comfortably a max_batch_size batch of any smoke-scale input; bigger
#: tensors transparently fall back to the inline path.
_AUTO_SLOT_BYTES = 1 << 20


class WorkerPool:
    """Shard compiled-model inference across a pool of worker processes.

    Parameters
    ----------
    spec : ExperimentSpec or dict
        The experiment whose model the workers serve.  Serialized to a plain
        dict for IPC; each worker rebuilds and compiles the model itself.
    state : dict, optional
        Trained weights (``model.state_dict()``) shipped to every worker so
        all of them answer with identical bits.  ``None`` serves the freshly
        built (seeded) model.
    config : ServeConfig

    Example
    -------
    >>> pool = WorkerPool(spec, state=model.state_dict(),
    ...                   config=ServeConfig(workers=2))
    >>> with pool:                       # starts workers, waits for ready
    ...     out = pool.predict(sample)   # or submit() for a future
    """

    def __init__(self, spec, state: Optional[Dict[str, np.ndarray]] = None,
                 config: Optional[ServeConfig] = None) -> None:
        if isinstance(spec, ExperimentSpec):
            spec = spec.to_dict()
        self.spec_dict = dict(spec)
        self.state = dict(state) if state else {}
        self.config = config or ServeConfig()
        self._ctx = None
        self._workers: Dict[int, _WorkerHandle] = {}
        self._rings: Dict[int, WorkerRings] = {}   # per slot, survive respawns
        self._requests: Dict[int, _Request] = {}   # admitted: backlog + workers
        self._backlog = RequestBacklog()
        self._lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._rr = itertools.count()            # round-robin tie breaker
        self._dispatcher: Optional[threading.Thread] = None
        #: per-slot count of consecutive crashes before reporting ready
        self._early_crashes: Dict[int, int] = {}
        self._started = False
        self._accepting = False
        self._closed = False
        self.admission = AdmissionController(self.config.latency_budget_ms)
        self.stage_metrics = StageMetrics()
        # counters (all mutated under the lock)
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.retried = 0
        self.respawns = 0
        self.rejected_saturated = 0
        self.rejected_budget = 0
        self.rejected_precompute = 0    # secure: offline pool too far behind
        self.inline_dispatches = 0      # shm configured but frame went inline
        self.inline_responses = 0
        self.assembly_fallbacks = 0     # in-ring assembly fell back to stack
        # Secure serving: resolve the spec-deferred knobs once and stand up
        # the (still unsized) offline phase; start() runs the warm-up trace.
        self.offline: Optional[OfflinePhase] = None
        self.warmup_trace = None
        self._secure_default: Optional[tuple] = None
        self.secure_strategy = ""
        if self.config.secure:
            parsed = ExperimentSpec.from_dict(self.spec_dict)
            protocol = self.config.protocol or parsed.ppml.protocol
            self.secure_strategy = self.config.strategy or parsed.ppml.strategy
            self._secure_default = (protocol, self.config.frac_bits,
                                    self.config.truncation)
            self._input_shape = tuple(parsed.data.input_shape)
            self.offline = OfflinePhase(
                protocol, self.config.frac_bits, self.config.truncation,
                depth=self.config.effective_triple_pool_depth,
                seed=parsed.seed)

    # ----------------------------------------------------------------- lifecycle
    def start(self) -> "WorkerPool":
        """Spawn the workers and block until every one reports ready.

        On secure pools the warm-up runs first: one traced forward through
        the exact worker-side build path sizes the offline triple pools
        from the measured per-request budget — and surfaces
        :class:`~repro.ppml.SecureExecutionError` for un-servable models
        before a single worker process is spawned.
        """
        if self.offline is not None and self.warmup_trace is None:
            self._warm_up()
        with self._lock:
            if self._closed:
                raise PoolClosed("this pool has been closed; create a new WorkerPool")
            if self._started:
                return self
            self._started = True
            self._accepting = True
            import multiprocessing

            self._ctx = multiprocessing.get_context(self.config.start_method)
            for worker_id in range(self.config.workers):
                self._workers[worker_id] = self._spawn(
                    worker_id, generation=0, rings=self._ensure_rings(worker_id))
        self._dispatcher = threading.Thread(target=self._dispatch_loop, daemon=True,
                                            name="repro-pool-dispatcher")
        self._dispatcher.start()
        deadline = time.monotonic() + self.config.startup_timeout
        for worker_id in range(self.config.workers):
            # Poll the *current* handle: the supervisor may have respawned the
            # slot behind our back, and a slot that keeps crashing before
            # ready fails fast instead of burning the whole startup timeout.
            while True:
                with self._lock:
                    handle = self._workers.get(worker_id)
                    gave_up = self._early_crashes.get(worker_id, 0) >= MAX_EARLY_CRASHES
                if handle is not None and handle.ready.wait(0.05):
                    break
                dead = handle is None or not handle.alive
                if (dead and gave_up) or time.monotonic() >= deadline:
                    reason = ("keeps crashing during startup "
                              f"({MAX_EARLY_CRASHES} consecutive attempts)" if gave_up
                              else f"did not become ready within "
                                   f"{self.config.startup_timeout}s")
                    self.close(timeout=1.0)
                    raise RuntimeError(
                        f"worker {worker_id} {reason}; check the spec/weights "
                        f"and the serve configuration")
        return self

    def _warm_up(self) -> None:
        """Trace one forward and size the offline pools from what it measured.

        Uses the same ``build_serving_predictor`` the workers run, so the
        budget is measured on the exact converted/compiled model that will
        serve — not on a static estimate.  The trace is kept on
        :attr:`warmup_trace` for ``/stats`` consumers and the benchmark's
        measured-vs-static equality check.
        """
        predictor = build_serving_predictor(self.spec_dict, self.state,
                                            secure=self.config.to_dict())
        try:
            predictor.predict(np.zeros(self._input_shape, dtype=np.float32))
            self.warmup_trace = predictor.last_trace
        finally:
            predictor.close()
        self.offline.size_from_trace(self.warmup_trace)

    def _ensure_rings(self, worker_id: int) -> Optional[WorkerRings]:
        """The slot's ring pair, created on first spawn (caller holds the lock).

        Ring creation failing (no usable /dev/shm, exotic platform) degrades
        the transport to inline frames over the queues instead of killing the
        pool — the wire protocol is identical, only slower.
        """
        rings = self._rings.get(worker_id)
        if rings is None:
            slots = self.config.shm_slots or ring_slots(
                self.config.effective_max_pipeline_depth)
            slot_bytes = self.config.shm_slot_bytes or _AUTO_SLOT_BYTES
            try:
                rings = self._rings[worker_id] = WorkerRings(slots, slot_bytes)
            except Exception:
                return None
        return rings

    def _spawn(self, worker_id: int, generation: int,
               rings: Optional[WorkerRings]) -> _WorkerHandle:
        """Create one worker process (slow: ~1 s; safe to call without the lock).

        Respawns attach to the slot's *existing* rings (reclaimed by the
        supervisor before the replacement is installed), so a crash costs a
        header scan, not two segment allocations.
        """
        request_queue = self._ctx.Queue(maxsize=self.config.queue_depth)
        response_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, self.spec_dict, self.state, self.config.to_dict(),
                  rings.descriptor() if rings is not None else None,
                  request_queue, response_queue),
            daemon=True,
            name=f"repro-serve-worker-{worker_id}",
        )
        process.start()
        return _WorkerHandle(
            worker_id, generation, process, request_queue, response_queue,
            pipeline=PipelineController(self.stage_metrics,
                                        fixed=self.config.pipeline_depth))

    def stop_accepting(self) -> None:
        """Refuse new submissions while letting in-flight work finish."""
        with self._lock:
            self._accepting = False

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting requests; wait for the in-flight set to empty.

        Returns True when everything in flight completed within ``timeout``
        (default: the config's ``drain_timeout``).
        """
        with self._lock:
            self._accepting = False
        deadline = time.monotonic() + (timeout if timeout is not None
                                       else self.config.drain_timeout)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._requests:
                    return True
            time.sleep(0.01)
        with self._lock:
            return not self._requests

    def close(self, timeout: float = 10.0) -> None:
        """Drain, stop the workers, reject anything still unresolved (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._accepting = False
            started = self._started
        if not started:
            return
        self.drain(timeout=min(timeout, self.config.drain_timeout))
        with self._lock:
            handles = list(self._workers.values())
            for handle in handles:
                handle.stopping = True
                try:
                    handle.request_queue.put_nowait(None)
                except queue_module.Full:
                    pass
        for handle in handles:
            handle.process.join(timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(1.0)
        with self._lock:
            self._backlog.drain()
            leftovers = list(self._requests.values())
            self._requests.clear()
            for handle in self._workers.values():
                handle.in_flight.clear()
                handle.batches.clear()
            rings = list(self._rings.values())
            self._rings.clear()
        for pair in rings:
            try:
                pair.close()           # the parent unlinks exactly once
            except Exception:
                pass
        for request in leftovers:
            request.future._reject(PoolClosed(
                "pool closed before this request was answered"))
        if self._dispatcher is not None and self._dispatcher.is_alive():
            self._dispatcher.join(timeout=2.0)
        if self.offline is not None:
            self.offline.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ serving
    def submit(self, sample: np.ndarray, protocol: Optional[str] = None,
               frac_bits: Optional[int] = None,
               truncation: Optional[str] = None) -> PoolFuture:
        """Admit one sample into the pool's backlog; returns a future.

        Raises :class:`~repro.serve.admission.AdmissionRejected` when the
        latency budget says the request would wait too long (including, on
        secure pools, when the offline producers are too far behind),
        :class:`PoolSaturated` once the pool-wide in-flight count reaches the
        watermark, and :class:`PoolClosed` when the pool is draining or
        closed.

        On secure pools, ``protocol`` / ``frac_bits`` / ``truncation``
        override the configured defaults for this one request; the
        scheduler only co-batches requests sharing the resulting
        (protocol, frac_bits, truncation) key, and each key draws from its
        own offline triple pool.  Overrides on a float pool raise
        ``ValueError``.
        """
        secure = self._secure_key(protocol, frac_bits, truncation)
        return self._submit("batch", np.asarray(sample, dtype=np.float32),
                            secure=secure)

    def _secure_key(self, protocol, frac_bits, truncation) -> Optional[tuple]:
        """Validate and canonicalize one request's secure configuration."""
        overrides = (protocol, frac_bits, truncation)
        if self.offline is None:
            if any(value is not None for value in overrides):
                raise ValueError(
                    "per-request protocol/frac_bits/truncation require a "
                    "secure pool (ServeConfig(secure=True))")
            return None
        base = self._secure_default
        if all(value is None for value in overrides):
            return base
        from ..ppml.fixedpoint import FixedPointFormat  # lazy, validation only
        from ..ppml.protocols import resolve_protocol

        try:
            name = resolve_protocol(protocol or base[0]).name
        except KeyError as error:
            raise ValueError(str(error)) from None
        fmt = FixedPointFormat(
            frac_bits=base[1] if frac_bits is None else int(frac_bits),
            truncation=base[2] if truncation is None else str(truncation))
        return (name, fmt.frac_bits, fmt.truncation)

    def submit_sleep(self, seconds: float) -> PoolFuture:
        """Occupy one worker for ``seconds`` (drain/failure testing, warm-up)."""
        return self._submit("sleep", float(seconds))

    def predict(self, sample: np.ndarray, timeout: Optional[float] = None):
        """Blocking convenience wrapper around :meth:`submit`."""
        effective = timeout if timeout is not None else self.config.request_timeout
        return self.submit(sample).result(timeout=effective)

    def _submit(self, kind: str, payload,
                secure: Optional[tuple] = None) -> PoolFuture:
        with self._lock:
            if not self._started:
                raise PoolClosed("pool not started; call start() or use it as a "
                                 "context manager")
            if self._closed or not self._accepting:
                raise PoolClosed("pool is draining/closed and accepts no new requests")
            if len(self._requests) >= self.config.effective_watermark:
                self.rejected_saturated += 1
                raise PoolSaturated(
                    f"{len(self._requests)} requests in flight >= watermark "
                    f"{self.config.effective_watermark}; retry later")
            request = _Request(next(self._request_ids), kind, payload,
                               secure=secure)
            if kind != "batch":
                # Control requests (sleep) bypass batching: they exist to pin
                # a specific worker, which the backlog would defeat.
                self._dispatch_direct(request)
                self.submitted += 1
                return request.future
            alive = [h for h in self._workers.values()
                     if h.alive and not h.stopping]
            if not alive and not self._respawnable_locked():
                self.submitted += 1
                self.failed += 1
                request.future._reject(WorkerCrashed("no alive workers in the pool"))
                return request.future
            decision = self.admission.decide(len(self._requests),
                                             max(len(alive), 1))
            if not decision.admitted:
                self.rejected_budget += 1
                raise self.admission.reject(decision)
            if secure is not None and self.admission.enabled:
                # Second admission gate, secure pools only: when the offline
                # producers are so far behind that refilling enough quanta
                # for everything already admitted (plus this request) would
                # blow the latency budget, 429 now rather than stall later.
                key = pool_key(secure[0], secure[1])
                wait_ms = self.offline.estimated_wait_ms(
                    key, len(self._requests) + 1)
                budget_ms = self.config.latency_budget_ms
                if wait_ms > budget_ms:
                    self.rejected_precompute += 1
                    retry_after = max(1, int(np.ceil(
                        min(wait_ms, 3_600_000.0) / 1000.0)))
                    raise AdmissionRejected(
                        f"offline precompute behind: ~{wait_ms:.0f}ms to "
                        f"refill triple pool '{key}' exceeds the "
                        f"{budget_ms:.0f}ms budget; retry later",
                        estimated_wait_ms=wait_ms, budget_ms=budget_ms,
                        retry_after_s=retry_after)
            self._backlog.append(request)
            self._requests[request.request_id] = request
            self.submitted += 1
            self._pump_locked()
        return request.future

    def _respawnable_locked(self) -> bool:
        return not self._closed and any(
            self._early_crashes.get(worker_id, 0) < MAX_EARLY_CRASHES
            for worker_id in self._workers)

    # ----------------------------------------------------------------- batching
    def _pump_locked(self) -> None:
        """Cut batches from the backlog onto every worker with capacity.

        Called (under the lock) after anything that could create dispatch
        room: a submission, a completed batch, a respawn, a ready worker.
        """
        while self._backlog:
            candidates = [handle for handle in self._workers.values()
                          if handle.alive and not handle.stopping
                          and len(handle.batches) < handle.pipeline.depth]
            if not candidates:
                return
            candidates.sort(key=lambda handle: (len(handle.in_flight),
                                                handle.last_used))
            dispatched_any = False
            for handle in candidates:
                if not self._backlog:
                    return
                requests = self._cut_batch_locked()
                if not requests:
                    return
                if self._dispatch_batch_locked(handle, requests):
                    dispatched_any = True
                else:
                    self._backlog.requeue(requests)
            if not dispatched_any:
                return                     # every candidate queue is full

    def _cut_batch_locked(self) -> List[_Request]:
        """Next batch off the backlog; only compatible requests fuse.

        Compatibility is :func:`~repro.serve.batching.coalescing_key`: the
        stacked shape, plus — on secure pools — the (protocol, frac_bits,
        truncation) triple, so one frame never mixes secure configurations.
        On secure pools the cut is additionally capped by the offline
        material on hand: requests the triple pool cannot cover yet are
        requeued at the front and the stall is recorded — FIFO order is
        preserved, and the dispatcher's next tick retries once the
        producers catch up.
        """
        batch = self._backlog.cut(self.config.max_batch_size)
        if not batch:
            return []
        key = coalescing_key(batch[0])
        same = [r for r in batch if coalescing_key(r) == key]
        rest = [r for r in batch if coalescing_key(r) != key]
        if rest:
            self._backlog.requeue(rest)    # next cut takes them first
        if self.offline is not None and same:
            offline_key = pool_key(same[0].secure[0], same[0].secure[1])
            covered = self.offline.available(offline_key)
            if covered <= 0:
                self.offline.note_stall(offline_key)
                self._backlog.requeue(same)
                return []
            if covered < len(same):
                self._backlog.requeue(same[covered:])
                same = same[:covered]
        return same

    def _dispatch_batch_locked(self, handle: _WorkerHandle,
                               requests: List[_Request]) -> bool:
        """Ship one batch frame to ``handle``; False if its queue is full.

        The batch tensor is assembled *inside* the leased ring slot: the
        slot is claimed first and each request's payload is scattered
        straight into its row of a writable view — no intermediate
        ``np.stack`` array, no second copy.  Any assembly failure (ring
        full, batch too big for a slot) releases the lease and falls back
        to the inline path, which stacks on the heap exactly as before —
        bit-identical either way, since both paths copy the same rows in
        the same order.
        """
        batch_id = next(self._batch_ids)
        rings = self._rings.get(handle.worker_id)
        slot = seq = None
        payload = None
        if rings is not None:
            head = requests[0].payload
            try:
                slot, seq = rings.request.lease()
                view, shm_frame = rings.request.assemble(
                    slot, seq, (len(requests),) + head.shape, head.dtype)
                for index, request in enumerate(requests):
                    np.copyto(view[index], request.payload)
                payload = ("shm", shm_frame)
            except (RingFull, ValueError, TypeError):
                if slot is not None:       # leased but the batch didn't fit
                    rings.request.release(slot, seq)
                slot = seq = None
                self.inline_dispatches += 1
                self.assembly_fallbacks += 1
        if payload is None:
            payload = ("inline",
                       np.stack([request.payload for request in requests]))
        frame = ("batch", batch_id,
                 [request.request_id for request in requests], payload)
        if self.offline is not None:
            # Secure frames carry their configuration: None selects the
            # worker's default compilation, a dict a lazily-compiled variant.
            key = requests[0].secure
            meta = (None if key == self._secure_default else
                    {"protocol": key[0], "frac_bits": key[1],
                     "truncation": key[2]})
            frame = frame + (meta,)
        try:
            handle.request_queue.put_nowait(frame)
        except queue_module.Full:
            if slot is not None:
                rings.request.release(slot, seq)
            return False
        if self.offline is not None:
            # Debit only after the frame is irrevocably committed to the
            # worker — a queue-full requeue must not consume material.  A
            # crash retry debits again: the respawned worker re-executes the
            # forward, which really does consume fresh triples (so the
            # invariant checked by the fault tests stays
            # produced == available + consumed with consumed >= answers).
            self.offline.consume(pool_key(requests[0].secure[0],
                                          requests[0].secure[1]),
                                 len(requests))
        now = time.perf_counter()
        handle.batches[batch_id] = Batch(batch_id, requests, slot, seq)
        handle.last_used = next(self._rr)
        for request in requests:
            request.attempts += 1
            request.worker_id = handle.worker_id
            request.t_dispatch = now
            handle.in_flight[request.request_id] = request
        return True

    def _dispatch_direct(self, request: _Request) -> None:
        """Enqueue a control request on the best worker (caller holds the lock)."""
        candidates = [handle for handle in self._workers.values()
                      if handle.alive and not handle.stopping]
        if not candidates:
            if self._respawnable_locked():
                # The supervisor is (about to be) respawning — transient, so
                # shed rather than fail: callers can retry, HTTP says 503.
                self.rejected_saturated += 1
                raise PoolSaturated(
                    "no alive workers right now (respawn in progress); retry later")
            self.failed += 1
            request.future._reject(WorkerCrashed("no alive workers in the pool"))
            return
        # Least-loaded first; equal loads rotate round-robin so sequential
        # traffic still spreads across the pool.
        candidates.sort(key=lambda handle: (len(handle.in_flight), handle.last_used))
        request.attempts += 1
        for handle in candidates:
            try:
                handle.request_queue.put_nowait(
                    (request.kind, request.request_id, request.payload))
            except queue_module.Full:
                continue
            request.worker_id = handle.worker_id
            handle.in_flight[request.request_id] = request
            handle.last_used = next(self._rr)
            self._requests[request.request_id] = request
            return
        # Every queue is full — that is backpressure too.
        self.rejected_saturated += 1
        raise PoolSaturated("every worker queue is full; retry later")

    def _pump(self) -> None:
        with self._lock:
            self._pump_locked()

    # --------------------------------------------------------------- dispatcher
    def _dispatch_loop(self) -> None:
        """Resolve responses and supervise worker processes."""
        last_liveness_check = 0.0
        last_pipeline_update = 0.0
        while True:
            with self._lock:
                if self._closed and not self._requests:
                    break
                handles = list(self._workers.values())
            got_any = False
            for handle in handles:
                got_any |= self._drain_responses(handle)
            if self._backlog:
                self._pump()
            now = time.monotonic()
            if now - last_liveness_check >= 0.1:
                last_liveness_check = now
                self._reap_dead_workers()
            if now - last_pipeline_update >= 0.25:
                # Re-target every controller from the latest percentiles; a
                # raised depth creates dispatch room, so pump right after.
                last_pipeline_update = now
                with self._lock:
                    for handle in self._workers.values():
                        handle.pipeline.update()
                    self._pump_locked()
            if not got_any:
                time.sleep(0.002)

    def _drain_responses(self, handle: _WorkerHandle, limit: int = 64) -> bool:
        """Process everything currently readable on one worker's channel."""
        got_any = False
        for _ in range(limit):
            try:
                message = handle.response_queue.get_nowait()
            except (queue_module.Empty, EOFError, OSError):
                break
            got_any = True
            self._handle_message(handle, message)
        return got_any

    def _handle_message(self, handle: _WorkerHandle, message) -> None:
        kind = message[0]
        if kind == "ready":
            _, worker_id, _pid = message
            with self._lock:
                current = self._workers.get(worker_id)
                self._early_crashes[worker_id] = 0    # the slot proved viable
            if current is not None:
                current.ready.set()
            self._pump()                  # a fresh worker means fresh capacity
            return
        if kind == "bye":
            return
        if kind == "okb":
            self._finish_batch(handle, message)
            return
        if kind == "errb":
            self._fail_batch(handle, message)
            return
        _, request_id, payload = message
        with self._lock:
            request = self._requests.pop(request_id, None)
            if request is None:
                return  # already rejected (e.g. its worker was declared dead)
            owner = self._workers.get(request.worker_id)
            if owner is not None:
                owner.in_flight.pop(request_id, None)
                owner.served += 1
            if kind == "ok":
                self.completed += 1
            else:
                self.failed += 1
        if kind == "ok":
            request.future._resolve(payload)
        else:
            request.future._reject(RuntimeError(f"worker error: {payload}"))

    def _finish_batch(self, handle: _WorkerHandle, message) -> None:
        """Resolve one ("okb", ...) frame: copy out, time, settle futures."""
        _, batch_id, _request_ids, payload, timings = message
        with self._lock:
            batch = handle.batches.pop(batch_id, None)
        rings = self._rings.get(handle.worker_id)
        via, data = payload
        outputs = None
        if via == "shm" and rings is not None:
            try:
                # The one consumer-side copy: detach the rows from the slot
                # so it can be released (and re-leased) immediately.
                outputs = np.array(rings.response.read(data))
            except (StaleFrame, ValueError):
                outputs = None            # reclaimed under us — batch is gone too
            finally:
                try:
                    rings.response.release(data.slot, data.seq)
                except (StaleFrame, ValueError, RuntimeError):
                    pass
        elif via == "inline":
            outputs = np.asarray(data)
        if batch is None:
            return      # answered after we gave up on it (reaped/closed)
        if outputs is None or len(outputs) != len(batch.requests):
            self._fail_batch(handle, ("errb", batch_id,
                                      [r.request_id for r in batch.requests],
                                      "response frame was lost in transport"),
                             batch=batch)
            return
        compute_list = split_batch_timings(
            (timings or {}).get("compute_ms"), len(batch.requests))
        now = time.perf_counter()
        with self._lock:
            for request, compute_ms in zip(batch.requests, compute_list):
                self._requests.pop(request.request_id, None)
                handle.in_flight.pop(request.request_id, None)
                handle.served += 1
                self.completed += 1
                if via == "inline" and rings is not None:
                    self.inline_responses += 1
                t_admit = request.t_admit if request.t_admit is not None else now
                t_dispatch = (request.t_dispatch
                              if request.t_dispatch is not None else t_admit)
                queue_ms = max((t_dispatch - t_admit) * 1000.0, 0.0)
                total_ms = max((now - t_admit) * 1000.0, 0.0)
                transport_ms = max(total_ms - queue_ms - compute_ms, 0.0)
                self.stage_metrics.record(queue_ms, transport_ms,
                                          compute_ms, total_ms)
                self.admission.observe(total_ms - queue_ms)
            self._pump_locked()
        if self.offline is not None:
            # Per-request protocol accounting measured by the worker — one
            # ProtocolTrace.totals() per answered request.
            secure_totals = (timings or {}).get("secure")
            if secure_totals:
                self.offline.record_served(secure_totals)
        for index, request in enumerate(batch.requests):
            request.future._resolve(np.array(outputs[index]))

    def _fail_batch(self, handle: _WorkerHandle, message,
                    batch: Optional[Batch] = None) -> None:
        _, batch_id, _request_ids, error_message = message
        with self._lock:
            if batch is None:
                batch = handle.batches.pop(batch_id, None)
            if batch is None:
                return
            for request in batch.requests:
                self._requests.pop(request.request_id, None)
                handle.in_flight.pop(request.request_id, None)
                self.failed += 1
            self._pump_locked()
        for request in batch.requests:
            request.future._reject(RuntimeError(f"worker error: {error_message}"))

    def _reap_dead_workers(self) -> None:
        """Respawn crashed workers; requeue or reject their orphaned requests."""
        with self._lock:
            dead = [handle for handle in self._workers.values()
                    if not handle.alive and not handle.stopping]
        if not dead:
            return
        # Collect any answers a worker managed to send before dying, so those
        # requests resolve normally instead of being retried (done outside
        # the lock — _handle_message locks per message).
        for handle in dead:
            self._drain_responses(handle)
        # Charge never-ready deaths against the slot's crash budget, then
        # spawn replacements OUTSIDE the lock — a spawn re-imports the
        # library and pickles the weights (~1 s), and holding the lock that
        # long would stall every submit and response in the pool.  Only this
        # (dispatcher) thread reaps, so there is no double-spawn race.
        with self._lock:
            closed = self._closed
            for handle in dead:
                if (self._workers.get(handle.worker_id) is handle
                        and not handle.ready.is_set()):
                    self._early_crashes[handle.worker_id] = \
                        self._early_crashes.get(handle.worker_id, 0) + 1
            budgets = dict(self._early_crashes)
            # Reclaim every ring slot the dead generation held — leased
            # request slots it never released, response slots it never got to
            # send — and bump their sequence numbers so any frame it did emit
            # is stale.  Must happen before the replacement attaches.
            for handle in dead:
                if self._workers.get(handle.worker_id) is handle:
                    rings = self._rings.get(handle.worker_id)
                    if rings is not None:
                        try:
                            rings.reclaim_all()
                        except Exception:
                            pass
        replacements: Dict[int, _WorkerHandle] = {}
        if not closed:
            respawn_ids = [handle.worker_id for handle in dead
                           if budgets.get(handle.worker_id, 0) < MAX_EARLY_CRASHES]
            with self._lock:
                ring_map = {worker_id: self._ensure_rings(worker_id)
                            for worker_id in respawn_ids}
            for handle in dead:
                if handle.worker_id not in ring_map:
                    continue  # deterministic startup crash: give the slot up
                replacements[handle.worker_id] = self._spawn(
                    handle.worker_id, generation=handle.generation + 1,
                    rings=ring_map[handle.worker_id])
        to_requeue: List[_Request] = []
        to_retry_direct: List[_Request] = []
        to_reject: List[_Request] = []
        with self._lock:
            for handle in dead:
                if self._workers.get(handle.worker_id) is not handle:
                    continue  # already replaced by an earlier reap
                orphans = list(handle.in_flight.values())
                handle.in_flight.clear()
                handle.batches.clear()
                replacement = replacements.get(handle.worker_id)
                if replacement is not None and not self._closed:
                    self._workers[handle.worker_id] = replacement
                    self.respawns += 1
                else:
                    # Slot given up (crash budget spent) or pool closing:
                    # stop re-reaping this dead handle every supervisor tick.
                    handle.stopping = True
                for request in orphans:
                    if request.attempts <= self.config.max_retries and not self._closed:
                        if request.kind == "batch":
                            to_requeue.append(request)
                        else:
                            self._requests.pop(request.request_id, None)
                            to_retry_direct.append(request)
                    else:
                        self._requests.pop(request.request_id, None)
                        to_reject.append(request)
            # Crash retries go to the *front* of the backlog: they were
            # admitted before everything queued behind them.
            if to_requeue:
                self.retried += len(to_requeue)
                self._backlog.requeue(to_requeue)
            for request in to_retry_direct:
                self.retried += 1
                try:
                    self._dispatch_direct(request)
                except PoolSaturated:
                    to_reject.append(request)
            for request in to_reject:
                self.failed += 1
            self._pump_locked()
        # A replacement that lost the install race (pool closed mid-spawn)
        # must not leak as an orphan process.
        for worker_id, replacement in replacements.items():
            with self._lock:
                installed = self._workers.get(worker_id) is replacement
            if not installed:
                replacement.process.terminate()
        for request in to_reject:
            request.future._reject(WorkerCrashed(
                f"worker {request.worker_id} died with this request in flight "
                f"(attempt {request.attempts}/{1 + self.config.max_retries})"))

    # -------------------------------------------------------------------- state
    @property
    def accepting(self) -> bool:
        with self._lock:
            return self._started and self._accepting and not self._closed

    def in_flight(self) -> int:
        with self._lock:
            return len(self._requests)

    def backlog_depth(self) -> int:
        with self._lock:
            return len(self._backlog)

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for handle in self._workers.values() if handle.alive)

    def stats(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the pool (for ``GET /stats``)."""
        with self._lock:
            ring_stats = {str(worker_id): rings.stats()
                          for worker_id, rings in sorted(self._rings.items())}
            return {
                "workers": [handle.describe() for handle in self._workers.values()],
                "accepting": self._started and self._accepting and not self._closed,
                "in_flight": len(self._requests),
                "backlog": len(self._backlog),
                "watermark": self.config.effective_watermark,
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "retried": self.retried,
                "respawns": self.respawns,
                "rejected_saturated": self.rejected_saturated,
                "rejected_budget": self.rejected_budget,
                "transport": {
                    "inline_dispatches": self.inline_dispatches,
                    "inline_responses": self.inline_responses,
                    "assembly_fallbacks": self.assembly_fallbacks,
                    "rings": ring_stats or None,
                },
                "pipeline": {
                    "configured_depth": self.config.pipeline_depth,
                    "min_depth": MIN_PIPELINE_DEPTH,
                    "max_depth": MAX_PIPELINE_DEPTH,
                    "pipeline_depth_current": {
                        str(handle.worker_id): handle.pipeline.depth
                        for handle in self._workers.values()},
                    "raises": sum(handle.pipeline.raises
                                  for handle in self._workers.values()),
                    "lowers": sum(handle.pipeline.lowers
                                  for handle in self._workers.values()),
                },
                "latency": self.stage_metrics.to_dict(),
                "admission": self.admission.stats(),
                "secure": self._secure_stats_locked(),
            }

    def _secure_stats_locked(self) -> Optional[Dict[str, Any]]:
        """The ``secure`` subtree of :meth:`stats` (``None`` on float pools)."""
        if self.offline is None:
            return None
        protocol, frac_bits, truncation = self._secure_default
        return {
            "protocol": protocol,
            "frac_bits": frac_bits,
            "truncation": truncation,
            "strategy": self.secure_strategy,
            "rejected_precompute": self.rejected_precompute,
            "offline": self.offline.stats(),
        }

    def __repr__(self) -> str:
        return (f"WorkerPool(workers={self.config.workers}, "
                f"alive={self.alive_workers()}, in_flight={self.in_flight()})")
