"""The worker-process side of the serving pool.

Each worker is an independent OS process that receives the experiment spec
and the trained weights over IPC (both pickle cleanly: the spec as a plain
dict, the weights as a name → ``np.ndarray`` state dict), rebuilds the model,
compiles it, and executes the batch frames the pool's continuous batcher
cuts for it.  Because every worker starts from the same serialized weights
and the compiled path is deterministic, any worker answers any request with
the same bits.

Wire protocol (control frames are picklable tuples; tensor payloads travel
through the worker's shared-memory rings, or inline when they cannot):

* parent → worker::

      ("batch", batch_id, [request_ids], payload[, meta])   # the data plane
      ("sleep", request_id, seconds)                # drain tests, warm-up
      None                                          # drain and exit

  where ``payload`` is ``("shm", ShmFrame)`` — the stacked float32 batch is
  parked in the request ring — or ``("inline", ndarray)`` when the batch
  outgrew a slot, the ring was full, or the pool has no rings (shared
  memory unavailable).  The optional fifth element ``meta`` only appears on
  secure pools: ``None`` for the default secure configuration, or
  ``{"protocol", "frac_bits", "truncation"}`` for a per-request override
  (the worker compiles that variant lazily).

* worker → parent::

      ("ready", worker_id, pid)                     # serving can begin
      ("okb", batch_id, [request_ids], payload, timings)
      ("errb", batch_id, [request_ids], message)
      ("ok", request_id, None) / ("err", request_id, message)   # sleep
      ("bye", worker_id)

  ``timings`` is ``{"read_ms": float, "compute_ms": [per-request floats]}``
  — durations measured on the worker's own clock, so the parent never has
  to compare timestamps across processes.  Secure workers add a
  ``"secure"`` key: one ``ProtocolTrace.totals()`` dict per request, which
  is how per-request protocol accounting reaches ``GET /stats``.

Every batch frame, float or secure, runs through one executor —
:meth:`ResponseArena.serve` — which runs each request as its own batch-of-1
forward, so an answer carries the same bits as
``Experiment.predictor(max_batch_size=1)`` (or
``Experiment.secure_predictor()``) however requests were coalesced.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .shm import RingFull, WorkerRings

#: Message kinds a worker understands.
REQUEST_KINDS = ("batch", "sleep")


def execute_request(kind: str, payload: Any) -> None:
    """Run one control frame (any kind but ``"batch"``) on this worker."""
    if kind == "sleep":
        time.sleep(float(payload))
        return None
    raise ValueError(f"unknown request kind '{kind}'; valid: {REQUEST_KINDS}")


def build_serving_predictor(spec_dict: Dict[str, Any], state: Dict[str, np.ndarray],
                            backend: str = "numpy",
                            secure: Optional[Dict[str, Any]] = None):
    """Rebuild the model from its IPC form and compile it for serving.

    Split out of :func:`worker_main` so tests can exercise the
    deserialize → build → load → compile path in-process.  A float worker
    gets the :class:`~repro.inference.CompiledModel` it executes, compiled
    with ``backend`` (a :mod:`repro.backends` name).

    When ``secure`` is given (a dict with ``protocol`` / ``frac_bits`` /
    ``truncation`` / ``strategy``, i.e. the secure fields of
    ``ServeConfig.to_dict()``), the model is converted PPML-friendly and
    wrapped in a :class:`~repro.ppml.SecurePredictor` instead, whose
    ``compiled`` model serves the default configuration and whose
    ``variant()`` compiles per-request overrides — the same deserialize →
    build → load path, one code path either way, which is what keeps served
    secure answers bit-identical to the single-process
    ``Experiment.secure_predictor()``.  Empty ``protocol`` / ``strategy``
    defer to the spec's ``ppml`` section; strategy ``"none"`` serves the
    model unconverted (ReLUs cost garbled comparisons).
    """
    from ..experiment import ExperimentSpec
    from ..inference import compile_model
    from ..utils.seed import seed_everything

    spec = ExperimentSpec.from_dict(spec_dict)
    # Seeded exactly like Experiment.build(), so even a worker that receives
    # no weights reproduces the parent's freshly built model.
    seed_everything(spec.seed)
    model = spec.model.build()
    if state:
        model.load_state_dict(dict(state))
    model.eval()
    if secure is not None:
        from .. import ppml

        strategy = secure.get("strategy") or spec.ppml.strategy
        if strategy != "none":
            model, _ = ppml.to_ppml_friendly(model, strategy=strategy,
                                             inplace=False)
        return ppml.SecurePredictor(
            model,
            protocol=secure.get("protocol") or spec.ppml.protocol,
            frac_bits=int(secure.get("frac_bits", 12)),
            truncation=str(secure.get("truncation", "nearest")),
            seed=spec.seed)
    return compile_model(model, backend=backend)


class ResponseArena:
    """A worker's batch executor and its reusable output storage.

    Every batch frame a worker receives runs through :meth:`serve`.  Each
    request row runs as its own batch-of-1 forward with ``out=`` pointing at
    that row of the response — the compute path of a predictor serving one
    sample, so an answer does not depend on how the pool coalesced requests.
    Float models (:class:`~repro.inference.CompiledModel`) and secure models
    (:class:`~repro.ppml.SecureCompiledModel`) share that call contract; a
    secure model also leaves each forward's measured ``ProtocolTrace`` on
    ``last_trace``, and its totals ride the timings frame so the pool can
    account for the offline material every answer consumed.

    Preferred storage is a leased **response-ring slot**
    (``ShmRing.assemble``): the response is ready to ship the moment the
    last row lands — zero copies, and on the float path zero heap
    allocations.  When the ring is full (parent stalled) or the batch
    outgrew a slot, the rows land in a pooled arena buffer instead
    (:class:`~repro.inference.buffers.BufferPool` — one allocation ever per
    output geometry) and the respond step retries the ring with a copy.

    The output row geometry of each (model, input row shape) pair is
    discovered on its first batch — one ordinary allocating forward, kept
    as row 0 of that batch — and cached; every later batch of that shape is
    served without asking the heap.
    """

    __slots__ = ("ring", "pool", "_row_geometry")

    def __init__(self, ring=None) -> None:
        from ..inference.buffers import BufferPool

        self.ring = ring
        self.pool = BufferPool()
        #: (id(model), input row shape, dtype) -> output row (shape, dtype)
        self._row_geometry: Dict[tuple, Tuple[tuple, np.dtype]] = {}

    def serve(self, compiled, batch: np.ndarray, batch_id: int,
              request_ids, read_ms: float, response_queue) -> None:
        """Execute one batch into arena storage and ship the answer.

        Raises when a forward fails — the caller turns that into an
        ``errb`` frame; a response slot leased before the failure is
        released here first.
        """
        timings: List[float] = []
        traces: Optional[List[Dict[str, int]]] = (
            [] if hasattr(compiled, "last_trace") else None)
        key = (id(compiled), batch.shape[1:], str(batch.dtype))
        with np.errstate(all="ignore"):          # serving tolerates non-finite
            first = None
            geometry = self._row_geometry.get(key)
            if geometry is None:
                first = _forward(compiled, batch[0:1], None, timings, traces)
                geometry = (tuple(first.shape[1:]), first.dtype)
                self._row_geometry[key] = geometry
            out_shape = (len(batch),) + geometry[0]
            leased = self._lease(out_shape, geometry[1])
            if leased is None:
                leased = (self.pool.get("response", out_shape, geometry[1]), None)
            view, frame = leased
            try:
                start = 0
                if first is not None:
                    np.copyto(view[0:1], first, casting="same_kind")
                    start = 1
                for index in range(start, len(batch)):
                    _forward(compiled, batch[index:index + 1],
                             view[index:index + 1], timings, traces)
            except BaseException:
                if frame is not None:
                    try:
                        self.ring.release(frame.slot, frame.seq)
                    except RuntimeError:   # reclaimed: the parent gave up on us
                        pass
                raise
        payload_timings: Dict[str, Any] = {"read_ms": read_ms,
                                           "compute_ms": timings}
        if traces is not None:
            payload_timings["secure"] = traces
        if frame is None:
            # Arena-buffer fallback: retry the ring now (a slot may have
            # freed during the forwards); failing that, ship a *copy* inline
            # — the queue's feeder thread pickles after put() returns, by
            # which time the next batch may have overwritten the buffer.
            leased = self._lease(out_shape, geometry[1])
            if leased is None:
                response_queue.put(("okb", batch_id, request_ids,
                                    ("inline", np.array(view)), payload_timings))
                return
            np.copyto(leased[0], view)
            frame = leased[1]
        response_queue.put(("okb", batch_id, request_ids, ("shm", frame),
                            payload_timings))

    def _lease(self, shape: tuple, dtype) -> Optional[Tuple[np.ndarray, Any]]:
        """A writable response-ring view plus its frame, or ``None`` when
        there is no ring, the ring is full, or ``shape`` outgrows a slot."""
        if self.ring is None:
            return None
        try:
            slot, seq = self.ring.lease()
        except RingFull:
            return None
        try:
            return self.ring.assemble(slot, seq, shape, dtype)
        except ValueError:                       # the batch outgrew a slot
            self.ring.release(slot, seq)
            return None


def _forward(compiled, row: np.ndarray, out: Optional[np.ndarray],
             timings: List[float],
             traces: Optional[List[Dict[str, int]]]) -> np.ndarray:
    """One timed batch-of-1 forward; records its compute time and, for a
    secure model, its protocol totals."""
    clock = time.perf_counter()
    result = compiled(row, out=out)
    timings.append((time.perf_counter() - clock) * 1000.0)
    if traces is not None:
        traces.append(compiled.last_trace.totals())
    return result


def _batch_tensor(payload, request_ring) -> Tuple[np.ndarray, Optional[Any]]:
    """Materialize a batch payload; returns (array, frame-to-release)."""
    via, data = payload
    if via == "shm":
        if request_ring is None:
            raise RuntimeError("received a shm frame but this worker has no rings")
        return request_ring.read(data), data
    return np.asarray(data, dtype=np.float32), None


def _resolve_compiled(served, meta: Optional[Dict[str, Any]]):
    """The compiled model a batch frame should execute on.

    ``served`` is what :func:`build_serving_predictor` returned: a float
    pool's compiled model runs every frame; a secure pool's predictor runs
    its default compilation when ``meta`` is ``None``, and a per-request
    override dict selects (and lazily compiles) the matching
    :meth:`SecurePredictor.variant`.
    """
    if not meta:
        return getattr(served, "compiled", served)
    return served.variant(protocol=meta.get("protocol"),
                          frac_bits=meta.get("frac_bits"),
                          truncation=meta.get("truncation"))


def _serve_batch(served, message, request_ring, arena: ResponseArena,
                 response_queue) -> None:
    """Answer one ("batch", ...) frame, isolating failures to its requests."""
    _, batch_id, request_ids, payload = message[:4]
    meta = message[4] if len(message) > 4 else None
    frame = None
    try:
        clock = time.perf_counter()
        compiled = _resolve_compiled(served, meta)
        batch, frame = _batch_tensor(payload, request_ring)
        read_ms = (time.perf_counter() - clock) * 1000.0
        arena.serve(compiled, batch, batch_id, request_ids, read_ms,
                    response_queue)
    except BaseException as error:  # noqa: BLE001 — must answer the callers
        response_queue.put(("errb", batch_id, request_ids,
                            f"{type(error).__name__}: {error}"))
    finally:
        if frame is not None:
            try:
                request_ring.release(frame.slot, frame.seq)
            except Exception:   # reclaimed under us — the parent gave up on us
                pass


def worker_main(worker_id: int, spec_dict: Dict[str, Any], state: Dict[str, np.ndarray],
                config_dict: Dict[str, Any], ring_descriptor: Optional[Dict[str, Any]],
                request_queue, response_queue) -> None:
    """Entry point executed inside each pool process.

    Top-level (not a closure) so it imports cleanly under the ``spawn`` start
    method.  ``config_dict`` is the pool's ``ServeConfig.to_dict()`` and
    ``ring_descriptor`` the worker's :meth:`WorkerRings.descriptor` (``None``
    when the pool could not create shared memory: every tensor then travels
    inline).
    """
    import signal

    # A terminal Ctrl+C delivers SIGINT to the whole foreground process
    # group.  The *parent* owns the shutdown (drain, then sentinel/terminate)
    # — a worker that died on the KeyboardInterrupt would fail every request
    # it had in flight instead of draining gracefully.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass

    request_ring = response_ring = None
    if ring_descriptor is not None:
        request_ring, response_ring = WorkerRings.attach(ring_descriptor)

    served = build_serving_predictor(
        spec_dict, state, backend=config_dict.get("backend", "numpy"),
        secure=config_dict if config_dict.get("secure") else None)
    arena = ResponseArena(response_ring)
    response_queue.put(("ready", worker_id, os.getpid()))
    try:
        while True:
            message = request_queue.get()
            if message is None:
                break
            if message[0] == "batch":
                _serve_batch(served, message, request_ring, arena,
                             response_queue)
                continue
            kind, request_id, payload = message
            try:
                result = execute_request(kind, payload)
                response_queue.put(("ok", request_id, result))
            except BaseException as error:  # noqa: BLE001
                response_queue.put(("err", request_id,
                                    f"{type(error).__name__}: {error}"))
    finally:
        response_queue.put(("bye", worker_id))
        for ring in (request_ring, response_ring):
            if ring is not None:
                try:
                    ring.close()
                except Exception:
                    pass
