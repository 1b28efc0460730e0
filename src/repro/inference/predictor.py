"""Micro-batching predictor over the compiled inference path.

Serving traffic arrives one sample at a time, but the compiled forward (like
any BLAS-backed forward) is far more efficient on small batches: the im2col
lowering, the projection matmuls and the fused combines all amortise their
per-call overhead across rows.  :class:`BatchedPredictor` bridges the two —
callers submit single samples, a background worker coalesces whatever is
queued within ``max_wait`` seconds (up to ``max_batch_size``) into one
compiled forward, and each caller gets its own row of the result.

Every compiled layer is row-independent under running-statistics batch norm,
so micro-batching never changes a sample's prediction (beyond float
associativity inside BLAS, well below 1e-5).
"""

from __future__ import annotations

import collections
import queue
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Union

import numpy as np

from ..nn.module import Module
from .buffers import BufferPool
from .compiler import CompiledModel, compile_model

#: Sentinel instructing the worker thread to drain and exit.
_STOP = object()


@dataclass
class PredictorStats:
    """Counters describing how well micro-batching amortised the forwards."""

    requests: int = 0
    batches: int = 0
    batched_samples: int = 0
    max_batch_size_seen: int = 0
    #: sliding window of recent batch sizes (bounded so long-running serving
    #: does not grow memory; aggregates above cover the full history).
    batch_sizes: Deque[int] = field(
        default_factory=lambda: collections.deque(maxlen=1024))

    @property
    def mean_batch_size(self) -> float:
        return self.batched_samples / self.batches if self.batches else 0.0

    def record(self, batch_size: int) -> None:
        self.batches += 1
        self.batched_samples += batch_size
        self.max_batch_size_seen = max(self.max_batch_size_seen, batch_size)
        self.batch_sizes.append(batch_size)


class PendingPrediction:
    """Future-style handle for one submitted sample."""

    __slots__ = ("sample", "_event", "_value", "_error")

    def __init__(self, sample: np.ndarray) -> None:
        self.sample = sample
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    def _resolve(self, value: np.ndarray) -> None:
        self._value = value
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = 30.0) -> np.ndarray:
        """Block until this sample's prediction is available."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"prediction not ready after {timeout}s (predictor closed or stalled?)")
        if self._error is not None:
            raise self._error
        return self._value


class BatchedPredictor:
    """Serve single samples through micro-batched compiled forwards.

    Parameters
    ----------
    model : Module or CompiledModel
        A model to compile (modules are compiled on construction) or an
        already-compiled one.
    max_batch_size : int
        Upper bound on samples coalesced into one forward.
    max_wait : float
        Seconds the worker waits for more samples after the first arrives.
        ``0`` batches only what is already queued (lowest latency).
    backend : str, Backend or None
        Compute backend for the compiled forward (see
        :mod:`repro.backends`); ignored when ``model`` is already compiled.
    autostart : bool
        Start the worker thread on the first :meth:`submit`.  Disable to
        enqueue work first and start explicitly (deterministic batching, used
        by the tests and benchmarks).

    Example
    -------
    >>> predictor = BatchedPredictor(model, max_batch_size=8)
    >>> logits = predictor.predict(sample)          # blocking single call
    >>> handles = [predictor.submit(s) for s in samples]   # async fan-in
    >>> outputs = [h.result() for h in handles]
    >>> predictor.close()
    """

    def __init__(self, model: Union[Module, CompiledModel], max_batch_size: int = 8,
                 max_wait: float = 0.002, pool: Optional[BufferPool] = None,
                 backend=None, autostart: bool = True) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        self.compiled = (model if isinstance(model, CompiledModel)
                         else compile_model(model, pool=pool, backend=backend))
        if max_batch_size > 1 and self.compiled.batch_dependent_modules:
            warnings.warn(
                "this model normalizes with batch statistics (BatchNorm without "
                "running stats); micro-batching makes each prediction depend on "
                "its batch mates — use max_batch_size=1 for sample-independent "
                "outputs", RuntimeWarning, stacklevel=2)
        self.max_batch_size = int(max_batch_size)
        self.max_wait = float(max_wait)
        self.stats = PredictorStats()
        self._autostart = autostart
        self._queue: "queue.Queue" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._closed = False

    # ----------------------------------------------------------- async serving
    def submit(self, sample: np.ndarray) -> PendingPrediction:
        """Enqueue one sample (without its batch axis); returns a handle."""
        pending = PendingPrediction(np.asarray(sample, dtype=np.float32))
        # The closed check and the enqueue share the lock with close(), so a
        # sample can never slip in behind the stop sentinel and hang.
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "cannot submit: this predictor has been shut down; create a "
                    "new BatchedPredictor to serve more samples")
            self.stats.requests += 1
            self._queue.put(pending)
        if self._autostart:
            self.start()
        return pending

    def predict(self, sample: np.ndarray, timeout: Optional[float] = 30.0) -> np.ndarray:
        """Blocking convenience wrapper: submit one sample, wait for its row."""
        return self.submit(sample).result(timeout=timeout)

    def start(self) -> "BatchedPredictor":
        """Start the worker thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise RuntimeError(
                    "cannot start: this predictor has been shut down; create a "
                    "new BatchedPredictor to serve more samples")
            if self._worker is None or not self._worker.is_alive():
                # Always a daemon: an abandoned predictor (close() never
                # called) must not keep the interpreter alive at exit.
                self._worker = threading.Thread(target=self._serve, daemon=True,
                                                name="repro-batched-predictor")
                self._worker.start()
        return self

    # ------------------------------------------------------ synchronous serving
    def predict_batch(self, samples: np.ndarray) -> np.ndarray:
        """Run a whole array of samples directly, chunked by ``max_batch_size``.

        Bypasses the queue and worker thread — use for offline evaluation
        where all inputs are already in hand.
        """
        samples = np.asarray(samples, dtype=np.float32)
        outputs = []
        for begin in range(0, len(samples), self.max_batch_size):
            chunk = samples[begin:begin + self.max_batch_size]
            outputs.append(self.compiled(chunk))
            self.stats.requests += len(chunk)
            self.stats.record(len(chunk))
        return np.concatenate(outputs, axis=0)

    # ------------------------------------------------------------------ worker
    def _serve(self) -> None:
        while True:
            try:
                # A bounded wait (rather than a bare get()) so the worker can
                # notice a close() whose stop sentinel was lost — e.g. drained
                # by a timed-out close while a slow batch was in flight.
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._closed:
                    break
                continue
            if item is _STOP:
                break
            batch = [item]
            deadline = time.perf_counter() + self.max_wait
            stop_after_batch = False
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.perf_counter()
                try:
                    if remaining > 0:
                        extra = self._queue.get(timeout=remaining)
                    else:
                        extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    stop_after_batch = True
                    break
                batch.append(extra)
            self._run_batch(batch)
            if stop_after_batch:
                break

    def _run_batch(self, batch: List[PendingPrediction]) -> None:
        try:
            stacked = np.stack([pending.sample for pending in batch])
            # Like the trainers, serving tolerates non-finite intermediates;
            # errstate is thread-local so the worker sets its own.
            with np.errstate(all="ignore"):
                outputs = self.compiled(stacked)
            self.stats.record(len(batch))
            for row, pending in enumerate(batch):
                pending._resolve(outputs[row])
        except BaseException as error:  # propagate to every waiting caller
            for pending in batch:
                pending._reject(error)

    # ---------------------------------------------------------------- lifecycle
    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker after it drains the queue (idempotent, any thread).

        Samples the worker never got to — it was never started, or it timed
        out — are rejected so no caller blocks forever on a dead handle.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
            self._queue.put(_STOP)
        if worker is not None and worker.is_alive():
            worker.join(timeout)
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is not _STOP:
                leftover._reject(RuntimeError(
                    "predictor closed before this sample was served"))

    def __enter__(self) -> "BatchedPredictor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"BatchedPredictor(max_batch_size={self.max_batch_size}, "
                f"max_wait={self.max_wait}, {self.compiled!r})")
