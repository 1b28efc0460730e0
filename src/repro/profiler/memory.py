"""Training-memory profiler.

The paper's quadratic optimizer decides whether to switch a model to hybrid
back-propagation by first *profiling* its training-memory footprint
(Sec. 4.3, Fig. 5, Fig. 8).  On a GPU that quantity is
``torch.cuda.memory_allocated()``; here the same signal is reconstructed by
observing which arrays the autodiff engine caches for the backward pass:

* every ``ctx.save_for_backward`` reports its arrays ("save" events),
* every node release after backward reports them again ("release" events),
* arrays are de-duplicated by identity, so an input reused by three
  convolutions inside one quadratic layer is only counted once — matching how
  a real allocator would behave.

Two front-ends are provided:

``MemoryTracker``
    low-level context manager that records a timeline of cached-intermediate
    bytes across a forward+backward iteration (the curve of Fig. 8);

``estimate_training_memory``
    one-shot estimate of a model's total training footprint (parameters +
    gradients + optimizer state + cached activations), with the per-sample
    activation cost measured as the slope between two probe batch sizes and
    scaled linearly to the requested batch size — this regenerates Fig. 5
    without a GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autodiff import hooks
from ..autodiff.function import Context
from ..autodiff.tensor import Tensor
from ..nn.losses import CrossEntropyLoss
from ..nn.module import Module

# Patch point: Context.save_for_backward already notifies total bytes, but for
# identity-level de-duplication the tracker also needs the arrays themselves.
# We wrap save_for_backward/release_saved once at import time so that, when a
# tracker is active, it receives the array ids.

_active_trackers: List["MemoryTracker"] = []

_original_save = Context.save_for_backward
_original_release = Context.release_saved


def _tracked_save(self: Context, *arrays: np.ndarray) -> None:
    _original_save(self, *arrays)
    # Only report what was actually cached (no_grad saves nothing).
    if _active_trackers and self._saved:
        for tracker in _active_trackers:
            tracker._on_save(arrays, self.op_name)


def _tracked_release(self: Context) -> None:
    if _active_trackers and self._saved:
        for tracker in _active_trackers:
            tracker._on_release(self._saved, self.op_name)
    _original_release(self)


Context.save_for_backward = _tracked_save      # type: ignore[method-assign]
Context.release_saved = _tracked_release       # type: ignore[method-assign]


@dataclass
class MemorySample:
    """One point on the cached-intermediate-bytes timeline."""

    event_index: int
    event: str
    op_name: str
    cached_bytes: int


class MemoryTracker:
    """Record cached-for-backward bytes over a forward/backward iteration.

    Usage::

        with MemoryTracker() as tracker:
            loss = model(x).sum()
            loss.backward()
        print(tracker.peak_bytes, tracker.current_bytes)
        curve = tracker.timeline_bytes()   # Fig. 8 style curve
    """

    def __init__(self) -> None:
        self._refcounts: Dict[int, int] = {}
        self._sizes: Dict[int, int] = {}
        self.current_bytes = 0
        self.peak_bytes = 0
        self.samples: List[MemorySample] = []
        self._event_index = 0

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "MemoryTracker":
        _active_trackers.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            _active_trackers.remove(self)
        except ValueError:
            pass

    # ---------------------------------------------------------------- events
    def _on_save(self, arrays: Tuple[np.ndarray, ...], op_name: str) -> None:
        for array in arrays:
            if not isinstance(array, np.ndarray):
                continue
            key = id(array)
            if key in self._refcounts:
                self._refcounts[key] += 1
            else:
                self._refcounts[key] = 1
                self._sizes[key] = array.nbytes
                self.current_bytes += array.nbytes
        self.peak_bytes = max(self.peak_bytes, self.current_bytes)
        self._record("save", op_name)

    def _on_release(self, arrays: Tuple[np.ndarray, ...], op_name: str) -> None:
        for array in arrays:
            if not isinstance(array, np.ndarray):
                continue
            key = id(array)
            if key not in self._refcounts:
                continue
            self._refcounts[key] -= 1
            if self._refcounts[key] <= 0:
                self.current_bytes -= self._sizes.pop(key)
                del self._refcounts[key]
        self._record("release", op_name)

    def _record(self, event: str, op_name: str) -> None:
        self.samples.append(
            MemorySample(self._event_index, event, op_name, self.current_bytes)
        )
        self._event_index += 1

    # ----------------------------------------------------------------- views
    def timeline_bytes(self) -> List[int]:
        """Cached-intermediate bytes after every save/release event."""
        return [sample.cached_bytes for sample in self.samples]

    def per_op_peak(self) -> Dict[str, int]:
        """Peak cached bytes attributed to each op name (coarse attribution)."""
        peaks: Dict[str, int] = {}
        for sample in self.samples:
            peaks[sample.op_name] = max(peaks.get(sample.op_name, 0), sample.cached_bytes)
        return peaks


@dataclass
class MemoryEstimate:
    """Breakdown of a model's training-memory footprint."""

    parameter_bytes: int
    gradient_bytes: int
    optimizer_state_bytes: int
    activation_bytes_per_sample: float
    probe_batch_size: int

    def total_bytes(self, batch_size: int) -> float:
        """Estimated footprint at the given batch size (activations scale linearly)."""
        return (
            self.parameter_bytes
            + self.gradient_bytes
            + self.optimizer_state_bytes
            + self.activation_bytes_per_sample * batch_size
        )

    def total_gib(self, batch_size: int) -> float:
        return self.total_bytes(batch_size) / (1024 ** 3)


#: Memory budgets (bytes) of the GPUs shown as horizontal lines in Fig. 5.
GPU_MEMORY_BUDGETS = {
    "GTX 1080 Ti": 11 * 1024 ** 3,
    "RTX 2080": 8 * 1024 ** 3,
    "TITAN X": 12 * 1024 ** 3,
}


def estimate_training_memory(model: Module, input_shape: Tuple[int, int, int],
                             probe_batch_size: int = 2, num_classes: Optional[int] = None,
                             optimizer_states_per_param: int = 1) -> MemoryEstimate:
    """Measure a model's training-memory footprint with a probe iteration.

    Parameters
    ----------
    model : Module
        Classification-style model mapping (N, C, H, W) to (N, num_classes).
    input_shape : (C, H, W)
    probe_batch_size : int
        One probe forward/backward runs at this batch size and one at twice
        it.  Cached bytes grow linearly with the batch; the slope is the
        per-sample activation cost.  The intercept — the weights each conv
        and linear node saves, which ``parameter_bytes`` already counts, and
        a few small arrays — is not scaled with the batch.
    num_classes : int, optional
        If given, a cross-entropy loss on random labels is used so that the
        probe exercises the same graph as real training.
    optimizer_states_per_param : int
        1 for SGD+momentum, 2 for Adam.
    """
    was_training = model.training
    model.train(True)
    c, h, w = input_shape
    rng = np.random.default_rng(0)
    peaks = []
    for batch_size in (probe_batch_size, 2 * probe_batch_size):
        x = Tensor(rng.standard_normal((batch_size, c, h, w)).astype(np.float32))
        with MemoryTracker() as tracker:
            out = model(x)
            if num_classes is not None and out.ndim == 2:
                labels = rng.integers(0, num_classes, size=batch_size)
                loss = CrossEntropyLoss()(out, labels)
            else:
                loss = out.sum()
            loss.backward()
        model.zero_grad()
        peaks.append(tracker.peak_bytes)
    model.train(was_training)

    param_bytes = sum(p.nbytes for p in model.parameters())
    return MemoryEstimate(
        parameter_bytes=param_bytes,
        gradient_bytes=param_bytes,
        optimizer_state_bytes=optimizer_states_per_param * param_bytes,
        activation_bytes_per_sample=(peaks[1] - peaks[0]) / probe_batch_size,
        probe_batch_size=probe_batch_size,
    )
