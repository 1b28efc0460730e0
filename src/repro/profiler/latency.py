"""Latency profiling: training and inference time per batch (Table 3 columns)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..autodiff import no_grad
from ..autodiff.tensor import Tensor
from ..nn.losses import CrossEntropyLoss
from ..nn.module import Module


@dataclass
class LatencyReport:
    """Per-batch timing results in milliseconds."""

    train_ms_per_batch: float
    inference_ms_per_batch: float
    batch_size: int
    warmup_iterations: int
    timed_iterations: int
    #: forward time of the compiled no-grad path (``compiled=True`` only).
    compiled_ms_per_batch: Optional[float] = None
    #: resolved compute-backend name of the compiled timing (None when the
    #: compiled path was not measured).
    compiled_backend: Optional[str] = None

    @property
    def compiled_speedup(self) -> Optional[float]:
        """Eager-inference over compiled-inference time (None if not measured)."""
        if not self.compiled_ms_per_batch:
            return None
        return self.inference_ms_per_batch / self.compiled_ms_per_batch


def _median_ms(samples) -> float:
    return float(np.median(np.asarray(samples)) * 1000.0)


def median_runtime_ms(fn, warmup: int = 1, iterations: int = 3) -> float:
    """Median wall-clock milliseconds of ``fn()`` over ``iterations`` runs.

    The shared timing primitive behind :func:`profile_latency` and the
    inference benchmark's batch sweep.  Two callables compared against each
    other are timed by :func:`paired_runtime_ms` instead.
    """
    samples = []
    for i in range(warmup + iterations):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if i >= warmup:
            samples.append(elapsed)
    return _median_ms(samples)


def paired_runtime_ms(first, second, warmup: int = 1,
                      iterations: int = 3) -> Tuple[float, float, float]:
    """Time ``first()`` and ``second()`` in alternation, on the same footing.

    Each of ``iterations`` pairs runs both once, the order flipping from
    pair to pair, so a slow or quick spell of the host lands on both sides
    of the pairs it spans instead of on one side's whole timing loop.
    Returns ``(first_ms, second_ms, ratio)``: each side's median
    milliseconds and the median of the per-pair ``first / second`` ratios.
    """
    fns = (first, second)
    pairs = []
    for i in range(warmup + iterations):
        pair = [0.0, 0.0]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            fns[side]()
            pair[side] = time.perf_counter() - start
        if i >= warmup:
            pairs.append(pair)
    firsts, seconds = np.asarray(pairs).T
    return _median_ms(firsts), _median_ms(seconds), float(np.median(firsts / seconds))


def profile_latency(model: Module, input_shape: Tuple[int, int, int], batch_size: int = 8,
                    num_classes: Optional[int] = None, warmup: int = 1,
                    iterations: int = 3, seed: int = 0,
                    compiled: bool = False, backend=None) -> LatencyReport:
    """Measure train (forward+backward) and inference (forward-only) time per batch.

    The absolute numbers are CPU times on the NumPy substrate; the benchmark
    tables report them alongside the paper's GPU milliseconds because only the
    *relative* ordering between model variants is expected to transfer.

    With ``compiled=True`` the model is additionally lowered through
    :func:`repro.inference.compile_model` and the compiled forward is timed,
    filling ``compiled_ms_per_batch`` in the report.  ``backend`` selects the
    compute backend of that compiled timing (a :mod:`repro.backends` name or
    instance; ``None`` is the reference engine) and the resolved name is
    recorded in ``compiled_backend``.
    """
    rng = np.random.default_rng(seed)
    c, h, w = input_shape
    x = Tensor(rng.standard_normal((batch_size, c, h, w)).astype(np.float32))
    labels = rng.integers(0, num_classes, size=batch_size) if num_classes else None
    loss_fn = CrossEntropyLoss()

    # ---- training iteration timing
    def train_step() -> None:
        model.zero_grad()
        out = model(x)
        loss = loss_fn(out, labels) if labels is not None and out.ndim == 2 else out.sum()
        loss.backward()

    model.train(True)
    train_ms = median_runtime_ms(train_step, warmup=warmup, iterations=iterations)
    model.zero_grad()

    # ---- inference timing
    model.train(False)
    with no_grad():
        infer_ms = median_runtime_ms(lambda: model(x), warmup=warmup,
                                     iterations=iterations)
    # ---- compiled inference timing (optional; still in eval mode so any
    # fallback modules see the same semantics as the eager timing above)
    compiled_ms = None
    compiled_backend = None
    if compiled:
        from ..inference import compile_model

        compiled_model = compile_model(model, backend=backend)
        compiled_backend = compiled_model.backend.name
        raw = x.data
        compiled_ms = median_runtime_ms(lambda: compiled_model(raw),
                                        warmup=warmup, iterations=iterations)
    model.train(True)

    return LatencyReport(
        train_ms_per_batch=train_ms,
        inference_ms_per_batch=infer_ms,
        batch_size=batch_size,
        warmup_iterations=warmup,
        timed_iterations=iterations,
        compiled_ms_per_batch=compiled_ms,
        compiled_backend=compiled_backend,
    )
