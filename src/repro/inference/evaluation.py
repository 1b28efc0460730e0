"""Shared compiled-vs-eager measurement pipeline.

Both user-facing surfaces that report on the inference engine — the
``repro infer`` CLI subcommand and ``benchmarks/bench_inference_throughput``
— need the same three measurements: does the compiled path reproduce the
eager forward, how much faster is a single sample, and what does the
micro-batching predictor sustain.  This module is the single implementation
so the two surfaces can never drift apart in *how* they measure.
"""

from __future__ import annotations

import time
from typing import Any, Dict

import numpy as np

from ..autodiff.tensor import Tensor
from ..nn.module import Module
from ..profiler.latency import paired_runtime_ms
from .compiler import CompiledModel
from .predictor import BatchedPredictor


def max_abs_diff(expected: np.ndarray, actual: np.ndarray) -> float:
    """Maximum absolute difference, treating *matching* non-finite values as 0.

    Untrained quadratic models can overflow in eval mode; when both paths
    produce the same ``inf``/``nan`` at the same position that is agreement,
    not error.  A non-finite value on one side only (or differing infinities)
    still surfaces as ``inf``/``nan``.
    """
    agree = (~np.isfinite(expected)) & (expected == actual)
    agree |= np.isnan(expected) & np.isnan(actual)
    with np.errstate(invalid="ignore"):      # inf - inf only where ``agree`` masks it
        diff = np.where(agree, 0.0, np.abs(actual - expected))
    return float(np.max(diff))


def measure_serving(model: Module, compiled: CompiledModel, samples: np.ndarray,
                    *, max_batch_size: int = 8, max_wait: float = 0.002,
                    repeats: int = 5) -> Dict[str, Any]:
    """Run the standard inference-engine comparison on ``samples``.

    Returns a JSON-serializable dict with the correctness check
    (``max_abs_diff`` of compiled vs eager on one sample), the single-sample
    latency pair and speedup, and the micro-batched serving throughput over
    all of ``samples``.  The two forwards are timed in alternation
    (:func:`~repro.profiler.latency.paired_runtime_ms`): ``speedup`` is the
    median of the per-pair eager/compiled ratios, and the per-side medians
    ride along.  The eager model is measured in eval mode (and
    restored afterwards) — the comparison is against inference semantics, and
    a training-mode forward would corrupt BatchNorm running statistics as a
    side effect of measuring.
    """
    samples = np.asarray(samples, dtype=np.float32)
    single = samples[:1]
    was_training = model.training
    model.train(False)
    try:
        with np.errstate(all="ignore"):
            eager_out = model(Tensor(single)).data
            compiled_out = compiled(single)
            diff = max_abs_diff(eager_out, compiled_out)

            eager_ms, compiled_ms, speedup = paired_runtime_ms(
                lambda: model(Tensor(single)), lambda: compiled(single),
                iterations=repeats)

            predictor = BatchedPredictor(compiled, max_batch_size=max_batch_size,
                                         max_wait=max_wait, autostart=False)
            try:
                handles = [predictor.submit(sample) for sample in samples]
                start = time.perf_counter()
                predictor.start()
                for handle in handles:
                    handle.result()
                elapsed = time.perf_counter() - start
            finally:
                predictor.close()
    finally:
        model.train(was_training)
    stats = predictor.stats
    return {
        "compiled_steps": compiled.num_steps,
        "fallback_modules": len(compiled.fallback_modules),
        "max_abs_diff": diff,
        "eager_ms_per_sample": eager_ms,
        "compiled_ms_per_sample": compiled_ms,
        "speedup": speedup,
        "samples": int(len(samples)),
        "serve_seconds": elapsed,
        "throughput_samples_per_s": (len(samples) / elapsed if elapsed > 0
                                     else float("inf")),
        "batches": stats.batches,
        "mean_batch_size": stats.mean_batch_size,
    }
