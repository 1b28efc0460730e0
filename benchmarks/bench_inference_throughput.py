"""Inference-engine benchmark: compiled vs eager forward, and serving throughput.

Measures three things on the ``smoke`` preset model (quadratic VGG-8, the CI
canary workload), through the same :func:`repro.inference.measure_serving`
pipeline the ``repro infer`` CLI reports:

1. **Correctness** — the compiled no-grad path must reproduce the default
   autodiff forward to 1e-6 (on this model the two are bit-identical).
2. **Single-sample latency** — the compiled path must be at least 2× faster
   than the default autodiff forward: the median of per-pair ratios, with
   the two forwards timed in alternation so a slow spell of the host lands
   on both sides.  The win comes from three places: no
   ``Function``/``Context`` graph construction, one shared ``im2col`` per
   quadratic layer instead of one per weight projection, and the fused
   ``out=``-buffered combination kernels.
3. **Batched throughput** — samples/second of the compiled path across batch
   sizes, plus the ``BatchedPredictor`` micro-batching pipeline fed one
   sample at a time (the serving scenario).

Run with ``PYTHONPATH=src python benchmarks/bench_inference_throughput.py``.
``--quick`` (or ``REPRO_BENCH_QUICK=1``) is the CI regression-gate mode:
fewer serving samples and a shorter sweep, same assertions — it still fails the
build if the compiled path stops being ≥ 2x faster than eager or stops
matching it numerically, and it still writes the JSON result artifact.
"""

from __future__ import annotations

import os

import numpy as np

from common import append_trajectory, fresh_seed, quick_mode, save_experiment

from repro.experiment import Experiment, get_preset
from repro.inference import measure_serving
from repro.profiler.latency import median_runtime_ms
from repro.utils.logging import format_table

#: timing repetitions per measurement (median is reported); quick mode
#: keeps all 30 eager/compiled pairs (~0.15 s), because with 10 a slow spell
#: of the host over a few pairs could flip the gated median ratio
REPEATS = 30
#: samples pushed through the micro-batching predictor
SERVE_SAMPLES = 128
#: batch sizes for the throughput sweep
BATCH_SIZES = (1, 2, 4, 8, 16)

#: quick (CI gate) mode: same checks, smaller measurement budget
QUICK_SERVE_SAMPLES = 32
QUICK_BATCH_SIZES = (1, 4, 8)

#: acceptance thresholds (the issue's bar for this subsystem)
MIN_SPEEDUP = 2.0
MAX_ABS_DIFF = 1e-6


def main() -> None:
    quick = quick_mode()
    serve_samples = QUICK_SERVE_SAMPLES if quick else SERVE_SAMPLES
    batch_sizes = QUICK_BATCH_SIZES if quick else BATCH_SIZES
    fresh_seed()
    experiment = Experiment(get_preset("smoke"))
    model = experiment.build()
    model.eval()
    compiled = experiment.compile_inference()

    rng = np.random.default_rng(0)
    shape = experiment.spec.data.input_shape
    samples = rng.standard_normal((serve_samples,) + shape).astype(np.float32)

    # ---- 1 + 2 + serving: the shared measurement pipeline
    results = measure_serving(model, compiled, samples, max_batch_size=8,
                              max_wait=0.002, repeats=REPEATS)
    assert results["max_abs_diff"] <= MAX_ABS_DIFF, (
        f"compiled forward diverges from eager: "
        f"max |diff| = {results['max_abs_diff']:.3e}")
    assert results["speedup"] >= MIN_SPEEDUP, (
        f"compiled single-sample forward only {results['speedup']:.2f}x faster "
        f"than eager ({results['compiled_ms_per_sample']:.2f} ms vs "
        f"{results['eager_ms_per_sample']:.2f} ms); expected >= {MIN_SPEEDUP}x")

    # ---- 3. batched throughput sweep
    sweep_rows = []
    sweep_results = []
    for batch_size in batch_sizes:
        batch = rng.standard_normal((batch_size,) + shape).astype(np.float32)
        batch_ms = median_runtime_ms(lambda b=batch: compiled(b),
                                     iterations=REPEATS // 2)
        throughput = batch_size / (batch_ms / 1000.0)
        sweep_rows.append([batch_size, f"{batch_ms:.2f}", f"{throughput:,.0f}"])
        sweep_results.append({"batch_size": batch_size, "ms_per_batch": batch_ms,
                              "samples_per_s": throughput})

    print(format_table(
        ["Metric", "Value"],
        [
            ["max |compiled - eager|",
             f"{results['max_abs_diff']:.2e} (<= {MAX_ABS_DIFF:.0e})"],
            ["eager forward / sample", f"{results['eager_ms_per_sample']:.2f} ms"],
            ["compiled forward / sample",
             f"{results['compiled_ms_per_sample']:.2f} ms"],
            ["speedup", f"{results['speedup']:.2f}x (>= {MIN_SPEEDUP:.0f}x required)"],
            ["serving throughput",
             f"{results['throughput_samples_per_s']:,.0f} samples/s"],
            ["micro-batches", f"{results['batches']} "
                              f"(mean size {results['mean_batch_size']:.1f})"],
        ],
        title="Compiled inference engine (smoke preset, quadratic VGG-8)"
              + (" — quick/CI mode" if quick else ""),
    ))
    print()
    print(format_table(["Batch size", "ms / batch", "samples / s"], sweep_rows,
                       title="Compiled throughput sweep"))

    save_experiment("inference_throughput", {
        "quick_mode": quick,
        **results,
        "throughput_sweep": sweep_results,
    })
    append_trajectory("inference_throughput", {
        "quick_mode": quick,
        "cpus": os.cpu_count() or 1,
        "armed": True,
        "speedup": results["speedup"],
        "eager_ms_per_sample": results["eager_ms_per_sample"],
        "compiled_ms_per_sample": results["compiled_ms_per_sample"],
        "throughput_samples_per_s": results["throughput_samples_per_s"],
    })


if __name__ == "__main__":
    main()
