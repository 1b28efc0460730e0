"""Compute-backend benchmark: the engine sweep behind ``compile_model``.

Runs the same compiled model through every registered :mod:`repro.backends`
engine and reports throughput plus bit-identity against the reference
engine:

1. ``numpy`` — the reference bits (and the throughput denominator),
2. ``threaded`` — must be **bit-identical** to ``numpy`` at any thread
   count (that assertion always runs, even on a 1-core box where the
   threads cannot help), and must reach ``MIN_SPEEDUP`` over the reference
   when the host has parallelism headroom (>= 3 cores; the gate is the CI
   regression bar for the backend subsystem).

The graph-optimizer report of the compiled plan is printed alongside, so a
rewrite-count regression shows up in the same place as a throughput one.

Run with ``PYTHONPATH=src python benchmarks/bench_backend_throughput.py``;
``--quick`` / ``REPRO_BENCH_QUICK=1`` is the CI mode (smaller batch, fewer
repeats, one model).
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import WIDTH, append_trajectory, fresh_seed, quick_mode, save_experiment

from repro.backends import ThreadedBackend, backend_names
from repro.experiment import ModelSpec
from repro.inference import compile_model
from repro.utils.logging import format_table

#: models swept (quick mode keeps the first — the conv-heavy one)
MODEL_NAMES = ("vgg8", "resnet20")
QUICK_MODEL_NAMES = ("vgg8",)
#: forward batch and timing repeats
BATCH, REPEATS = 32, 12
QUICK_BATCH, QUICK_REPEATS = 16, 4

#: the acceptance bar: threaded vs numpy, armed only with >= 3 cores
MIN_SPEEDUP = 2.0


def build(name: str):
    fresh_seed()
    spec = ModelSpec(name=name, neuron_type="OURS", num_classes=4,
                     width_multiplier=WIDTH)
    model = spec.build()
    model.eval()
    return model


def measure(compiled, x: np.ndarray, repeats: int) -> float:
    """Samples/second of one compiled engine (median of ``repeats`` runs)."""
    compiled(x)                      # warm: probes run, buffers allocate
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        compiled(x)
        times.append(time.perf_counter() - start)
    return x.shape[0] / float(np.median(times))


def main() -> None:
    quick = quick_mode()
    model_names = QUICK_MODEL_NAMES if quick else MODEL_NAMES
    batch = QUICK_BATCH if quick else BATCH
    repeats = QUICK_REPEATS if quick else REPEATS
    cores = os.cpu_count() or 1
    # Same arming rule as the serving gate: the speedup needs cores for the
    # worker threads *and* the main thread; exactness is asserted regardless.
    enforce = cores >= 3

    rows, results = [], []
    for name in model_names:
        model = build(name)
        rng = np.random.default_rng(0)
        x = (0.1 * rng.standard_normal((batch, 3, 32, 32))).astype(np.float32)

        engines = {
            "numpy": compile_model(model, backend="numpy"),
            # Thread count pinned >= 4 so the bit-identity assertion below
            # exercises real splits even on a 1-core CI runner.
            "threaded": compile_model(
                model, backend=ThreadedBackend(num_threads=max(4, cores))),
        }
        assert set(engines) == set(backend_names()), (
            "benchmark sweep drifted from the backend registry: "
            f"{sorted(engines)} vs {sorted(backend_names())}")

        reference = engines["numpy"](x).copy()
        assert np.isfinite(reference).all()

        # Exactness bar (always asserted, at any core count).
        threaded_out = engines["threaded"](x)
        assert np.array_equal(threaded_out, reference), (
            f"threaded backend diverged from reference bits on {name}")

        report = engines["numpy"].optimization
        sweep = {}
        baseline = measure(engines["numpy"], x, repeats)
        for backend in backend_names():
            rate = (baseline if backend == "numpy"
                    else measure(engines[backend], x, repeats))
            speedup = rate / baseline
            sweep[backend] = {"samples_per_s": rate, "vs_numpy": speedup}
            rows.append([name, backend, f"{rate:,.0f}", f"{speedup:.2f}x"])
        results.append({
            "model": name,
            "optimizer": report.to_dict(),
            "optimizer_rewrites": report.total_rewrites,
            "backends": sweep,
        })

    note = (f"gate: threaded >= {MIN_SPEEDUP}x" if enforce else
            f"{cores} cpu(s): speedup reported, not asserted")
    print(format_table(
        ["Model", "Backend", "samples / s", "vs numpy"], rows,
        title=f"Backend throughput (batch {batch}, {cores} cpus) — {note}"))

    save_experiment("backend_throughput", {
        "quick_mode": quick,
        "cpus": cores,
        "batch": batch,
        "speedup_enforced": enforce,
        "min_speedup": MIN_SPEEDUP,
        "models": results,
    })
    # The first model (vgg8, the one quick mode runs) is the headline.
    headline = results[0]
    append_trajectory("backend_throughput", {
        "quick_mode": quick,
        "cpus": cores,
        "batch": batch,
        "model": headline["model"],
        "armed": enforce,
        **{f"{backend}_samples_per_s": entry["samples_per_s"]
           for backend, entry in headline["backends"].items()},
    })

    if enforce:
        best = max(entry["backends"]["threaded"]["vs_numpy"] for entry in results)
        assert best >= MIN_SPEEDUP, (
            f"threaded backend regression: best speedup is only {best:.2f}x "
            f"the reference engine (gate: {MIN_SPEEDUP}x)")
        print(f"\nbackend gate passed: threaded {best:.2f}x >= {MIN_SPEEDUP}x; "
              "bit-identity asserted above")
    else:
        print(f"\nspeedup gate skipped: {cores} cpu(s) leave no headroom — "
              "bit-identity was still asserted")


if __name__ == "__main__":
    main()
