"""Prefetching data-pipeline benchmark: overlap batch assembly with compute.

Trains one epoch's worth of batches on a transform-heavy classification
config twice — once through the synchronous :class:`DataLoader`, once through
:class:`PrefetchDataLoader` (background worker + bounded queue) — and
measures the wall-clock of the loop.  Two properties are checked:

1. **Numerics**: the prefetched batch stream is bit-identical to the
   synchronous one (order, shuffling, per-sample transform RNG draws).  This
   is asserted unconditionally, at every core count, in every mode.
2. **Overlap**: on a host with parallelism headroom (>= 2 cores) the
   prefetched loop must run at least ``MIN_SPEEDUP`` (1.1x) faster, and the
   run **fails** otherwise — the CI regression gate for the pipeline.  On a
   single core there is nothing to overlap onto, so the ratio is reported
   but not asserted (the report says so explicitly).

Run with ``PYTHONPATH=src python benchmarks/bench_dataloader_prefetch.py``;
``--quick`` / ``REPRO_BENCH_QUICK=1`` is the CI mode (smaller sweep).
"""

from __future__ import annotations

import os
import time

import numpy as np

from common import append_trajectory, fresh_seed, quick_mode, save_experiment

from repro.autodiff.tensor import Tensor
from repro.data import DataLoader, PrefetchDataLoader, TransformDataset, transforms
from repro.data.synthetic import SyntheticImageClassification
from repro.nn.losses import CrossEntropyLoss
from repro.optim.sgd import SGD
from repro.utils.logging import format_table

#: dataset size / geometry (transform cost scales with resolution)
SAMPLES, IMAGE_SIZE, NUM_CLASSES, BATCH = 256, 32, 6, 16
QUICK_SAMPLES = 128
#: timed epochs per pipeline (the first is a warmup)
REPEATS = 3
QUICK_REPEATS = 2
#: prefetch queue depth under test
DEPTH = 4

#: the acceptance bar: prefetched epoch time vs synchronous epoch time
MIN_SPEEDUP = 1.1


def heavy_dataset(num_samples: int) -> TransformDataset:
    """A classification set whose per-sample assembly is deliberately expensive."""
    base = SyntheticImageClassification(num_samples=num_samples, num_classes=NUM_CLASSES,
                                        image_size=IMAGE_SIZE, seed=0)
    pipeline = transforms.Compose([
        transforms.RandomCrop(IMAGE_SIZE, padding=4, seed=1),
        transforms.RandomHorizontalFlip(seed=2),
        transforms.GaussianNoise(0.05, seed=3),
        # A deliberately transform-heavy tail: repeated separable blurs stand
        # in for the decode/augment cost of a real ingestion pipeline.
        _blur_stack(iterations=6),
        transforms.Normalize(mean=(0.5, 0.5, 0.5), std=(0.25, 0.25, 0.25)),
    ])
    return TransformDataset(base, pipeline)


def _blur_stack(iterations: int):
    kernel = np.array([0.25, 0.5, 0.25], dtype=np.float32)

    def blur(image: np.ndarray) -> np.ndarray:
        out = image
        for _ in range(iterations):
            out = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, out)
            out = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 2, out)
        return out.astype(np.float32)

    return blur


def _model():
    from repro.builder import QuadraticModelConfig
    from repro.models import SmallConvNet

    return SmallConvNet(num_classes=NUM_CLASSES, image_size=IMAGE_SIZE,
                        config=QuadraticModelConfig(width_multiplier=0.5))


def collect_batches(loader) -> list:
    return [(np.array(images), np.array(labels)) for images, labels in loader]


def timed_epochs(loader, model, repeats: int) -> float:
    """Seconds per epoch of a realistic train loop over ``loader`` (best of N)."""
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    loss_fn = CrossEntropyLoss()
    best = float("inf")
    for repeat in range(repeats + 1):  # +1 warmup epoch
        start = time.perf_counter()
        for images, labels in loader:
            optimizer.zero_grad()
            loss = loss_fn(model(Tensor(np.asarray(images, dtype=np.float32))), labels)
            loss.backward()
            optimizer.step()
        elapsed = time.perf_counter() - start
        if repeat > 0:
            best = min(best, elapsed)
    return best


def main() -> None:
    quick = quick_mode()
    fresh_seed()
    num_samples = QUICK_SAMPLES if quick else SAMPLES
    repeats = QUICK_REPEATS if quick else REPEATS
    cores = os.cpu_count() or 1

    def sync_loader():
        return DataLoader(heavy_dataset(num_samples), batch_size=BATCH, shuffle=True,
                          drop_last=True, seed=5)

    # ---- 1. numerics: the prefetched stream must be bit-identical.
    sync_stream = collect_batches(sync_loader())
    prefetch_stream = collect_batches(PrefetchDataLoader(sync_loader(), depth=DEPTH))
    assert len(sync_stream) == len(prefetch_stream)
    for (sync_images, sync_labels), (pf_images, pf_labels) in zip(sync_stream,
                                                                  prefetch_stream):
        assert np.array_equal(sync_images, pf_images), "prefetch changed batch numerics"
        assert np.array_equal(sync_labels, pf_labels), "prefetch changed batch order"

    # ---- 2. overlap: time the same training loop over both pipelines.
    fresh_seed(1)
    sync_seconds = timed_epochs(sync_loader(), _model(), repeats)
    fresh_seed(1)
    prefetch_seconds = timed_epochs(PrefetchDataLoader(sync_loader(), depth=DEPTH),
                                    _model(), repeats)
    speedup = sync_seconds / prefetch_seconds if prefetch_seconds > 0 else float("inf")

    gate_armed = cores >= 2
    rows = [
        ["synchronous DataLoader", f"{sync_seconds * 1000:.0f} ms/epoch", "baseline"],
        ["PrefetchDataLoader", f"{prefetch_seconds * 1000:.0f} ms/epoch",
         f"{speedup:.2f}x"],
    ]
    note = (f"gate: >= {MIN_SPEEDUP}x on {cores} cores" if gate_armed else
            f"{cores} cpu(s), nothing to overlap onto: ratio reported, not asserted")
    print(format_table(
        ["Pipeline", "Epoch time", "Speedup"], rows,
        title=f"Batch-assembly overlap, transform-heavy config "
              f"({num_samples} samples @ {IMAGE_SIZE}px, depth {DEPTH}) — {note}"))

    save_experiment("dataloader_prefetch", {
        "quick": quick,
        "cores": cores,
        "samples": num_samples,
        "batch_size": BATCH,
        "depth": DEPTH,
        "sync_seconds_per_epoch": sync_seconds,
        "prefetch_seconds_per_epoch": prefetch_seconds,
        "speedup": speedup,
        "bit_identical": True,
        "gate_armed": gate_armed,
        "min_speedup": MIN_SPEEDUP,
    })
    append_trajectory("dataloader_prefetch", {
        "quick_mode": quick,
        "cpus": cores,
        "armed": gate_armed,
        "speedup": speedup,
    })

    if gate_armed:
        assert speedup >= MIN_SPEEDUP, (
            f"prefetching pipeline regressed: {speedup:.2f}x < {MIN_SPEEDUP}x "
            f"on a {cores}-core host")


if __name__ == "__main__":
    main()
