"""Fig. 8 — cached-memory profile of one training iteration: default vs. hybrid BP.

The paper instruments a small ConvNet (3 conv + 2 FC layers, batch 256,
32×32 inputs) with ``torch.cuda.memory_allocated()`` and shows that the
hybrid back-propagation scheme reduces the peak memory of a forward+backward
iteration by ~26.7% (3.0 GB → 2.2 GB).  This benchmark reproduces the same
curve with the allocation tracker: cached-intermediate bytes over the events
of one iteration, for the default quadratic ConvNet (each quadratic
convolution node keeps the responses its backward reads) and the hybrid-BP
one (the node keeps only its input and weights and recomputes the responses).
"""

import numpy as np
import pytest

from common import fresh_seed, mb, save_experiment
from repro.analysis import ascii_line_chart
from repro.autodiff import Tensor
from repro.builder import QuadraticModelConfig
from repro.models import SmallConvNet
from repro.nn.losses import CrossEntropyLoss
from repro.profiler import MemoryTracker
from repro.utils import print_table

BATCH = 64          # paper: 256
IMAGE = 32          # paper: 32
NUM_CLASSES = 10


def _one_iteration_peak(model, images, labels):
    loss_fn = CrossEntropyLoss()
    with MemoryTracker() as tracker:
        loss = loss_fn(model(Tensor(images)), labels)
        forward_peak = tracker.current_bytes
        loss.backward()
    model.zero_grad()
    return tracker, forward_peak


def test_fig8_hybrid_bp_memory_curve(benchmark):
    fresh_seed(8)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((BATCH, 3, IMAGE, IMAGE)).astype(np.float32)
    labels = rng.integers(0, NUM_CLASSES, size=BATCH)

    default_model = SmallConvNet(num_classes=NUM_CLASSES, image_size=IMAGE,
                                 config=QuadraticModelConfig(neuron_type="OURS",
                                                             width_multiplier=0.5))
    hybrid_model = SmallConvNet(num_classes=NUM_CLASSES, image_size=IMAGE,
                                config=QuadraticModelConfig(neuron_type="OURS", hybrid_bp=True,
                                                            width_multiplier=0.5))

    default_tracker, default_forward_peak = _one_iteration_peak(default_model, images, labels)
    hybrid_tracker, hybrid_forward_peak = _one_iteration_peak(hybrid_model, images, labels)

    saving = 1.0 - hybrid_tracker.peak_bytes / default_tracker.peak_bytes
    rows = [
        ["Default BP (responses kept)", round(mb(default_forward_peak), 1),
         round(mb(default_tracker.peak_bytes), 1), "-"],
        ["Hybrid BP (recomputed)", round(mb(hybrid_forward_peak), 1),
         round(mb(hybrid_tracker.peak_bytes), 1), f"{saving * 100:.1f}%"],
    ]
    print()
    print_table(["Scheme", "End-of-forward (MiB)", "Peak of iteration (MiB)", "Saving"],
                rows, title=f"Fig. 8 (reproduced, scaled): ConvNet iteration memory, batch {BATCH}")

    # Down-sampled memory curves (the Fig. 8 lines) for the results file.
    def downsample(curve, points=40):
        if len(curve) <= points:
            return [float(v) for v in curve]
        idx = np.linspace(0, len(curve) - 1, points).astype(int)
        return [float(curve[i]) for i in idx]

    default_curve = downsample(default_tracker.timeline_bytes())
    hybrid_curve = downsample(hybrid_tracker.timeline_bytes())
    print()
    print(ascii_line_chart(
        {"Default BP": [mb(v) for v in default_curve],
         "Hybrid BP": [mb(v) for v in hybrid_curve]},
        width=56, height=10,
        title="Fig. 8 (ASCII): cached memory over one iteration (forward then backward)",
        y_label="cached MiB", x_label="iteration progress (start -> end)"))

    save_experiment("fig8_hybrid_bp", {
        "default_peak_bytes": default_tracker.peak_bytes,
        "hybrid_peak_bytes": hybrid_tracker.peak_bytes,
        "saving_fraction": saving,
        "default_curve_bytes": default_curve,
        "hybrid_curve_bytes": hybrid_curve,
    })

    # The paper reports ~26.7% saving; the substrate should land in a broad
    # band around that (the exact fraction depends on layer widths).
    assert 0.10 < saving < 0.80
    # Memory must return to zero after backward in both schemes.
    assert default_tracker.current_bytes == 0
    assert hybrid_tracker.current_bytes == 0

    # Timed kernel: one full hybrid-BP iteration.
    loss_fn = CrossEntropyLoss()

    def hybrid_step():
        hybrid_model.zero_grad()
        loss = loss_fn(hybrid_model(Tensor(images[:16])), labels[:16])
        loss.backward()
        return loss.item()

    benchmark(hybrid_step)
