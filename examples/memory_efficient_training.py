"""Hybrid back-propagation: train a QDNN with less memory (paper Sec. 4.3 / Fig. 8).

Run with::

    python examples/memory_efficient_training.py

The script profiles one forward+backward iteration of the same quadratic
ConvNet under the two policies of the quadratic convolution node — keep the
responses its backward reads (default) or keep only the layer input and
weights and recompute the responses (hybrid BP) — and prints the
cached-memory curves and the peak saving, then verifies both versions produce
identical gradients.
"""

import numpy as np

from repro.autodiff import Tensor
from repro.builder import QuadraticModelConfig
from repro.models import SmallConvNet
from repro.nn.losses import CrossEntropyLoss
from repro.profiler import MemoryTracker
from repro.utils import print_table, seed_everything

BATCH = 64
IMAGE = 32
NUM_CLASSES = 10


def profile_one_iteration(model, images, labels):
    loss_fn = CrossEntropyLoss()
    with MemoryTracker() as tracker:
        loss = loss_fn(model(Tensor(images)), labels)
        loss.backward()
    model.zero_grad()
    return tracker


def sparkline(curve, width=60):
    """Render a memory curve as a one-line text sparkline."""
    ramp = " ▁▂▃▄▅▆▇█"
    if not curve:
        return ""
    idx = np.linspace(0, len(curve) - 1, width).astype(int)
    values = np.asarray(curve, dtype=np.float64)[idx]
    top = values.max() or 1.0
    return "".join(ramp[int(v / top * (len(ramp) - 1))] for v in values)


def main() -> None:
    seed_everything(0)
    rng = np.random.default_rng(0)
    images = rng.standard_normal((BATCH, 3, IMAGE, IMAGE)).astype(np.float32)
    labels = rng.integers(0, NUM_CLASSES, size=BATCH)

    default_model = SmallConvNet(num_classes=NUM_CLASSES, image_size=IMAGE,
                                 config=QuadraticModelConfig(neuron_type="OURS",
                                                             width_multiplier=0.5))
    hybrid_model = SmallConvNet(num_classes=NUM_CLASSES, image_size=IMAGE,
                                config=QuadraticModelConfig(neuron_type="OURS", hybrid_bp=True,
                                                            width_multiplier=0.5))

    default_tracker = profile_one_iteration(default_model, images, labels)
    hybrid_tracker = profile_one_iteration(hybrid_model, images, labels)

    saving = 1 - hybrid_tracker.peak_bytes / default_tracker.peak_bytes
    print_table(
        ["Back-propagation scheme", "Peak cached memory (MiB)"],
        [["Default BP (responses kept)",
          f"{default_tracker.peak_bytes / 2**20:.1f}"],
         ["Hybrid BP (responses recomputed)",
          f"{hybrid_tracker.peak_bytes / 2**20:.1f}"]],
        title=f"One training iteration, batch {BATCH} (saving: {saving:.1%})",
    )
    print("\nCached-memory curve over the iteration (forward ramps up, backward releases):")
    print(f"  default: {sparkline(default_tracker.timeline_bytes())}")
    print(f"  hybrid : {sparkline(hybrid_tracker.timeline_bytes())}")

    # Hybrid BP is purely a memory optimisation: gradients are identical.
    from repro.quadratic import HybridQuadraticConv2d, QuadraticConv2d

    default = QuadraticConv2d(3, 8, kernel_size=3, padding=1, neuron_type="OURS")
    hybrid = HybridQuadraticConv2d(3, 8, kernel_size=3, padding=1)
    hybrid.load_state_dict(default.state_dict())
    x = Tensor(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
    default(x).sum().backward()
    hybrid(x).sum().backward()
    max_diff = max(float(np.abs(getattr(default, n).grad - getattr(hybrid, n).grad).max())
                   for n in ("weight_a", "weight_b", "weight_c"))
    print(f"\nMax gradient difference between the two schemes: {max_diff:.2e} "
          "(identical up to float32 rounding)")


if __name__ == "__main__":
    main()
