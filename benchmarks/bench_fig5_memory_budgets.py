"""Fig. 5 — training-memory cost of first-order vs. quadratic networks vs. GPU budgets.

The paper profiles VGG-16, ResNet-32 and ResNet-50 with first-order neurons
and with the T2&4 quadratic design (Fan et al.) at batch size 512, and shows
that the quadratic versions approach or exceed the memory of common GPUs.
This benchmark reproduces the same bar chart as a table: modelled training
memory (parameters + gradients + optimizer state + cached activations scaled
to the target batch size) against the three GPU budgets.
"""

import os

import pytest

from common import WIDTH, append_trajectory, fresh_seed, gib, quick_mode, save_experiment
from repro.analysis import ascii_bar_chart
from repro.builder import QuadraticModelConfig
from repro.models import ResNet, vgg_from_cfg
from repro.profiler import GPU_MEMORY_BUDGETS, estimate_training_memory
from repro.utils import print_table

BATCH = 512          # the paper's profiling batch size
IMAGE = 16           # probe resolution (paper: 32); activations scale accordingly

# Scaled stand-ins for the three profiled structures.  ``TRAJECTORY_KEYS``
# names each one's total-bytes fields in the trajectory record.
TRAJECTORY_KEYS = {"VGG-16": "vgg16", "ResNet-32": "resnet32",
                   "ResNet-50-like": "resnet50_like"}
STRUCTURES = {
    "VGG-16": lambda config: vgg_from_cfg(
        [16, 16, "M", 32, 32, "M", 32, 32, 32, "M"], num_classes=10, config=config),
    "ResNet-32": lambda config: ResNet([3, 3, 3], num_classes=10, config=config),
    "ResNet-50-like": lambda config: ResNet([5, 5, 5], num_classes=10, config=config),
}


def test_fig5_training_memory_vs_gpu_budgets(benchmark):
    fresh_seed(5)
    rows = []
    headline = {"quick_mode": quick_mode(), "cpus": os.cpu_count() or 1, "armed": True}
    results = {"batch_size": BATCH, "budgets_gib": {k: gib(v) for k, v in GPU_MEMORY_BUDGETS.items()}}

    for name, builder in STRUCTURES.items():
        first_order = builder(QuadraticModelConfig(neuron_type="first_order",
                                                   width_multiplier=WIDTH))
        quadratic = builder(QuadraticModelConfig(neuron_type="T2_4", width_multiplier=WIDTH))
        est_first = estimate_training_memory(first_order, (3, IMAGE, IMAGE), num_classes=10)
        est_quad = estimate_training_memory(quadratic, (3, IMAGE, IMAGE), num_classes=10)
        key = TRAJECTORY_KEYS[name]
        headline[f"{key}_first_order_total_bytes"] = int(est_first.total_bytes(BATCH))
        headline[f"{key}_quadratic_total_bytes"] = int(est_quad.total_bytes(BATCH))
        ratio = est_quad.total_bytes(BATCH) / est_first.total_bytes(BATCH)
        rows.append([name, round(gib(est_first.total_bytes(BATCH)), 3),
                     round(gib(est_quad.total_bytes(BATCH)), 3), round(ratio, 2)])
        results[name] = {
            "first_order_gib": gib(est_first.total_bytes(BATCH)),
            "quadratic_gib": gib(est_quad.total_bytes(BATCH)),
            "ratio": ratio,
        }

    print()
    print_table(["Structure", "First-order (GiB)", "QDNN T2&4 (GiB)", "QDNN / first-order"],
                rows, title=f"Fig. 5 (reproduced, scaled): training memory at batch {BATCH}")
    budget_rows = [[gpu, round(gib(budget), 1)] for gpu, budget in GPU_MEMORY_BUDGETS.items()]
    print_table(["GPU", "Memory budget (GiB)"], budget_rows)

    # The figure itself: one bar per (structure, neuron family) against the budgets.
    bar_labels, bar_values = [], []
    for name in STRUCTURES:
        bar_labels.extend([f"{name} first-order", f"{name} QDNN (T2&4)"])
        bar_values.extend([results[name]["first_order_gib"], results[name]["quadratic_gib"]])
    print()
    print(ascii_bar_chart(bar_labels, bar_values, width=48,
                          title="Fig. 5 (ASCII): training memory (GiB) vs. GPU budgets",
                          reference_lines={gpu: gib(b) for gpu, b in GPU_MEMORY_BUDGETS.items()}))
    save_experiment("fig5_memory_budgets", results)
    append_trajectory("fig5_memory_budgets", headline)

    # Shape of the paper's figure: the quadratic model always needs more
    # training memory than the first-order model of the same structure.
    for name in STRUCTURES:
        assert results[name]["ratio"] > 1.2

    # Timed kernel: one memory estimate (profiling pass) of the quadratic VGG.
    quadratic = STRUCTURES["VGG-16"](QuadraticModelConfig(neuron_type="T2_4",
                                                          width_multiplier=WIDTH))
    benchmark(lambda: estimate_training_memory(quadratic, (3, IMAGE, IMAGE), num_classes=10))
