"""Fig. 7 — per-layer gradient norms during training, with and without the linear term.

The paper trains a VGG-16-structured QDNN on CIFAR-10 and plots the summed
gradient L2-norm of a shallow (Conv1), middle (Conv7) and deep (Conv13)
convolution over epochs: without the linear term the shallow layer's
gradients collapse toward zero within the first epochs; with the linear term
they stay at a useful magnitude.

The scaled reproduction trains two deep plain QDNNs — T3 (no linear term) and
OURS (with the linear term) — on the synthetic dataset and records the same
three per-layer series with the gradient-flow probe.
"""

import numpy as np
import pytest

from common import BATCH_SIZE, MAX_BATCHES, NUM_CLASSES, WIDTH, classification_data, fresh_seed, save_experiment
from repro.analysis import ascii_line_chart
from repro.builder import QuadraticModelConfig
from repro.engine import run_classification
from repro.models import vgg_from_cfg
from repro.utils import print_table

DEEP_CFG = [16, 16, "M", 32, 32, 32, "M", 32, 32, 32, "M"]   # 8-conv plain stand-in
EPOCHS = 4
# Parameter-name prefixes of a shallow / middle / deep quadratic conv inside
# the VGG features Sequential produced by the construction function.
PROBE_LAYERS = ["features.0.", "features.13.", "features.23."]


def _train_with_probe(neuron_type: str, seed_offset: int):
    fresh_seed(70 + seed_offset)
    train_set, _ = classification_data()
    model = vgg_from_cfg(DEEP_CFG, num_classes=NUM_CLASSES,
                         config=QuadraticModelConfig(neuron_type=neuron_type,
                                                     width_multiplier=WIDTH))
    history = run_classification(model, train_set, epochs=EPOCHS, batch_size=BATCH_SIZE,
                                 lr=0.05, max_batches_per_epoch=MAX_BATCHES,
                                 grad_probe_layers=PROBE_LAYERS, seed=7)
    series = {}
    for prefix in PROBE_LAYERS:
        matching = [values for name, values in history.gradient_norms.items()
                    if name.startswith(prefix) and name.endswith(("weight_a", "weight_sq",
                                                                  "weight", "weight_b",
                                                                  "weight_c"))]
        if matching:
            length = min(len(v) for v in matching)
            series[prefix] = [float(sum(v[i] for v in matching)) for i in range(length)]
        else:
            series[prefix] = []
    return series


def test_fig7_gradient_norms_with_and_without_linear_term(benchmark):
    without_linear = _train_with_probe("T3", seed_offset=0)    # no linear term
    with_linear = _train_with_probe("OURS", seed_offset=1)     # the paper's neuron

    labels = {"features.0.": "Conv1 (shallow)", "features.13.": "Conv-mid",
              "features.23.": "Conv-deep"}
    rows = []
    for prefix in PROBE_LAYERS:
        rows.append([
            labels[prefix],
            " ".join(f"{v:.2e}" for v in without_linear[prefix]),
            " ".join(f"{v:.2e}" for v in with_linear[prefix]),
        ])
    print()
    print_table(["Layer", "w/o linear term (per-epoch grad L2)", "w/ linear term (per-epoch grad L2)"],
                rows, title="Fig. 7 (reproduced, scaled): gradient norms over epochs")
    shallow_series = {
        "Conv1 w/o linear term (T3)": without_linear["features.0."],
        "Conv1 w/ linear term (OURS)": with_linear["features.0."],
    }
    if all(len(v) > 1 for v in shallow_series.values()):
        print()
        print(ascii_line_chart(shallow_series, width=48, height=10,
                               title="Fig. 7 (ASCII): shallow-layer gradient L2-norm per epoch",
                               y_label="sum of L2 norms", x_label="epoch"))
    save_experiment("fig7_gradient_flow", {
        "without_linear_term": without_linear,
        "with_linear_term": with_linear,
        "epochs": EPOCHS,
    })

    shallow = "features.0."
    assert len(with_linear[shallow]) == EPOCHS
    # Gradients of the shallow layer must stay finite and non-zero with the
    # linear term across every epoch (the Fig. 7b claim).
    assert all(np.isfinite(v) and v > 0 for v in with_linear[shallow])
    # And the with-linear-term shallow gradients should not be the smaller of
    # the two designs by the end of training (Fig. 7a vs 7b contrast).
    if without_linear[shallow] and np.isfinite(without_linear[shallow][-1]):
        assert with_linear[shallow][-1] >= 0.2 * without_linear[shallow][-1]

    # Timed kernel: a single probe snapshot on a trained model.
    from repro.quadratic import GradientFlowProbe
    from repro.autodiff import randn

    model = vgg_from_cfg(DEEP_CFG, num_classes=NUM_CLASSES,
                         config=QuadraticModelConfig(neuron_type="OURS",
                                                     width_multiplier=WIDTH))
    probe = GradientFlowProbe(model, layer_filter=PROBE_LAYERS)
    model(randn(4, 3, 16, 16)).sum().backward()
    benchmark(probe.snapshot)
