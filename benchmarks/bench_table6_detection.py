"""Table 6 — SSD object detection: first-order vs. quadratic backbone, ± pre-training.

The paper trains SSD with a VGG-16 backbone on PASCAL VOC in four settings —
{first-order, QuadraNN} × {Kaiming init, ImageNet pre-trained} — and reports
per-class AP and total mAP.  Headline findings: the quadratic backbone helps
substantially when training from scratch, and still edges out the first-order
backbone when both are pre-trained.

The scaled reproduction uses the synthetic detection dataset and a compact
SSD.  Checks are structural: training reduces the multibox loss, mAP is a
valid number for all four rows, and the pre-training pipeline actually copies
backbone weights.
"""

import numpy as np
import pytest

from common import fresh_seed, save_experiment
from repro.builder import QuadraticModelConfig
from repro.data.synthetic import SyntheticDetectionDataset, SyntheticImageClassification
from repro.engine import run_detection
from repro.models import build_ssd
from repro.training import evaluate_detector, load_pretrained_backbone, pretrain_backbone
from repro.utils import print_table

IMAGE = 64
NUM_CLASSES = 4
WIDTH = 0.25
EPOCHS = 2
TRAIN_IMAGES = 48
TEST_IMAGES = 24


def _pretrained_state(neuron_type: str):
    config = QuadraticModelConfig(neuron_type=neuron_type, width_multiplier=WIDTH)
    pretrain_data = SyntheticImageClassification(num_samples=96, num_classes=6, image_size=32,
                                                 seed=6)
    state, _ = pretrain_backbone(config, pretrain_data, epochs=1, batch_size=16,
                                 max_batches_per_epoch=4, seed=6)
    return state


def test_table6_detection(benchmark):
    fresh_seed(60)
    train_set = SyntheticDetectionDataset(num_samples=TRAIN_IMAGES, image_size=IMAGE,
                                          num_classes=NUM_CLASSES, seed=1)
    test_set = SyntheticDetectionDataset(num_samples=TEST_IMAGES, image_size=IMAGE,
                                         num_classes=NUM_CLASSES, seed=2)
    class_names = train_set.class_names

    settings = [
        ("1st order", "first_order", False),
        ("QuadraNN", "OURS", False),
        ("1st order (pre-trained)", "first_order", True),
        ("QuadraNN (pre-trained)", "OURS", True),
    ]

    pretrained_cache = {}
    rows, results = [], {}
    for index, (name, neuron_type, pretrained) in enumerate(settings):
        fresh_seed(61 + index)
        detector = build_ssd(num_classes=NUM_CLASSES, image_size=IMAGE,
                             neuron_type=neuron_type, width_multiplier=WIDTH)
        copied = 0
        if pretrained:
            if neuron_type not in pretrained_cache:
                pretrained_cache[neuron_type] = _pretrained_state(neuron_type)
            copied = load_pretrained_backbone(detector, pretrained_cache[neuron_type])

        history = run_detection(detector, train_set, epochs=EPOCHS, batch_size=8, lr=5e-3,
                                max_batches_per_epoch=4, seed=17)
        evaluation = evaluate_detector(detector, test_set, batch_size=8, score_threshold=0.2)
        per_class = evaluation["per_class_ap"]
        rows.append([name, "yes" if pretrained else "no"]
                    + [round(float(ap), 2) if np.isfinite(ap) else "-" for ap in per_class]
                    + [round(evaluation["map"], 3)])
        results[name] = {
            "pretrained": pretrained,
            "copied_tensors": copied,
            "final_loss": history.final_loss,
            "initial_loss": history.loss[0],
            "map": evaluation["map"],
            "per_class_ap": [float(ap) for ap in per_class],
        }

    print()
    print_table(["Model", "Pre-trained"] + list(class_names) + ["Total mAP"], rows,
                title="Table 6 (reproduced, scaled): SSD detection on synthetic VOC stand-in")
    save_experiment("table6_detection", results)

    for name, entry in results.items():
        # Multibox training made progress and produced a valid mAP.
        assert np.isfinite(entry["final_loss"])
        assert entry["final_loss"] <= entry["initial_loss"] * 1.5
        assert 0.0 <= entry["map"] <= 1.0
    # Pre-training actually copied backbone tensors.
    assert results["QuadraNN (pre-trained)"]["copied_tensors"] > 0
    assert results["1st order (pre-trained)"]["copied_tensors"] > 0

    # Timed kernel: one SSD inference pass with the quadratic backbone.
    detector = build_ssd(num_classes=NUM_CLASSES, image_size=IMAGE, neuron_type="OURS",
                         width_multiplier=WIDTH)
    images = np.stack([test_set[i][0] for i in range(4)])
    from repro.autodiff import Tensor

    benchmark(lambda: detector.detect(Tensor(images), score_threshold=0.3))
