"""``repro.training`` — training histories, evaluators and backbone pre-training.

The training loops themselves run through :mod:`repro.engine`
(``run_classification`` / ``run_detection`` / ``run_gan``).
"""

from .classification import TrainingHistory, evaluate_classifier
from .detection import DetectionTrainingHistory, evaluate_detector
from .gan import GANTrainingHistory, generate_images
from .pretrain import BackbonePretrainNet, load_pretrained_backbone, pretrain_backbone

__all__ = [
    "TrainingHistory",
    "evaluate_classifier",
    "GANTrainingHistory",
    "generate_images",
    "DetectionTrainingHistory",
    "evaluate_detector",
    "BackbonePretrainNet",
    "pretrain_backbone",
    "load_pretrained_backbone",
]
