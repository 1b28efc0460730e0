"""``repro.engine`` — the unified, callback-driven training engine.

One :class:`Trainer` runs every workload in the repository; what differs per
task lives in a :class:`TaskAdapter` (classification, detection, GAN — and
backbone pre-training, which is classification over a backbone-shaped
model).  On top of the shared loop the engine provides:

* a typed callback/hook system (:mod:`repro.engine.callbacks`) with built-in
  checkpointing, early stopping and progress logging;
* full-state checkpoints — model, optimizer(s), LR scheduler, RNG streams,
  epoch counter, history — written atomically and resumable to bit-identical
  final weights (``Trainer.fit(resume_from=...)``);
* optional prefetching data pipelines
  (:class:`repro.data.PrefetchDataLoader`) that overlap batch assembly with
  compute without changing numerics.

Direct calls go through ``run_classification`` / ``run_detection`` /
``run_gan``; :meth:`repro.experiment.Experiment.fit` runs the same engine from
a declarative spec.

Example
-------
>>> from repro.engine import ClassificationAdapter, Trainer
>>> adapter = ClassificationAdapter(model, train_set, test_set, epochs=2)
>>> history = Trainer(adapter, checkpoint_dir="ckpts").fit()
>>> resumed = Trainer(ClassificationAdapter(model2, train_set, test_set, epochs=2))
>>> resumed.fit(resume_from="ckpts/latest.npz")   # bit-identical continuation
"""

from .adapters import (
    ClassificationAdapter,
    DetectionAdapter,
    GANAdapter,
    StepResult,
    TaskAdapter,
    run_classification,
    run_detection,
    run_gan,
)
from .callbacks import (
    Callback,
    CallbackList,
    CheckpointCallback,
    EarlyStopping,
    LambdaCallback,
    ProgressCallback,
)
from .trainer import Trainer, TrainerState

__all__ = [
    "Trainer",
    "TrainerState",
    "TaskAdapter",
    "StepResult",
    "ClassificationAdapter",
    "DetectionAdapter",
    "GANAdapter",
    "run_classification",
    "run_detection",
    "run_gan",
    "Callback",
    "CallbackList",
    "CheckpointCallback",
    "EarlyStopping",
    "LambdaCallback",
    "ProgressCallback",
]
