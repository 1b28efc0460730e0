"""Task adapters: the task-specific half of each training loop.

A :class:`TaskAdapter` owns everything the unified
:class:`~repro.engine.Trainer` must not know about a workload: how batches
are produced, what one optimization step does (the GAN adapter owns its
two-optimizer step), how an epoch is evaluated and recorded, and which state
a checkpoint must capture.  The adapters reproduce the pre-engine training
loops *bit for bit* — the parity tests in ``tests/engine`` keep frozen copies
of those loops and compare histories and final weights exactly.

The ``run_*`` helpers assemble adapter + trainer for the common case; they are
the direct-call training entry points, and what the trainer registry behind
:meth:`repro.experiment.Experiment.fit` calls.

Imports from :mod:`repro.training` (the history types and evaluators) are
deferred to runtime, as is :mod:`repro.training.pretrain`'s import of this
package, so neither package needs the other at import time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import no_grad
from ..autodiff.tensor import Tensor
from ..data.dataloader import DataLoader
from ..data.prefetch import PrefetchDataLoader
from ..nn.losses import CrossEntropyLoss
from ..nn.module import Module
from ..optim.adam import Adam
from ..optim.lr_scheduler import CosineAnnealingLR, LRScheduler, MultiStepLR
from ..optim.sgd import SGD
from ..utils.serialization import rng_state, set_rng_state
from .trainer import Trainer


@dataclass
class StepResult:
    """What one ``train_step`` reports back to the trainer."""

    metrics: Dict[str, float] = field(default_factory=dict)
    #: request an immediate stop (divergence); the trainer skips epoch-end
    #: bookkeeping exactly as the legacy loops did.
    stop: bool = False


class TaskAdapter:
    """Protocol of the task-specific loop half (subclass and override).

    Attributes
    ----------
    task : str
        Checkpoint tag; resuming requires the same task.
    num_epochs : int
        Total epochs (GAN adapters map one paper "step" to one epoch, which
        makes every step a valid checkpoint/resume boundary).
    max_batches_per_epoch : int or None
        Cap enforced by the trainer (mirrors the legacy loops' cap).
    history
        The task's history object, returned by ``Trainer.fit``.
    """

    task = "task"
    num_epochs: int = 0
    max_batches_per_epoch: Optional[int] = None
    history: Any = None

    def train_begin(self) -> None:
        """Put models into training mode (called once, after any resume)."""

    def epoch_begin(self, epoch: int) -> None:
        """Reset per-epoch accumulators."""

    def batches(self, epoch: int) -> Iterable:
        """A fresh batch iterator for this epoch."""
        raise NotImplementedError

    def train_step(self, batch) -> StepResult:
        """One optimization step (forward/backward/step) on ``batch``."""
        raise NotImplementedError

    def epoch_end(self, epoch: int) -> Dict[str, float]:
        """Evaluate/record the epoch; returns the metrics for callbacks."""
        return {}

    def train_end(self) -> None:
        """Final bookkeeping after the last epoch (skipped on divergence)."""

    # ------------------------------------------------------------ checkpoints
    def state_dict(self) -> Dict[str, Any]:
        """Serializable state a checkpoint must capture to resume bit-identically."""
        raise NotImplementedError

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError


def _dataset_rng_state(dataset) -> Optional[Any]:
    """Augmentation RNG state of a dataset, when it exposes one.

    Stateful per-sample transforms (``RandomCrop`` et al. behind a
    ``TransformDataset``) draw from their own streams; a checkpoint that did
    not capture them would resume with re-seeded augmentations and lose the
    bit-identical-resume guarantee.
    """
    if hasattr(dataset, "rng_state"):
        return dataset.rng_state()
    return None


def _restore_dataset_rng(dataset, state) -> None:
    if state is not None and hasattr(dataset, "set_rng_state"):
        dataset.set_rng_state(state)


def _wrap_prefetch(loader: DataLoader, prefetch: bool, depth: int,
                   max_batches: Optional[int]):
    """Optionally wrap a loader with the prefetching pipeline.

    The legacy loops pull one batch *past* the cap before breaking (the
    ``enumerate`` check runs after the pull), so a capped prefetch worker must
    assemble ``cap + 1`` batches for per-sample transform RNGs to advance
    identically to a synchronous epoch.
    """
    if not prefetch:
        return loader
    cap = None if max_batches is None else max_batches + 1
    return PrefetchDataLoader(loader, depth=depth, max_batches=cap)


# --------------------------------------------------------------------------- #
# Classification (also backbone pre-training, which trains a classifier).
# --------------------------------------------------------------------------- #

class ClassificationAdapter(TaskAdapter):
    """The paper's SGD + CosineAnnealing recipe (:func:`run_classification`)."""

    task = "classification"

    def __init__(self, model: Module, train_dataset, test_dataset=None, *,
                 epochs: int = 5, batch_size: int = 64, lr: float = 0.1,
                 momentum: float = 0.9, weight_decay: float = 5e-4,
                 scheduler: str = "cosine", label_smoothing: float = 0.0,
                 grad_probe_layers: Optional[Sequence[str]] = None,
                 max_batches_per_epoch: Optional[int] = None, seed: int = 0,
                 optimizer_factory: Optional[Callable] = None,
                 prefetch: bool = False, prefetch_depth: int = 2) -> None:
        from ..quadratic.gradients import GradientFlowProbe
        from ..training.classification import TrainingHistory

        self.model = model
        self.train_dataset = train_dataset
        self.num_epochs = int(epochs)
        self.max_batches_per_epoch = max_batches_per_epoch
        self.batch_size = int(batch_size)
        self._sync_loader = DataLoader(train_dataset, batch_size=batch_size, shuffle=True,
                                       drop_last=True, seed=seed)
        self.loader = _wrap_prefetch(self._sync_loader, prefetch, prefetch_depth,
                                     max_batches_per_epoch)
        self.test_loader = (DataLoader(test_dataset, batch_size=batch_size)
                            if test_dataset is not None else None)
        if optimizer_factory is not None:
            self.optimizer = optimizer_factory(model.parameters())
        else:
            self.optimizer = SGD(model.parameters(), lr=lr, momentum=momentum,
                                 weight_decay=weight_decay)
        self.lr_scheduler: Optional[LRScheduler] = None
        if scheduler == "cosine":
            self.lr_scheduler = CosineAnnealingLR(self.optimizer, t_max=max(epochs, 1))
        self.loss_fn = CrossEntropyLoss(label_smoothing=label_smoothing)
        self.probe = (GradientFlowProbe(model, layer_filter=grad_probe_layers)
                      if grad_probe_layers else None)
        self.history = TrainingHistory()
        self._epoch_losses: List[float] = []
        self._epoch_accs: List[float] = []
        self._batch_times: List[float] = []

    # ------------------------------------------------------------------- loop
    def train_begin(self) -> None:
        self.model.train(True)

    def epoch_begin(self, epoch: int) -> None:
        self._epoch_losses, self._epoch_accs, self._batch_times = [], [], []

    def batches(self, epoch: int):
        return iter(self.loader)

    def train_step(self, batch) -> StepResult:
        from ..metrics.classification import accuracy

        images, labels = batch
        start = time.perf_counter()
        self.optimizer.zero_grad()
        logits = self.model(Tensor(np.asarray(images, dtype=np.float32)))
        loss = self.loss_fn(logits, labels)
        loss.backward()
        self.optimizer.step()
        self._batch_times.append(time.perf_counter() - start)

        loss_value = loss.item()
        if not np.isfinite(loss_value):
            # Divergence (e.g. gradient explosion in deep plain QDNNs):
            # record and stop, mirroring a failed paper run.
            self.history.train_loss.append(float("inf"))
            self.history.train_accuracy.append(1.0 / logits.shape[-1])
            if self.test_loader is not None:
                self.history.test_accuracy.append(1.0 / logits.shape[-1])
            return StepResult(metrics={"train_loss": float("inf")}, stop=True)
        batch_accuracy = accuracy(logits, labels)
        self._epoch_losses.append(loss_value)
        self._epoch_accs.append(batch_accuracy)
        return StepResult(metrics={"train_loss": loss_value,
                                   "train_accuracy": batch_accuracy})

    def epoch_end(self, epoch: int) -> Dict[str, float]:
        from ..training.classification import evaluate_classifier

        if self.probe is not None:
            self.probe.snapshot()
        history = self.history
        history.train_loss.append(
            float(np.mean(self._epoch_losses)) if self._epoch_losses else float("nan"))
        history.train_accuracy.append(
            float(np.mean(self._epoch_accs)) if self._epoch_accs else float("nan"))
        history.seconds_per_batch.append(
            float(np.mean(self._batch_times)) if self._batch_times else float("nan"))
        metrics = {"train_loss": history.train_loss[-1],
                   "train_accuracy": history.train_accuracy[-1]}
        if self.test_loader is not None:
            history.test_accuracy.append(evaluate_classifier(self.model, self.test_loader))
            self.model.train(True)
            metrics["test_accuracy"] = history.test_accuracy[-1]
        if self.lr_scheduler is not None:
            self.lr_scheduler.step()
        return metrics

    def train_end(self) -> None:
        if self.probe is not None:
            self.history.gradient_norms = {name: list(values)
                                           for name, values in self.probe.history.items()}

    # ------------------------------------------------------------ checkpoints
    def state_dict(self) -> Dict[str, Any]:
        return {
            "model": dict(self.model.state_dict()),
            "optimizer": self.optimizer.state_dict(),
            "scheduler": (self.lr_scheduler.state_dict()
                          if self.lr_scheduler is not None else None),
            "loader_rng": self.loader.rng_state(),
            "dataset_rng": _dataset_rng_state(self.train_dataset),
            "probe": ({name: list(values) for name, values in self.probe.history.items()}
                      if self.probe is not None else None),
            "history": self.history.to_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        from ..training.classification import TrainingHistory

        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        if self.lr_scheduler is not None and state.get("scheduler") is not None:
            self.lr_scheduler.load_state_dict(state["scheduler"])
        self.loader.set_rng_state(state["loader_rng"])
        _restore_dataset_rng(self.train_dataset, state.get("dataset_rng"))
        if self.probe is not None and state.get("probe"):
            self.probe.history = {name: [float(v) for v in values]
                                  for name, values in state["probe"].items()}
        self.history = TrainingHistory.from_dict(state.get("history") or {})


# --------------------------------------------------------------------------- #
# Detection (SSD multibox training, :func:`run_detection`).
# --------------------------------------------------------------------------- #

class DetectionAdapter(TaskAdapter):
    """SGD + step-decay SSD training (paper Sec. 5.4, scaled down)."""

    task = "detection"

    def __init__(self, model, dataset, *, epochs: int = 3, batch_size: int = 8,
                 lr: float = 1e-3, momentum: float = 0.9, weight_decay: float = 5e-4,
                 milestones: Sequence[int] = (),
                 max_batches_per_epoch: Optional[int] = None, seed: int = 0,
                 prefetch: bool = False, prefetch_depth: int = 2) -> None:
        from ..data.synthetic.detection import detection_collate
        from ..training.detection import DetectionTrainingHistory

        self.model = model
        self.train_dataset = dataset
        self.num_epochs = int(epochs)
        self.max_batches_per_epoch = max_batches_per_epoch
        self._sync_loader = DataLoader(dataset, batch_size=batch_size, shuffle=True,
                                       drop_last=True, collate_fn=detection_collate,
                                       seed=seed)
        self.loader = _wrap_prefetch(self._sync_loader, prefetch, prefetch_depth,
                                     max_batches_per_epoch)
        self.optimizer = SGD(model.parameters(), lr=lr, momentum=momentum,
                             weight_decay=weight_decay)
        self.lr_scheduler = (MultiStepLR(self.optimizer, milestones=milestones)
                             if milestones else None)
        self.history = DetectionTrainingHistory()
        self._epoch_losses: List[float] = []

    def train_begin(self) -> None:
        self.model.train(True)

    def epoch_begin(self, epoch: int) -> None:
        self._epoch_losses = []

    def batches(self, epoch: int):
        return iter(self.loader)

    def train_step(self, batch) -> StepResult:
        images, targets = batch
        self.optimizer.zero_grad()
        cls_logits, box_offsets = self.model(Tensor(np.asarray(images, dtype=np.float32)))
        loss = self.model.multibox_loss(cls_logits, box_offsets, targets)
        loss.backward()
        self.optimizer.step()
        loss_value = loss.item()
        self._epoch_losses.append(loss_value)
        return StepResult(metrics={"loss": loss_value})

    def epoch_end(self, epoch: int) -> Dict[str, float]:
        self.history.loss.append(
            float(np.mean(self._epoch_losses)) if self._epoch_losses else float("nan"))
        if self.lr_scheduler is not None:
            self.lr_scheduler.step()
        return {"loss": self.history.loss[-1]}

    # ------------------------------------------------------------ checkpoints
    def state_dict(self) -> Dict[str, Any]:
        return {
            "model": dict(self.model.state_dict()),
            "optimizer": self.optimizer.state_dict(),
            "scheduler": (self.lr_scheduler.state_dict()
                          if self.lr_scheduler is not None else None),
            "loader_rng": self.loader.rng_state(),
            "dataset_rng": _dataset_rng_state(self.train_dataset),
            "history": self.history.to_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        from ..training.detection import DetectionTrainingHistory

        self.model.load_state_dict(state["model"])
        self.optimizer.load_state_dict(state["optimizer"])
        if self.lr_scheduler is not None and state.get("scheduler") is not None:
            self.lr_scheduler.load_state_dict(state["scheduler"])
        self.loader.set_rng_state(state["loader_rng"])
        _restore_dataset_rng(self.train_dataset, state.get("dataset_rng"))
        self.history = DetectionTrainingHistory.from_dict(state.get("history") or {})


# --------------------------------------------------------------------------- #
# GAN (SNGAN hinge training, :func:`run_gan`).
# --------------------------------------------------------------------------- #

class GANAdapter(TaskAdapter):
    """Adversarial hinge training; the adapter owns the two-optimizer step.

    One paper "step" (``discriminator_steps`` discriminator updates plus one
    generator update) is mapped to one engine epoch, so every step boundary
    is a checkpoint/resume point with its RNG stream captured.
    """

    task = "gan"

    def __init__(self, generator, discriminator, dataset, *, steps: int = 100,
                 batch_size: int = 32, lr_generator: float = 2e-4,
                 lr_discriminator: float = 2e-4, betas: Tuple[float, float] = (0.5, 0.9),
                 discriminator_steps: int = 1, seed: int = 0) -> None:
        from ..training.gan import GANTrainingHistory

        self.generator = generator
        self.discriminator = discriminator
        self.dataset = dataset
        self.num_epochs = int(steps)
        self.batch_size = int(batch_size)
        self.discriminator_steps = int(discriminator_steps)
        self.rng = np.random.default_rng(seed)
        self.opt_g = Adam(generator.parameters(), lr=lr_generator, betas=betas)
        self.opt_d = Adam(discriminator.parameters(), lr=lr_discriminator, betas=betas)
        self.history = GANTrainingHistory()

    def train_begin(self) -> None:
        self.generator.train(True)
        self.discriminator.train(True)

    def batches(self, epoch: int):
        # One engine epoch == one GAN step; the adapter samples its own data.
        return iter((None,))

    def train_step(self, batch) -> StepResult:
        from ..nn import functional as F

        # ---- discriminator update(s)
        d_loss_value = 0.0
        for _ in range(self.discriminator_steps):
            real = Tensor(self.dataset.sample(self.batch_size, rng=self.rng))
            z = Tensor(self.generator.sample_latent(self.batch_size, rng=self.rng))
            with no_grad():
                fake = self.generator(z)
            fake = Tensor(fake.data)  # block generator gradients explicitly
            self.opt_d.zero_grad()
            d_loss = F.hinge_loss_discriminator(self.discriminator(real),
                                                self.discriminator(fake))
            d_loss.backward()
            self.opt_d.step()
            d_loss_value = d_loss.item()

        # ---- generator update
        z = Tensor(self.generator.sample_latent(self.batch_size, rng=self.rng))
        self.opt_g.zero_grad()
        g_loss = F.hinge_loss_generator(self.discriminator(self.generator(z)))
        g_loss.backward()
        self.opt_g.step()

        self.history.discriminator_loss.append(d_loss_value)
        self.history.generator_loss.append(g_loss.item())
        return StepResult(metrics={"generator_loss": self.history.generator_loss[-1],
                                   "discriminator_loss": d_loss_value})

    def epoch_end(self, epoch: int) -> Dict[str, float]:
        return {"generator_loss": self.history.generator_loss[-1],
                "discriminator_loss": self.history.discriminator_loss[-1]}

    # ------------------------------------------------------------ checkpoints
    def state_dict(self) -> Dict[str, Any]:
        return {
            "generator": dict(self.generator.state_dict()),
            "discriminator": dict(self.discriminator.state_dict()),
            "opt_g": self.opt_g.state_dict(),
            "opt_d": self.opt_d.state_dict(),
            "rng": rng_state(self.rng),
            "history": self.history.to_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        from ..training.gan import GANTrainingHistory

        self.generator.load_state_dict(state["generator"])
        self.discriminator.load_state_dict(state["discriminator"])
        self.opt_g.load_state_dict(state["opt_g"])
        self.opt_d.load_state_dict(state["opt_d"])
        set_rng_state(self.rng, state["rng"])
        self.history = GANTrainingHistory.from_dict(state.get("history") or {})


# --------------------------------------------------------------------------- #
# One-call helpers: adapter + trainer for the common cases.
# --------------------------------------------------------------------------- #

def _fit(adapter: TaskAdapter, *, callbacks=(), checkpoint_dir=None,
         checkpoint_every: int = 1, keep_checkpoints=None, resume_from=None,
         stop_after_epoch=None, spec=None):
    trainer = Trainer(adapter, callbacks=callbacks, checkpoint_dir=checkpoint_dir,
                      checkpoint_every=checkpoint_every,
                      keep_checkpoints=keep_checkpoints, spec=spec)
    return trainer.fit(resume_from=resume_from, stop_after_epoch=stop_after_epoch)


def run_classification(model: Module, train_dataset, test_dataset=None, *,
                       epochs: int = 5, batch_size: int = 64, lr: float = 0.1,
                       momentum: float = 0.9, weight_decay: float = 5e-4,
                       scheduler: str = "cosine", label_smoothing: float = 0.0,
                       grad_probe_layers: Optional[Sequence[str]] = None,
                       max_batches_per_epoch: Optional[int] = None, seed: int = 0,
                       optimizer_factory: Optional[Callable] = None,
                       prefetch: bool = False, prefetch_depth: int = 2,
                       callbacks=(), checkpoint_dir: Optional[str] = None,
                       checkpoint_every: int = 1, keep_checkpoints: Optional[int] = None,
                       resume_from: Optional[str] = None,
                       stop_after_epoch: Optional[int] = None,
                       spec: Optional[Dict[str, Any]] = None):
    """Train a classifier through the engine; the legacy recipe plus engine extras."""
    adapter = ClassificationAdapter(
        model, train_dataset, test_dataset, epochs=epochs, batch_size=batch_size,
        lr=lr, momentum=momentum, weight_decay=weight_decay, scheduler=scheduler,
        label_smoothing=label_smoothing, grad_probe_layers=grad_probe_layers,
        max_batches_per_epoch=max_batches_per_epoch, seed=seed,
        optimizer_factory=optimizer_factory, prefetch=prefetch,
        prefetch_depth=prefetch_depth)
    return _fit(adapter, callbacks=callbacks, checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every, keep_checkpoints=keep_checkpoints,
                resume_from=resume_from, stop_after_epoch=stop_after_epoch, spec=spec)


def run_detection(model, dataset, *, epochs: int = 3, batch_size: int = 8,
                  lr: float = 1e-3, momentum: float = 0.9, weight_decay: float = 5e-4,
                  milestones: Sequence[int] = (),
                  max_batches_per_epoch: Optional[int] = None, seed: int = 0,
                  prefetch: bool = False, prefetch_depth: int = 2,
                  callbacks=(), checkpoint_dir: Optional[str] = None,
                  checkpoint_every: int = 1, keep_checkpoints: Optional[int] = None,
                  resume_from: Optional[str] = None,
                  stop_after_epoch: Optional[int] = None,
                  spec: Optional[Dict[str, Any]] = None):
    """Train the SSD detector through the engine."""
    adapter = DetectionAdapter(
        model, dataset, epochs=epochs, batch_size=batch_size, lr=lr,
        momentum=momentum, weight_decay=weight_decay, milestones=milestones,
        max_batches_per_epoch=max_batches_per_epoch, seed=seed, prefetch=prefetch,
        prefetch_depth=prefetch_depth)
    return _fit(adapter, callbacks=callbacks, checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every, keep_checkpoints=keep_checkpoints,
                resume_from=resume_from, stop_after_epoch=stop_after_epoch, spec=spec)


def run_gan(generator, discriminator, dataset, *, steps: int = 100,
            batch_size: int = 32, lr_generator: float = 2e-4,
            lr_discriminator: float = 2e-4, betas: Tuple[float, float] = (0.5, 0.9),
            discriminator_steps: int = 1, seed: int = 0,
            callbacks=(), checkpoint_dir: Optional[str] = None,
            checkpoint_every: int = 1, keep_checkpoints: Optional[int] = None,
            resume_from: Optional[str] = None, stop_after_epoch: Optional[int] = None,
            spec: Optional[Dict[str, Any]] = None):
    """Train an SNGAN pair through the engine (one step per engine epoch)."""
    adapter = GANAdapter(
        generator, discriminator, dataset, steps=steps, batch_size=batch_size,
        lr_generator=lr_generator, lr_discriminator=lr_discriminator, betas=betas,
        discriminator_steps=discriminator_steps, seed=seed)
    return _fit(adapter, callbacks=callbacks, checkpoint_dir=checkpoint_dir,
                checkpoint_every=checkpoint_every, keep_checkpoints=keep_checkpoints,
                resume_from=resume_from, stop_after_epoch=stop_after_epoch, spec=spec)
