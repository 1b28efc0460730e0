"""Declarative, JSON-round-trippable experiment specifications.

An :class:`ExperimentSpec` describes *everything* about a QuadraLib run —
model structure, dataset, training recipe, profiling, PPML conversion and
(optionally) design exploration — as plain data.  Specs only reference
components by registry name (:mod:`repro.experiment.registry`), so

``spec -> to_dict -> json -> from_dict -> build()``

reconstructs a structurally identical experiment on any machine.  Every spec
carries a ``version`` so persisted files stay loadable as the schema grows.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Optional

from ..builder.config import QuadraticModelConfig
from . import registry as reg

#: Schema version written into every serialized spec.
#:
#: * v1 — the original PR 1 schema.
#: * v2 — :class:`TrainSpec` gained the engine fields (``checkpoint_dir``,
#:   ``checkpoint_every``, ``resume_from``, ``stop_after_epoch``,
#:   ``prefetch``, ``prefetch_depth``).  v1 files still load: the new fields
#:   default to "off".
SPEC_VERSION = 2

#: Pipeline steps an :class:`ExperimentSpec` may request, in execution order.
PIPELINE_STEPS = ("build", "fit", "evaluate", "profile", "ppml", "search")


def _from_known_fields(cls, data: Dict[str, Any]):
    """Construct a spec dataclass from a dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} expects a dict, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s) {unknown}; known fields: {sorted(known)}"
        )
    return cls(**data)


class _SpecBase:
    """Shared dict round-tripping for the spec dataclasses."""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]):
        return _from_known_fields(cls, dict(data))

    def with_(self, **changes):
        """Copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class ModelSpec(_SpecBase):
    """What to build: a registry model (or explicit genome) plus its switches.

    ``auto_build=True`` reproduces the paper's auto-builder workflow: the
    structure is first instantiated with first-order layers and then converted
    to ``neuron_type`` by :class:`repro.builder.AutoBuilder` layer replacement.
    """

    name: str = "vgg8"
    neuron_type: str = "OURS"
    num_classes: int = 10
    width_multiplier: float = 1.0
    hybrid_bp: bool = False
    use_batchnorm: bool = True
    use_activation: bool = True
    auto_build: bool = False
    convert_linear: bool = False
    #: explicit VGG-style architecture genome (overrides ``name`` when set);
    #: the dict form of :class:`repro.explore.ArchitectureGenome`.
    genome: Optional[Dict[str, Any]] = None
    #: extra keyword arguments passed through to the model factory.
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def effective_neuron_type(self) -> str:
        """The neuron design actually built (the genome's, when one is given)."""
        if self.genome is not None and "neuron_type" in self.genome:
            return str(self.genome["neuron_type"])
        return self.neuron_type

    def validate(self) -> None:
        reg.check_neuron_type(self.effective_neuron_type)
        if self.genome is None and self.name not in reg.MODELS:
            raise ValueError(
                f"unknown model '{self.name}'; registered models: "
                f"{', '.join(reg.MODELS.names())}"
            )
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.width_multiplier <= 0:
            raise ValueError(f"width_multiplier must be positive, got {self.width_multiplier}")

    def to_config(self) -> QuadraticModelConfig:
        """The construction switches as a :class:`QuadraticModelConfig`."""
        neuron = "first_order" if self.auto_build else self.neuron_type
        return QuadraticModelConfig(
            neuron_type=neuron,
            use_batchnorm=self.use_batchnorm,
            use_activation=self.use_activation,
            hybrid_bp=self.hybrid_bp,
            width_multiplier=self.width_multiplier,
        )

    def build(self):
        """Instantiate the model (applying the auto-builder when requested)."""
        self.validate()
        target_neuron = self.effective_neuron_type
        if self.genome is not None:
            from ..explore.space import ArchitectureGenome

            # Genome dict fields win; ModelSpec fields fill in what it omits.
            raw = dict(self.genome)
            raw.setdefault("neuron_type", self.neuron_type)
            raw.setdefault("use_batchnorm", self.use_batchnorm)
            raw.setdefault("use_activation", self.use_activation)
            genome = ArchitectureGenome.from_dict(raw)
            if self.auto_build:
                genome = genome.with_(neuron_type="first_order")
            model = genome.build(self.num_classes, width_multiplier=self.width_multiplier,
                                 hybrid_bp=self.hybrid_bp)
        else:
            model = reg.MODELS.get(self.name)(self)
        if self.auto_build and not reg.is_first_order(target_neuron):
            from ..builder.auto_builder import AutoBuilder

            AutoBuilder(neuron_type=target_neuron, hybrid_bp=self.hybrid_bp,
                        convert_linear=self.convert_linear).convert(model)
        return model


@dataclass
class DataSpec(_SpecBase):
    """Which dataset to instantiate, and at what size."""

    name: str = "synthetic_classification"
    num_samples: int = 256
    test_samples: int = 128
    num_classes: int = 10
    image_size: int = 32
    channels: int = 3
    seed: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.name not in reg.DATASETS:
            raise ValueError(
                f"unknown dataset '{self.name}'; registered datasets: "
                f"{', '.join(reg.DATASETS.names())}"
            )
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be positive, got {self.num_samples}")

    def build(self, train: bool = True):
        """Instantiate the train (or test) split."""
        self.validate()
        return reg.DATASETS.get(self.name)(self, train)

    @property
    def input_shape(self):
        """One sample's shape: a 2-D point for the toy datasets, else C×H×W."""
        if self.name in reg.POINT_DATASETS:
            return (2,)
        return (self.channels, self.image_size, self.image_size)


@dataclass
class TrainSpec(_SpecBase):
    """The training recipe (paper Sec. 5.2, scaled by the caller)."""

    trainer: str = "classifier"
    optimizer: str = "sgd"
    epochs: int = 2
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    scheduler: str = "cosine"
    label_smoothing: float = 0.0
    max_batches_per_epoch: Optional[int] = None
    seed: int = 0
    # ------------------------------------------------ engine fields (spec v2)
    #: directory receiving full training checkpoints (``None`` disables them).
    checkpoint_dir: Optional[str] = None
    #: write a checkpoint every this many completed epochs.
    checkpoint_every: int = 1
    #: resume from this checkpoint file before training further.
    resume_from: Optional[str] = None
    #: stop cleanly once this many total epochs are complete (CI interrupt).
    stop_after_epoch: Optional[int] = None
    #: overlap batch assembly with compute via :class:`PrefetchDataLoader`.
    prefetch: bool = False
    #: bounded-queue depth of the prefetching pipeline.
    prefetch_depth: int = 2

    def validate(self) -> None:
        if self.trainer not in reg.TRAINERS:
            raise ValueError(
                f"unknown trainer '{self.trainer}'; registered trainers: "
                f"{', '.join(reg.TRAINERS.names())}"
            )
        if self.optimizer not in reg.OPTIMIZERS:
            raise ValueError(
                f"unknown optimizer '{self.optimizer}'; registered optimizers: "
                f"{', '.join(reg.OPTIMIZERS.names())}"
            )
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError(
                f"epochs and batch_size must be positive, got {self.epochs}/{self.batch_size}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be at least 1, got {self.checkpoint_every}"
            )
        if self.stop_after_epoch is not None and self.stop_after_epoch < 1:
            raise ValueError(
                f"stop_after_epoch must be at least 1, got {self.stop_after_epoch}"
            )
        if self.prefetch_depth < 1:
            raise ValueError(
                f"prefetch_depth must be at least 1, got {self.prefetch_depth}"
            )


@dataclass
class ProfileSpec(_SpecBase):
    """Profiling knobs for the ``profile`` pipeline step."""

    batch_size: int = 256
    latency: bool = False
    latency_repeats: int = 3
    per_layer: bool = False
    #: also time the compiled no-grad forward (fills compiled_ms_per_batch).
    compiled: bool = False
    #: compute backend for the compiled timing (repro.backends registry name).
    backend: str = "numpy"

    def validate(self) -> None:
        from ..backends import backend_names

        if self.backend not in backend_names():
            raise ValueError(
                f"unknown profile backend '{self.backend}'; registered "
                f"backends: {', '.join(backend_names())}")


@dataclass
class PPMLSpec(_SpecBase):
    """PPML conversion strategy and protocol for the ``ppml`` step."""

    strategy: str = "quadratic_no_relu"
    protocol: str = "delphi"

    def validate(self) -> None:
        from ..ppml import available_protocols

        if self.strategy not in ("square", "quadratic", "quadratic_no_relu"):
            raise ValueError(f"unknown ppml strategy '{self.strategy}'")
        if self.protocol not in available_protocols():
            raise ValueError(
                f"unknown ppml protocol '{self.protocol}'; known: {available_protocols()}"
            )


@dataclass
class SearchSpec(_SpecBase):
    """Design-exploration settings for the ``search`` step."""

    strategy: str = "random"
    budget: int = 8
    top: int = 5
    epochs: int = 1
    batch_size: int = 16
    max_batches_per_epoch: Optional[int] = 4
    lr: float = 0.05
    #: keyword arguments of :class:`repro.explore.SearchSpace`.
    space: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        if self.strategy not in ("random", "evolution"):
            raise ValueError(f"unknown search strategy '{self.strategy}'")
        if self.budget < 1:
            raise ValueError(f"search budget must be positive, got {self.budget}")

    def build_space(self):
        from ..explore.space import SearchSpace

        space = dict(self.space)
        for key in ("width_choices", "neuron_types"):
            if key in space:
                space[key] = tuple(space[key])
        return SearchSpace(**space)


@dataclass
class ExperimentSpec(_SpecBase):
    """One declarative experiment: build → fit → evaluate → profile → ppml."""

    name: str = "experiment"
    version: int = SPEC_VERSION
    seed: int = 0
    model: ModelSpec = field(default_factory=ModelSpec)
    data: DataSpec = field(default_factory=DataSpec)
    train: TrainSpec = field(default_factory=TrainSpec)
    profile: ProfileSpec = field(default_factory=ProfileSpec)
    ppml: PPMLSpec = field(default_factory=PPMLSpec)
    search: Optional[SearchSpec] = None
    #: pipeline steps executed by :meth:`repro.experiment.Experiment.run`.
    steps: List[str] = field(default_factory=lambda: ["build", "fit", "evaluate",
                                                      "profile", "ppml"])

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        if not isinstance(self.version, int) or not 1 <= self.version <= SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {self.version!r}; this library reads "
                f"versions 1..{SPEC_VERSION}"
            )
        unknown = [step for step in self.steps if step not in PIPELINE_STEPS]
        if unknown:
            raise ValueError(f"unknown pipeline step(s) {unknown}; valid: {PIPELINE_STEPS}")
        if "search" in self.steps and self.search is None:
            raise ValueError("the 'search' step requires a SearchSpec under 'search'")
        self.model.validate()
        self.data.validate()
        self.train.validate()
        self.profile.validate()
        self.ppml.validate()
        if self.search is not None:
            self.search.validate()

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "version": self.version,
            "seed": self.seed,
            "model": self.model.to_dict(),
            "data": self.data.to_dict(),
            "train": self.train.to_dict(),
            "profile": self.profile.to_dict(),
            "ppml": self.ppml.to_dict(),
            "steps": list(self.steps),
        }
        if self.search is not None:
            data["search"] = self.search.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        data = dict(data)
        sections = {
            "model": ModelSpec,
            "data": DataSpec,
            "train": TrainSpec,
            "profile": ProfileSpec,
            "ppml": PPMLSpec,
        }
        kwargs: Dict[str, Any] = {}
        for key, section_cls in sections.items():
            if key in data:
                kwargs[key] = section_cls.from_dict(data.pop(key))
        if data.get("search") is not None:
            kwargs["search"] = SearchSpec.from_dict(data.pop("search"))
        else:
            data.pop("search", None)
        spec = _from_known_fields(cls, {**data, **kwargs})
        return spec

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> str:
        """Write the spec as JSON and return ``path``."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str) -> "ExperimentSpec":
        with open(path) as fh:
            return cls.from_json(fh.read())
