"""QuadraLib reproduction — a quadratic neural network library.

The package reproduces *QuadraLib: A Performant Quadratic Neural Network
Library for Architecture Optimization and Design Exploration* (MLSys 2022)
on top of a from-scratch NumPy autodiff substrate.

Subpackages
-----------
``experiment`` the unified experiment API: registries, declarative specs and
               the ``Experiment`` facade (core entry point)
``autodiff``   reverse-mode autodiff engine (Tensor, Function, checkpointing)
``nn``         Module/Parameter layer library, losses, initialisation
``optim``      SGD/Adam optimizers and learning-rate schedulers
``data``       datasets, loaders and the synthetic workload generators
``quadratic``  quadratic neuron types, layers, hybrid back-propagation (core)
``builder``    configuration-driven construction and the QDNN auto-builder (core)
``explore``    architecture search / design exploration over QDNN structures
``inference``  compiled no-grad forward paths, fused quadratic kernels and
               the micro-batching ``BatchedPredictor`` serving entry point
``serve``      scale-out serving: multi-process worker pool, HTTP front door,
               response cache, backpressure (``repro serve``)
``engine``     the unified callback-driven training engine: one ``Trainer``
               under every task loop, checkpoint/resume, task adapters
``models``     VGG / ResNet / MobileNet / SNGAN / SSD model zoo
``profiler``   training-memory, latency and FLOPs profilers
``ppml``       privacy-preserving inference cost models and ReLU→quadratic conversion
``analysis``   activation attention and gradient/weight distribution tools
``training``   training histories, evaluators and backbone pre-training
               (the loops run through ``engine``)
``metrics``    accuracy, VOC mAP, IS/FID (proxy feature network)
``utils``      seeding, logging/tables, checkpoint serialisation

Quickstart
----------
Everything in the library is driven by one declarative spec and one facade:

>>> from repro.experiment import Experiment, ExperimentSpec, ModelSpec, TrainSpec
>>> spec = ExperimentSpec(
...     model=ModelSpec(name="vgg8", neuron_type="OURS", width_multiplier=0.25),
...     train=TrainSpec(epochs=1, max_batches_per_epoch=2),
... )
>>> exp = Experiment(spec)
>>> model = exp.build()        # registry model + auto-builder switches
>>> history = exp.fit()        # the paper's SGD + cosine recipe
>>> costs = exp.profile()      # parameters / MACs / training memory
>>> _, ppml = exp.to_ppml()    # ReLU→quadratic PPML conversion + online cost

Specs round-trip through JSON, so the same run works from the shell::

    python -m repro run spec.json --out results.json
    python -m repro list models        # what a spec may reference
    python -m repro run smoke          # bundled end-to-end preset

Quadratic layers remain ordinary modules for ad-hoc composition:

>>> from repro import nn
>>> from repro import quadratic as qua
>>> block = nn.Sequential(
...     qua.typenew(3, 16, kernel_size=3, padding=1),   # the paper's neuron
...     nn.BatchNorm2d(16),
...     nn.ReLU(),
... )
"""

__version__ = "0.3.0"

from . import (
    analysis,
    autodiff,
    builder,
    data,
    engine,
    experiment,
    explore,
    inference,
    metrics,
    models,
    nn,
    optim,
    ppml,
    profiler,
    quadratic,
    serve,
    training,
    utils,
)

__all__ = [
    "autodiff",
    "nn",
    "optim",
    "data",
    "quadratic",
    "builder",
    "engine",
    "experiment",
    "explore",
    "inference",
    "serve",
    "models",
    "ppml",
    "profiler",
    "analysis",
    "training",
    "metrics",
    "utils",
    "__version__",
]
