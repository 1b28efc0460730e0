"""The :class:`Experiment` facade — one object that drives every workflow.

``Experiment`` turns a declarative :class:`repro.experiment.ExperimentSpec`
into the library's concrete machinery: the model zoo and auto-builder
(``build``), the trainers (``fit``), the evaluator (``evaluate``), the
profilers (``profile``), the PPML converter (``to_ppml``) and the design
exploration drivers (``search``).  ``run()`` executes the spec's pipeline
steps in order and collects one JSON-serializable results dict, which is what
``python -m repro run spec.json`` prints and saves.

Example
-------
>>> from repro.experiment import Experiment, ExperimentSpec, ModelSpec
>>> spec = ExperimentSpec(model=ModelSpec(name="vgg8", neuron_type="OURS"))
>>> exp = Experiment(spec)
>>> history = exp.fit()
>>> results = exp.run()            # the full build→fit→evaluate→profile→ppml pipeline
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..nn.module import Module
from ..utils.seed import seed_everything
from ..utils.serialization import save_results
from . import registry as reg
from .spec import PIPELINE_STEPS, ExperimentSpec


class Experiment:
    """Facade over build / fit / evaluate / profile / ppml / search.

    Parameters
    ----------
    spec : ExperimentSpec or dict
        The declarative description of the run (dicts are deserialized).
    model : Module, optional
        Pre-built model to use instead of building from ``spec.model``
        (benchmarks use this to drive custom structures through the same
        pipeline).  ``build()`` is a no-op when a model is injected.
    datasets : (train, test) tuple, optional
        Pre-built datasets to use instead of building from ``spec.data``.
    """

    def __init__(self, spec, model: Optional[Module] = None,
                 datasets: Optional[Tuple[Any, Any]] = None) -> None:
        if isinstance(spec, dict):
            spec = ExperimentSpec.from_dict(spec)
        if not isinstance(spec, ExperimentSpec):
            raise TypeError(f"spec must be an ExperimentSpec or dict, got {type(spec).__name__}")
        spec.validate()
        self.spec = spec
        self.model: Optional[Module] = model
        self._injected_model = model is not None
        self._datasets = datasets
        self._compiled = None
        self._compiled_config = None
        self.history = None
        self.results: Dict[str, Any] = {}

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_file(cls, path: str, **kwargs) -> "Experiment":
        """Load a JSON spec from disk and wrap it."""
        return cls(ExperimentSpec.load(path), **kwargs)

    @classmethod
    def from_json(cls, text: str, **kwargs) -> "Experiment":
        return cls(ExperimentSpec.from_json(text), **kwargs)

    # ------------------------------------------------------------------- build
    def build(self) -> Module:
        """Instantiate the model from the spec (seeded for reproducibility)."""
        if self.model is None:
            seed_everything(self.spec.seed)
            self.model = self.spec.model.build()
        self.results["build"] = {
            "model": self.spec.model.name if self.spec.model.genome is None else "genome",
            "neuron_type": self.spec.model.effective_neuron_type,
            "auto_build": self.spec.model.auto_build,
            "parameters": self.model.num_parameters(),
        }
        return self.model

    def datasets(self) -> Tuple[Any, Any]:
        """The (train, test) datasets of the spec (built once, then cached)."""
        if self._datasets is None:
            self._datasets = (self.spec.data.build(train=True),
                              self.spec.data.build(train=False))
        return self._datasets

    # --------------------------------------------------------------------- fit
    def fit(self, callbacks=()):
        """Train the model with the spec's trainer and optimizer; returns history.

        Training runs through the unified engine (:mod:`repro.engine`): the
        spec's checkpoint fields (``train.checkpoint_dir`` / ``resume_from`` /
        ``stop_after_epoch``) and prefetch fields flow into the engine, the
        whole spec is embedded into every checkpoint so ``repro train
        --resume <ckpt>`` can rebuild the run from the file alone, and extra
        ``callbacks`` hook into the epoch/batch/eval/checkpoint events.
        """
        model = self.model if self.model is not None else self.build()
        train_set, test_set = self.datasets()
        trainer = reg.TRAINERS.get(self.spec.train.trainer)
        optimizer_factory = self._optimizer_factory()
        start = time.perf_counter()
        with np.errstate(all="ignore"):
            self.history = trainer(model, train_set, test_set, self.spec.train,
                                   optimizer_factory=optimizer_factory,
                                   callbacks=callbacks,
                                   experiment_spec=self.spec.to_dict())
        result = {"seconds": time.perf_counter() - start}
        if self.spec.train.checkpoint_dir is not None:
            result["checkpoint_dir"] = self.spec.train.checkpoint_dir
        if self.spec.train.resume_from is not None:
            result["resumed_from"] = self.spec.train.resume_from
        if hasattr(self.history, "to_dict"):
            result["history"] = self.history.to_dict()
            result["final_train_accuracy"] = self.history.final_train_accuracy
            result["final_test_accuracy"] = self.history.final_test_accuracy
        self.results["fit"] = result
        return self.history

    def _optimizer_factory(self) -> Callable:
        train = self.spec.train
        optimizer_cls = reg.OPTIMIZERS.get(train.optimizer)

        def factory(params):
            kwargs: Dict[str, Any] = {"lr": train.lr, "weight_decay": train.weight_decay}
            if train.optimizer == "sgd":
                kwargs["momentum"] = train.momentum
            return optimizer_cls(params, **kwargs)

        return factory

    # ---------------------------------------------------------------- evaluate
    def evaluate(self) -> float:
        """Top-1 accuracy of the (trained) model on the test split."""
        from ..data.dataloader import DataLoader
        from ..training.classification import evaluate_classifier

        model = self.model if self.model is not None else self.build()
        _, test_set = self.datasets()
        loader = DataLoader(test_set, batch_size=self.spec.train.batch_size)
        accuracy = evaluate_classifier(model, loader)
        self.results["evaluate"] = {"test_accuracy": accuracy}
        return accuracy

    # ----------------------------------------------------------------- profile
    def profile(self) -> Dict[str, Any]:
        """Parameters / MACs / training memory (and optionally latency)."""
        from ..profiler.flops import profile_model
        from ..profiler.latency import profile_latency
        from ..profiler.memory import estimate_training_memory

        model = self.model if self.model is not None else self.build()
        input_shape = self.spec.data.input_shape
        profile_cfg = self.spec.profile
        flops = profile_model(model, input_shape)
        memory = estimate_training_memory(model, input_shape,
                                          num_classes=self.spec.model.num_classes)
        result: Dict[str, Any] = {
            "parameters": flops.total_parameters,
            "macs": flops.total_macs,
            "training_memory_bytes": memory.total_bytes(profile_cfg.batch_size),
            "memory_batch_size": profile_cfg.batch_size,
        }
        if profile_cfg.per_layer:
            result["layers"] = [
                {"name": layer.name, "type": layer.layer_type,
                 "parameters": layer.parameters, "macs": layer.macs}
                for layer in flops.layers
            ]
        if profile_cfg.latency:
            latency = profile_latency(model, input_shape,
                                      batch_size=min(profile_cfg.batch_size, 8),
                                      num_classes=self.spec.model.num_classes,
                                      iterations=profile_cfg.latency_repeats,
                                      compiled=profile_cfg.compiled,
                                      backend=profile_cfg.backend)
            result["train_ms_per_batch"] = latency.train_ms_per_batch
            result["inference_ms_per_batch"] = latency.inference_ms_per_batch
            if latency.compiled_ms_per_batch is not None:
                result["compiled_ms_per_batch"] = latency.compiled_ms_per_batch
                result["compiled_backend"] = latency.compiled_backend
        self.results["profile"] = result
        return result

    # --------------------------------------------------------------- inference
    def compile_inference(self, recompile: bool = False, backend=None,
                          optimize=None):
        """Lower the built model to the compiled no-grad serving path.

        Returns a :class:`repro.inference.CompiledModel` — a flat list of
        NumPy callables with fused quadratic kernels and pooled buffers that
        matches the eager forward's outputs without building any graph.
        ``backend`` selects the compute engine (a :mod:`repro.backends` name
        or instance; ``None`` is the reference ``numpy`` engine) and
        ``optimize`` the graph-optimizer level.  The result is cached per
        (backend, optimize) configuration; pass ``recompile=True`` after
        structural changes to the model.
        """
        from ..backends import get_backend
        from ..inference import compile_model
        from ..inference.optimizer import normalize_level

        config = (get_backend(backend).name, normalize_level(optimize))
        if (self._compiled is None or recompile
                or self._compiled.model is not self.model
                or self._compiled_config != config):
            model = self.model if self.model is not None else self.build()
            self._compiled = compile_model(model, backend=backend,
                                           optimize=optimize)
            self._compiled_config = config
        self.results["compile"] = {
            "steps": self._compiled.num_steps,
            "fallback_modules": len(self._compiled.fallback_modules),
            "backend": self._compiled.backend.name,
            "optimization": self._compiled.optimization.to_dict(),
        }
        return self._compiled

    def predictor(self, max_batch_size: int = 8, max_wait: float = 0.002,
                  backend=None, **kwargs) -> "Any":
        """A micro-batching :class:`repro.inference.BatchedPredictor`.

        Serves the (cached) compiled model from :meth:`compile_inference`
        on the requested compute ``backend``: single samples are coalesced
        (up to ``max_batch_size`` within ``max_wait`` seconds) into one
        compiled forward.  Close it when done (it is a context manager), and
        don't call the compiled model directly while the predictor is
        serving — they share one buffer pool.
        """
        from ..inference import BatchedPredictor

        return BatchedPredictor(self.compile_inference(backend=backend),
                                max_batch_size=max_batch_size,
                                max_wait=max_wait, **kwargs)

    def serve(self, workers: Optional[int] = None, port: Optional[int] = None,
              host: Optional[str] = None, config: "Any" = None,
              **config_kwargs) -> "Any":
        """A scale-out :class:`repro.serve.ServingServer` for this experiment.

        Ships the spec and the (built, possibly trained) model's weights to
        ``workers`` worker processes — each compiles its own copy and
        micro-batches its own traffic — and fronts them with the stdlib HTTP
        endpoint (``POST /predict`` with an LRU response cache,
        ``GET /healthz``, ``GET /stats``).  The server is returned
        *unstarted*: use it as a context manager (or call ``start()``).

        Extra keyword arguments become :class:`repro.serve.ServeConfig`
        fields (``max_batch_size``, ``queue_depth``, ``watermark``,
        ``cache_size``, ...), or pass a full ``config`` to control
        everything.  This is the single serving entry point — secure
        serving is the same call with the secure knobs set::

            server = experiment.serve(secure=True)            # spec defaults
            server = experiment.serve(secure=True, frac_bits=10,
                                      protocol="gazelle",
                                      strategy="quadratic_no_relu")

        With ``secure=True`` the workers host
        :class:`repro.ppml.SecurePredictor` instances (int64 fixed-point
        inference), the pool sizes its offline triple pools from a traced
        warm-up forward, and ``GET /stats`` grows a ``secure`` section with
        the per-request protocol accounting.
        """
        from ..serve import ServeConfig, ServingServer

        overrides = dict(config_kwargs)
        if workers is not None:
            overrides["workers"] = workers
        if port is not None:
            overrides["port"] = port
        if host is not None:
            overrides["host"] = host
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            raise ValueError(
                f"pass either a full ServeConfig or keyword overrides, not both "
                f"(got config plus {sorted(overrides)})")
        model = self.model if self.model is not None else self.build()
        self.results["serve"] = {"workers": config.workers,
                                 "cache_size": config.cache_size,
                                 "watermark": config.effective_watermark,
                                 "secure": config.secure}
        if config.secure:
            self.results["serve"].update({
                "protocol": config.protocol or self.spec.ppml.protocol,
                "frac_bits": config.frac_bits,
                "truncation": config.truncation,
                "strategy": config.strategy or self.spec.ppml.strategy,
                "triple_pool_depth": config.effective_triple_pool_depth,
            })
        return ServingServer(self.spec, state=model.state_dict(), config=config)

    def plan(self, qps: float, workers: Optional[int] = None,
             input_shape: Optional[Tuple[int, ...]] = None,
             config: "Any" = None, rates_budget_ms: float = 60.0,
             **config_kwargs) -> "Any":
        """A first-principles :class:`repro.capacity.CapacityPlan` for serving.

        Predicts — without running a load test — the throughput, p50/p99
        latency and required worker count of serving this experiment at an
        offered rate of ``qps`` requests/second.  The prediction combines
        the model's exact per-layer work counts (bucketed by kernel class),
        this host's measured kernel rates
        (:meth:`repro.backends.Backend.measure_rates`, cached per host) and
        an M/M/c queueing model of the worker pool; see
        :mod:`repro.capacity` and ``docs/capacity.md``.

        The deployment shape comes from the same knobs as :meth:`serve`:
        pass keyword overrides (``workers``, ``max_batch_size``,
        ``backend``, ``secure=True``, ...) or a full
        :class:`repro.serve.ServeConfig`.  With ``secure=True`` one traced
        fixed-point forward (via :meth:`secure_predictor`) supplies the
        protocol round structure and the per-request offline budget, and the
        plan grows a ``secure`` section with triple-pool refill requirements.

        ``input_shape`` overrides the spec's per-sample shape (needed for
        models whose input is not an image, e.g. the ``mlp`` zoo entry takes
        flat ``(16,)`` vectors).  ``rates_budget_ms`` bounds each kernel
        micro-probe; the first call per (backend, host) pays it, later calls
        hit the cache.
        """
        from ..backends import get_backend
        from ..capacity import CapacityModel, request_work, secure_work
        from ..serve import ServeConfig

        overrides = dict(config_kwargs)
        if workers is not None:
            overrides["workers"] = workers
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            raise ValueError(
                f"pass either a full ServeConfig or keyword overrides, not both "
                f"(got config plus {sorted(overrides)})")
        model = self.model if self.model is not None else self.build()
        shape = (tuple(input_shape) if input_shape is not None
                 else self.spec.data.input_shape)
        work = request_work(model, shape, num_classes=self.spec.model.num_classes)
        rates = get_backend(config.backend).measure_rates(budget_ms=rates_budget_ms)
        secure = None
        if config.secure:
            predictor = self.secure_predictor(
                frac_bits=config.frac_bits, truncation=config.truncation,
                protocol=config.protocol or None,
                strategy=config.strategy or None,
                convert=config.strategy != "none")
            predictor.predict(np.zeros(shape, dtype=np.float32))
            secure = secure_work(predictor.last_trace)
        capacity = CapacityModel(
            work, rates, workers=config.workers,
            max_batch_size=config.max_batch_size, max_wait=config.max_wait,
            secure_work=secure,
            triple_pool_depth=(config.effective_triple_pool_depth
                               if config.secure else 0))
        plan = capacity.plan(qps)
        self.results["plan"] = {
            "model": self.spec.model.name if self.spec.model.genome is None else "genome",
            "backend": config.backend,
            "input_shape": list(shape),
            **plan.to_dict(),
        }
        return plan

    # -------------------------------------------------------------------- ppml
    def secure_predictor(self, frac_bits: int = 12, truncation: str = "nearest",
                         protocol: Optional[str] = None, strategy: Optional[str] = None,
                         convert: bool = True, seed: Optional[int] = None) -> "Any":
        """A :class:`repro.ppml.SecurePredictor` serving this experiment securely.

        Converts a copy of the (built, possibly trained) model with the
        spec's PPML strategy (``spec.ppml.strategy``, overridable via
        ``strategy``; pass ``convert=False`` to serve the model as-is) and
        compiles it to the fixed-point secure-inference runtime.  Each
        ``predict()`` answers one client query under hybrid-protocol
        semantics and records the executed protocol trace
        (``predictor.last_trace``), which ``predictor.estimate()`` converts
        into online latency/communication under the configured protocol.
        """
        from .. import ppml

        model = self.model if self.model is not None else self.build()
        cfg = self.spec.ppml
        effective_strategy = strategy if strategy is not None else cfg.strategy
        target = model
        conversion = None
        if convert:
            target, conversion = ppml.to_ppml_friendly(model, strategy=effective_strategy,
                                                       inplace=False)
        predictor = ppml.SecurePredictor(
            target, protocol=protocol if protocol is not None else cfg.protocol,
            frac_bits=frac_bits, truncation=truncation,
            seed=self.spec.seed if seed is None else seed)
        self.results["secure"] = {
            "protocol": predictor.protocol.name,
            "frac_bits": frac_bits,
            "truncation": truncation,
            "strategy": effective_strategy if convert else None,
            "activations_replaced": (conversion.activations_replaced
                                     if conversion is not None else 0),
            "layers_quadratized": (conversion.layers_quadratized
                                   if conversion is not None else 0),
        }
        return predictor

    def to_ppml(self) -> Tuple[Module, Dict[str, Any]]:
        """Convert to a PPML-friendly model and report the online-cost savings."""
        from .. import ppml

        model = self.model if self.model is not None else self.build()
        cfg = self.spec.ppml
        converted, report = ppml.to_ppml_friendly(model, strategy=cfg.strategy, inplace=False)
        savings = ppml.ppml_savings(model, converted, self.spec.data.input_shape,
                                    protocol=cfg.protocol)
        result = {
            "strategy": cfg.strategy,
            "protocol": cfg.protocol,
            "activations_replaced": report.activations_replaced,
            "layers_quadratized": report.layers_quadratized,
            "before_runnable": savings.before.runnable,
            "after_runnable": savings.after.runnable,
            "online_latency_ms_before": (savings.before.total.milliseconds
                                         if savings.before.runnable else None),
            "online_latency_ms_after": savings.after.total.milliseconds,
            "online_comm_mb_before": (savings.before.total.megabytes
                                      if savings.before.runnable else None),
            "online_comm_mb_after": savings.after.total.megabytes,
        }
        self.results["ppml"] = result
        return converted, result

    # ------------------------------------------------------------------ search
    def search(self):
        """Run the spec's design exploration; returns a SearchResult."""
        from ..explore.evaluate import ProxyEvaluator
        from ..explore.evolution import EvolutionConfig, evolutionary_search
        from ..explore.random_search import random_search

        cfg = self.spec.search
        if cfg is None:
            raise ValueError("this spec has no 'search' section")
        seed_everything(self.spec.seed)
        train_set, test_set = self.datasets()
        space = cfg.build_space()
        evaluator = ProxyEvaluator(train_set, test_set,
                                   num_classes=self.spec.data.num_classes,
                                   image_size=self.spec.data.image_size,
                                   epochs=cfg.epochs, batch_size=cfg.batch_size,
                                   max_batches_per_epoch=cfg.max_batches_per_epoch,
                                   width_multiplier=self.spec.model.width_multiplier,
                                   lr=cfg.lr, seed=self.spec.seed)
        with np.errstate(all="ignore"):
            if cfg.strategy == "random":
                result = random_search(space, evaluator, budget=cfg.budget,
                                       seed=self.spec.seed)
            else:
                evo = EvolutionConfig(population_size=max(cfg.budget // 2, 2),
                                      generations=2, elite_count=1)
                result = evolutionary_search(space, evaluator, evo, seed=self.spec.seed)
        self.results["search"] = {
            "strategy": cfg.strategy,
            "evaluations_used": result.evaluations_used,
            "cardinality": space.cardinality(),
            "top": [
                {"key": entry.genome.key(), "genome": entry.genome.to_dict(),
                 "accuracy": entry.accuracy, "parameters": entry.parameters}
                for entry in result.top(cfg.top)
            ],
        }
        return result

    # --------------------------------------------------------------------- run
    def run(self, steps: Optional[Tuple[str, ...]] = None) -> Dict[str, Any]:
        """Execute the pipeline steps in the order requested; returns all results.

        Steps run exactly as listed (a spec may e.g. profile before fitting).
        Note that ``ppml`` is an *analysis* step: it converts a copy of the
        model to price the savings, and later steps keep operating on the
        original — to train a converted model, call :meth:`to_ppml` and feed
        the returned module into a new ``Experiment(spec, model=converted)``.
        """
        requested = list(steps) if steps is not None else list(self.spec.steps)
        unknown = [step for step in requested if step not in PIPELINE_STEPS]
        if unknown:
            raise ValueError(f"unknown pipeline step(s) {unknown}; valid: {PIPELINE_STEPS}")
        dispatch = {
            "build": self.build,
            "fit": self.fit,
            "evaluate": self.evaluate,
            "profile": self.profile,
            "ppml": self.to_ppml,
            "search": self.search,
        }
        for step in requested:
            dispatch[step]()
        return self.summary()

    def summary(self) -> Dict[str, Any]:
        """Spec + per-step results as one JSON-serializable dict."""
        return {"spec": self.spec.to_dict(), "results": dict(self.results)}

    def save_results(self, path: str) -> str:
        """Persist :meth:`summary` as JSON (via ``utils.serialization``)."""
        save_results(self.summary(), path)
        return path
