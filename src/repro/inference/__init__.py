"""``repro.inference`` — the compiled, gradient-free serving path.

Training needs the autodiff graph; serving does not.  This package lowers
a trained :class:`~repro.nn.module.Module` once into kind-tagged ops
(:func:`lower`, which the secure runtime interprets too; the static counters
dispatch on the same :data:`KINDS`), turns them into a flat list of
closed-over NumPy callables (:func:`compile_model`), fuses the quadratic
combination step into ``out=``-buffered element-wise kernels with a shared
``im2col`` lowering per layer, and micro-batches single-sample traffic
through the compiled path (:class:`BatchedPredictor`).

Every numerical primitive the compiled steps execute dispatches through a
pluggable compute backend (:mod:`repro.backends` — ``numpy`` or
``threaded``), and a graph optimizer rewrites each chain before lowering
(dead-layer elimination, padding/BatchNorm folding) while a
:class:`LifetimePlanner` shares pooled buffers across steps whose lifetimes
provably never overlap.  ``compile_model(model, backend=..., optimize=...)``
selects both.

Every serving front end — :class:`BatchedPredictor` here and
:class:`repro.ppml.SecurePredictor` on the fixed-point path — implements the
:class:`Predictor` protocol (``predict`` / ``predict_batch`` / ``stats`` /
``close`` + context manager), so the serving worker hosts either behind one
code path.

Compiled outputs are verified (tests + ``benchmarks/bench_inference_throughput``)
to match the eager forward; single-sample latency drops by well over 2× on
the quadratic backbones because the three weight projections of the paper's
neuron share one patch lowering and skip all graph construction.

Example
-------
>>> from repro.experiment import Experiment, get_preset
>>> exp = Experiment(get_preset("smoke"))
>>> exp.build()
>>> compiled = exp.compile_inference()      # or: compile_model(exp.model)
>>> logits = compiled(batch)                # raw NumPy in, raw NumPy out
>>> with exp.predictor(max_batch_size=8) as served:
...     out = served.predict(batch[0])      # single sample, micro-batched
"""

from .buffers import BufferPool, LifetimePlanner
from .compiler import CompiledModel, compile_model
from .evaluation import max_abs_diff, measure_serving
from .lowering import KINDS, Op, kind_of, lower, probe_leaves
from .optimizer import FrozenBatchNorm, OptimizationReport, optimize_plan
from .predictor import BatchedPredictor, PendingPrediction, PredictorStats
from .protocol import Predictor

#: Alias so ``repro.inference.compile(model)`` reads like the spec'd API.
compile = compile_model

__all__ = [
    "BufferPool",
    "LifetimePlanner",
    "CompiledModel",
    "compile_model",
    "compile",
    "KINDS",
    "Op",
    "kind_of",
    "lower",
    "probe_leaves",
    "FrozenBatchNorm",
    "OptimizationReport",
    "optimize_plan",
    "BatchedPredictor",
    "PendingPrediction",
    "Predictor",
    "PredictorStats",
    "max_abs_diff",
    "measure_serving",
]
