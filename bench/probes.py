"""In-process per-layer probes for ``--trace`` runs.

Each probe calls public functions of one layer of the library and records
one span per call, so the per-layer numbers are read back from the trace.
Probes run after the load phases, never alongside them.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import nn
from repro.autodiff import Tensor
from repro.data import DataLoader
from repro.inference import compile_model
from repro.optim import SGD
from repro.profiler.flops import profile_model
from repro.quadratic import (HybridQuadraticConv2d, HybridQuadraticLinear, QuadraticConv2d,
                             QuadraticLinear)
from spans import Tracer

#: inputs each in-process probe times (one batch-1 call per input).
PROBE_SAMPLES = 32

#: compiled-op kinds reported as ``compiled.<kind>_ms``, checked in order.
OP_KINDS = (
    ("qconv", (QuadraticConv2d, HybridQuadraticConv2d)),
    ("conv", (nn.Conv2d,)),
    ("linear", (nn.Linear, QuadraticLinear, HybridQuadraticLinear)),
    ("norm", (nn.BatchNorm1d, nn.BatchNorm2d, nn.LayerNorm)),
    ("act", (nn.ReLU, nn.LeakyReLU, nn.Sigmoid, nn.Tanh, nn.GELU, nn.Square)),
    ("pool", (nn.MaxPool2d, nn.AvgPool2d, nn.GlobalAvgPool2d, nn.AdaptiveAvgPool2d)),
)


def op_kind(module) -> str:
    for kind, types in OP_KINDS:
        if isinstance(module, types):
            return kind
    return "other"


def plan_ops(module) -> List:
    """The leaf ops of ``module`` in execution order (``inference_plan()`` flattened)."""
    plan = getattr(module, "inference_plan", None)
    if callable(plan):
        children = list(plan())
    elif isinstance(module, nn.Sequential):
        children = list(module)
    else:
        return [module]
    return [op for child in children for op in plan_ops(child)]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def compiled_probe(model, samples: np.ndarray, tracer: Tracer) -> Dict[str, float]:
    """Batch-1 forward of the compiled model, then each plan op compiled alone.

    Every op runs on the activation the previous op produced for the same
    sample; its time is the median of its spans.  MACs come from
    :func:`profile_model`, so the achieved GMAC/s sit beside the times.
    """
    model.eval()
    names = {id(module): name for name, module in model.named_modules()}
    macs = {layer.name: layer.macs
            for layer in profile_model(model, samples.shape[1:], batch_size=1).layers}
    ops = [(op_kind(op), names[id(op)], compile_model(op)) for op in plan_ops(model)]
    forward = compile_model(model)
    for sample in samples:
        batch = sample[None]
        with tracer.span("compiled.forward"):
            forward(batch)
        for kind, name, step in ops:
            with tracer.span(f"compiled.{kind}:{name}"):
                batch = step(batch)
    per_op = {name: _median(tracer.durations_ms(f"compiled.{kind}:{name}"))
              for kind, name, _ in ops}
    metrics = {"compiled.forward_b1_ms": _median(tracer.durations_ms("compiled.forward"))}
    for kind, _ in OP_KINDS:
        metrics[f"compiled.{kind}_ms"] = sum(per_op[name] for k, name, _ in ops if k == kind)
    for kind in ("qconv", "linear"):
        kind_macs = sum(macs.get(name, 0) for k, name, _ in ops if k == kind)
        seconds = metrics[f"compiled.{kind}_ms"] / 1e3
        metrics[f"compiled.{kind}_gmacs"] = kind_macs / seconds / 1e9 if seconds else 0.0
    metrics["compiled.step_coverage"] = sum(per_op.values()) / metrics["compiled.forward_b1_ms"]
    return metrics


def secure_probe(predictor, samples: np.ndarray, tracer: Tracer) -> Dict[str, float]:
    """Median in-process ``SecurePredictor.predict`` time and one request's totals."""
    for sample in samples:
        with tracer.span("ppml.predict"):
            predictor.predict(sample)
    totals = predictor.last_trace.totals()
    return {"ppml.online_b1_ms": _median(tracer.durations_ms("ppml.predict")),
            "ppml.mult_ops": totals["mult_ops"], "ppml.relu_ops": totals["relu_ops"],
            "ppml.truncations": totals["truncations"], "ppml.rounds": totals["rounds"]}


def training_probe(model, train_set, spec, batches: int,
                   tracer: Tracer) -> Tuple[Dict[str, float], List[float]]:
    """A manual training loop over the public API, one span per stage.

    Uses the loader seed, optimizer and loss of ``Experiment.fit`` so the
    batches are the ones the child process trains on.  The first batch
    (lazy buffers) is not recorded.  After it, odd batches are traced and
    even ones only timed, so the tracing overhead compares the same loop with
    the tracer on and off, interleaved.  Returns (metrics, losses).
    """
    train = spec.train
    loader = DataLoader(train_set, batch_size=train.batch_size, shuffle=True,
                        drop_last=True, seed=train.seed)
    optimizer = SGD(model.parameters(), lr=train.lr, momentum=train.momentum,
                    weight_decay=train.weight_decay)
    loss_fn = nn.CrossEntropyLoss()
    model.train(True)
    batch_iter = iter(loader)
    losses = []
    untraced_ms = []
    for index in range(batches):
        stage = tracer if index % 2 else Tracer(False)
        start = time.perf_counter()
        with stage.span("train.batch") as batch_span:
            with stage.span("train.data", parent=batch_span):
                images, labels = next(batch_iter)
            with stage.span("train.forward", parent=batch_span):
                loss = loss_fn(model(Tensor(np.asarray(images, dtype=np.float32))), labels)
            with stage.span("train.backward", parent=batch_span):
                loss.backward()
            with stage.span("train.step", parent=batch_span):
                optimizer.step()
                optimizer.zero_grad()
        if index and not stage.enabled:
            untraced_ms.append((time.perf_counter() - start) * 1e3)
        losses.append(loss.item())
    metrics = {f"train.{name}_ms": _median(tracer.durations_ms(f"train.{name}"))
               for name in ("data", "forward", "backward", "step")}
    traced_ms = tracer.durations_ms("train.batch")
    metrics["train.batch_p50_ms"] = _median(traced_ms)
    metrics["trace.overhead_p50_ms"] = metrics["train.batch_p50_ms"] - _median(untraced_ms)
    # Throughput is batches over summed batch time, so its relative loss is
    # 1 - mean untraced / mean traced.
    metrics["trace.overhead_throughput_pct"] = 100.0 * (
        1.0 - statistics.fmean(untraced_ms) / statistics.fmean(traced_ms))
    return metrics, losses
