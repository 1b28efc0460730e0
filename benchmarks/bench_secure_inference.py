"""Secure-inference benchmark: the paper's PPML claim, executed and gated.

The paper motivates quadratic layers by the cost of privacy-preserving
inference: hybrid protocols evaluate every ReLU with a garbled circuit while
a quadratic layer needs only cheap secure multiplications.  Until this
benchmark, the repo could only *predict* that with the static cost model;
now it *executes* both sides through :mod:`repro.ppml.runtime` — fixed-point
arithmetic with per-multiplication truncation, per-layer protocol traces —
and gates on what actually ran:

1. **Count integrity** — the executed traces of the ReLU baseline and of the
   ``quadratic_no_relu`` conversion must match ``ppml.analyse_model``'s
   static operation counts *exactly* (the cost tables stop being
   unverifiable claims).
2. **Garbled-circuit freedom** — the converted model's executed trace must
   contain zero garbled-circuit comparisons.
3. **The savings** — the conversion's measured online cost under Delphi must
   beat the ReLU baseline's (it wins by orders of magnitude; the gate asserts
   a conservative ``>= MIN_COST_RATIO`` margin).

It also *reports* (not gates) the fixed-point vs float accuracy drift on the
smoke preset: the trained model's test accuracy through the float compiled
path vs through the secure runtime, plus the raw logit drift and top-1
agreement, at the configured fractional bits.

Run with ``PYTHONPATH=src python benchmarks/bench_secure_inference.py``.
``--quick`` (or ``REPRO_BENCH_QUICK=1``) is the CI regression-gate mode:
fewer queries, identical assertions, same JSON artifact.
"""

from __future__ import annotations

import os

import numpy as np

from common import append_trajectory, fresh_seed, quick_mode, save_experiment

from repro import ppml
from repro.data.dataloader import DataLoader
from repro.experiment import Experiment, get_preset
from repro.inference import compile_model
from repro.training.classification import evaluate_classifier
from repro.utils.logging import format_table

#: fixed-point fractional bits of the secure execution
FRAC_BITS = 12
#: protocol pricing the executed traces
PROTOCOL = "delphi"
#: single-sample drift-measurement queries beyond the test split
DRIFT_SAMPLES = 32
QUICK_DRIFT_SAMPLES = 8

#: the measured ReLU-baseline online cost must exceed the converted model's
#: by at least this factor (the real gap is orders of magnitude larger)
MIN_COST_RATIO = 5.0


def secure_accuracy(secure: "ppml.SecureCompiledModel", loader: DataLoader) -> float:
    """Top-1 accuracy through the secure runtime (one batch per protocol run)."""
    correct, total = 0, 0
    for images, labels in loader:
        logits = secure(np.asarray(images, dtype=np.float32))
        correct += int((logits.argmax(axis=-1) == np.asarray(labels)).sum())
        total += len(labels)
    return correct / max(total, 1)


def main() -> None:
    quick = quick_mode()
    drift_samples = QUICK_DRIFT_SAMPLES if quick else DRIFT_SAMPLES
    fresh_seed()

    # The ReLU baseline: the smoke workload with first-order layers, trained
    # briefly so the accuracy comparison is about a real decision boundary.
    spec = get_preset("smoke")
    baseline_spec = spec.with_(model=spec.model.with_(neuron_type="first_order"))
    experiment = Experiment(baseline_spec)
    baseline = experiment.build()
    experiment.fit()
    baseline.eval()

    converted, conversion = ppml.to_ppml_friendly(baseline, strategy="quadratic_no_relu",
                                                  inplace=False)
    input_shape = tuple(spec.data.input_shape)
    config = ppml.SecureConfig(protocol=PROTOCOL, frac_bits=FRAC_BITS)
    secure_baseline = ppml.secure_compile(baseline, config)
    secure_converted = ppml.secure_compile(converted, config)

    # ---- 1. count integrity: executed trace == static analysis, both models
    probe = np.random.default_rng(0).standard_normal((1,) + input_shape).astype(np.float32)
    _, baseline_trace = secure_baseline.run(probe)
    _, converted_trace = secure_converted.run(probe)
    baseline_static = ppml.analyse_model(baseline, input_shape, protocol=PROTOCOL)
    converted_static = ppml.analyse_model(converted, input_shape, protocol=PROTOCOL)
    assert baseline_trace.matches_report(baseline_static), (
        f"baseline executed trace disagrees with the static analysis: "
        f"{baseline_trace.count_diff([l.operations for l in baseline_static.layers])}")
    assert converted_trace.matches_report(converted_static), (
        f"converted executed trace disagrees with the static analysis: "
        f"{converted_trace.count_diff([l.operations for l in converted_static.layers])}")

    # ---- 2. the conversion removed every garbled-circuit operation
    assert converted_trace.garbled_free, (
        f"quadratic_no_relu conversion still executed "
        f"{converted_trace.total_relu_ops} garbled-circuit comparisons")

    # ---- 3. measured online cost: conversion must beat the ReLU baseline
    baseline_cost = baseline_trace.estimate()
    converted_cost = converted_trace.estimate()
    cost_ratio = baseline_cost.online_microseconds / converted_cost.online_microseconds
    comm_ratio = baseline_cost.online_bytes / max(converted_cost.online_bytes, 1e-9)
    # Recorded before the assertion so a failing run is in the history too;
    # the gate holds at every core count.
    append_trajectory("secure_inference", {
        "quick_mode": quick,
        "cpus": os.cpu_count() or 1,
        "armed": True,
        "cost_ratio": cost_ratio,
    })
    assert cost_ratio >= MIN_COST_RATIO, (
        f"measured online cost of the quadratic_no_relu conversion "
        f"({converted_cost.online_milliseconds:.2f} ms) is not at least "
        f"{MIN_COST_RATIO}x cheaper than the ReLU baseline "
        f"({baseline_cost.online_milliseconds:.2f} ms)")

    # ---- fixed-point vs float accuracy drift (reported, not gated)
    _, test_set = experiment.datasets()
    loader = DataLoader(test_set, batch_size=spec.train.batch_size)
    float_accuracy = evaluate_classifier(baseline, loader)
    fixed_accuracy = secure_accuracy(secure_baseline, loader)

    reference = compile_model(converted)
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((drift_samples,) + input_shape).astype(np.float32)
    max_drift, agree = 0.0, 0
    for sample in samples:
        batch = sample[None, ...]
        secure_out, _ = secure_converted.run(batch)
        float_out = reference(batch)
        max_drift = max(max_drift, float(np.max(np.abs(secure_out - float_out))))
        agree += int(np.argmax(secure_out) == np.argmax(float_out))

    print(format_table(
        ["Metric", "ReLU baseline", "quadratic_no_relu"],
        [
            ["measured MACs", f"{baseline_trace.total_macs:,}",
             f"{converted_trace.total_macs:,}"],
            ["measured GC comparisons", f"{baseline_trace.total_relu_ops:,}",
             f"{converted_trace.total_relu_ops:,}"],
            ["measured secure mults", f"{baseline_trace.total_mult_ops:,}",
             f"{converted_trace.total_mult_ops:,}"],
            ["matches static counts", "yes", "yes"],
            ["online latency (est.)", f"{baseline_cost.online_milliseconds:.2f} ms",
             f"{converted_cost.online_milliseconds:.2f} ms"],
            ["online communication", f"{baseline_cost.online_megabytes:.2f} MB",
             f"{converted_cost.online_megabytes:.2f} MB"],
        ],
        title=f"Executed secure inference under {PROTOCOL} "
              f"(frac_bits={FRAC_BITS})" + (" — quick/CI mode" if quick else ""),
    ))
    print()
    print(format_table(
        ["Metric", "Value"],
        [
            ["measured cost ratio (baseline / converted)",
             f"{cost_ratio:.1f}x (>= {MIN_COST_RATIO:.0f}x required)"],
            ["measured comm ratio", f"{comm_ratio:.1f}x"],
            ["test accuracy (float path)", f"{float_accuracy:.3f}"],
            ["test accuracy (fixed point)", f"{fixed_accuracy:.3f}"],
            ["accuracy drift", f"{abs(float_accuracy - fixed_accuracy):.3f}"],
            ["max |fixed - float| logit drift", f"{max_drift:.3e}"],
            ["top-1 agreement (converted)", f"{agree}/{drift_samples}"],
        ],
        title="Savings gate and fixed-point drift (smoke preset)",
    ))

    save_experiment("secure_inference", {
        "quick_mode": quick,
        "protocol": PROTOCOL,
        "frac_bits": FRAC_BITS,
        "cost_ratio": cost_ratio,
        "comm_ratio": comm_ratio,
        "baseline": {"trace": baseline_trace.to_dict(),
                     "online_ms": baseline_cost.online_milliseconds,
                     "online_mb": baseline_cost.online_megabytes},
        "converted": {"trace": converted_trace.to_dict(),
                      "online_ms": converted_cost.online_milliseconds,
                      "online_mb": converted_cost.online_megabytes,
                      "activations_replaced": conversion.activations_replaced,
                      "layers_quadratized": conversion.layers_quadratized},
        "float_accuracy": float_accuracy,
        "fixed_accuracy": fixed_accuracy,
        "accuracy_drift": abs(float_accuracy - fixed_accuracy),
        "max_logit_drift": max_drift,
        "top1_agreement": agree / drift_samples,
    })


if __name__ == "__main__":
    main()
