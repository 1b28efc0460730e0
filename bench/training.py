"""Training workloads: ``Experiment.fit`` in a child process (``train_child.py``).

A run launches ``SESSIONS`` children one after another, each training for
its share of ``--seconds``, then ``SETUP_ONLY_LAUNCHES`` that train one
batch.  Set-up is timed from launching a child to the end of its first
batch (median over all children).  Throughput and step
latency come from the batch end times each child records with an
``on_batch_end`` callback, pooled over children, each child's first batch
excluded.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List

import numpy as np

from repro.experiment import Experiment
from repro.serve.metrics import percentile

from probes import PROBE_SAMPLES, compiled_probe, training_probe
from spans import Tracer
from workloads import PER_LAYER, ROOT, SESSIONS, BenchmarkError, RunResult, Training, \
    child_env

#: one unrecorded batch, then six traced and six untraced batches, alternating.
PROBE_BATCHES = 13
#: children that stop after their first batch, so set-up is timed on
#: SESSIONS + SETUP_ONLY_LAUNCHES launches without more measuring children.
SETUP_ONLY_LAUNCHES = 2
CHILD_GRACE_S = 120.0


def launch(workload: Training, seed: int, seconds: float, log_path: str) -> Dict:
    """Run one child to completion; returns its report plus parent-side set-up times."""
    command = [sys.executable, str(ROOT / "bench" / "train_child.py"), "--workload",
               workload.name, "--seed", str(seed), "--seconds", str(seconds)]
    stamps: Dict[str, float] = {}
    report = None
    with open(log_path, "wb") as log:
        launched = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log,
                                 env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(seconds + CHILD_GRACE_S, child.kill)
        watchdog.start()
        try:
            for line in child.stdout:
                if line.startswith(b"{"):
                    report = json.loads(line)
                else:
                    stamps.setdefault(line.strip().decode(errors="replace"), time.perf_counter())
            child.wait()
        finally:
            watchdog.cancel()
            child.stdout.close()
    if child.returncode != 0 or report is None or not {"ready", "first"} <= stamps.keys():
        raise BenchmarkError(f"training child exited {child.returncode}; see {log_path}")
    report["listen_s"] = stamps["ready"] - launched
    report["ready_s"] = stamps["first"] - stamps["ready"]
    return report


def run_training(workload: Training, seed: int, seconds: float, tracer: Tracer,
                 work_dir: str) -> RunResult:
    launches = [launch(workload, seed, seconds / SESSIONS,
                       os.path.join(work_dir, f"train{index}.log"))
                for index in range(SESSIONS)]
    setups = [launch(workload, seed, 0.0, os.path.join(work_dir, f"setup{index}.log"))
              for index in range(SETUP_ONLY_LAUNCHES)]
    if any(len(report["batch_ends"]) < 3 for report in launches):
        raise BenchmarkError(f"a training child trained fewer than 3 batches in "
                             f"{seconds / SESSIONS} s")
    steps_ms: List[float] = [step * 1e3 for report in launches
                             for step in np.diff(report["batch_ends"])]
    throughput = len(steps_ms) * workload.batch_size / (sum(steps_ms) / 1e3)
    losses = [loss for report in launches + setups for loss in report["losses"]]
    problems = []
    bad = int(np.sum(~np.isfinite(losses)))
    if bad:
        problems.append(f"{bad} of {len(losses)} training losses are not finite")

    if not tracer.enabled:
        metrics = {"setup_s": statistics.median(r["listen_s"] + r["ready_s"]
                                                for r in launches + setups),
                   "latency_p50_ms": percentile(steps_ms, 50),
                   "latency_p90_ms": percentile(steps_ms, 90),
                   "throughput_per_s": throughput,
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in launches)}
        return RunResult(metrics, attempted=len(losses), failed=bad,
                         latency_samples=len(steps_ms), sample_unit="training steps",
                         problems=problems)

    spec = workload.spec(seed, seconds / SESSIONS)        # the children's data
    experiment = Experiment(spec)
    model = experiment.build()
    train_set, _ = experiment.datasets()
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    probe, probe_losses = training_probe(model, train_set, spec, PROBE_BATCHES, tracer)
    metrics.update(probe)
    if not np.all(np.isfinite(probe_losses)):
        problems.append("the traced training loop produced non-finite losses")
    metrics.update(compiled_probe(model, train_set.images[:PROBE_SAMPLES], tracer))
    metrics["setup.listen_s"] = statistics.median(r["listen_s"] for r in launches + setups)
    metrics["setup.ready_s"] = statistics.median(r["ready_s"] for r in launches + setups)
    return RunResult(metrics, attempted=len(losses) + len(probe_losses),
                     failed=bad + int(np.sum(~np.isfinite(probe_losses))),
                     latency_samples=len(tracer.durations_ms("train.batch")),
                     sample_unit="traced training steps", problems=problems)
