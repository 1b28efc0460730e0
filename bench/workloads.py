"""The benchmark's workloads and the metrics every run reports.

Each workload is chosen to stress a different part of the stack; the
reasons are recorded with the definitions below and in ``bench/README.md``.
The metric tables are the single list ``run.py`` prints from and the
``BENCHMARK.json`` at the repository root declares (a test keeps them equal).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.experiment import ExperimentSpec, get_preset

ROOT = Path(__file__).resolve().parents[1]


class BenchmarkError(RuntimeError):
    """The workload could not be measured at all (no result is printed)."""


@dataclass
class RunResult:
    """What one run of one workload measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    latency_samples: int          # samples behind the latency percentiles
    sample_unit: str              # what one sample is, e.g. "open-loop requests"
    problems: List[str] = field(default_factory=list)   # failed correctness checks

    @property
    def correct(self) -> bool:
        return not self.problems


def vm_hwm_mb(pid: Union[int, str]) -> float:
    """Peak resident set size of a live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"/proc/{pid}/status has no VmHWM line")


def child_env() -> Dict[str, str]:
    """Environment for processes the benchmark starts: the checkout's ``src``
    on the path, unbuffered output, and nothing else changed (in particular
    no thread-count variable)."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
                PYTHONUNBUFFERED="1")


#: end-to-end metrics, printed by every untraced run: (name, unit).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: per-layer metrics, printed by every ``--trace`` run: (name, unit).  A
#: layer the workload does not exercise reports 0.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("http.endpoint_p50_ms", "ms"),
    ("http.endpoint_p99_ms", "ms"),
    ("http.self_p50_ms", "ms"),
    ("loadgen.overhead_p50_ms", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("pool.queue_p50_ms", "ms"),
    ("pool.queue_p99_ms", "ms"),
    ("pool.total_p50_ms", "ms"),
    ("pool.total_p99_ms", "ms"),
    ("pipeline.depth_mean", "count"),
    ("pool.submitted", "count"),
    ("pool.failed", "count"),
    ("pool.retried", "count"),
    ("pool.respawns", "count"),
    ("pool.rejected", "count"),
    ("shm.transport_p50_ms", "ms"),
    ("shm.transport_p99_ms", "ms"),
    ("shm.fallback_ratio", "ratio"),
    ("worker.compute_p50_ms", "ms"),
    ("worker.compute_p99_ms", "ms"),
    ("worker.contention_ratio", "ratio"),
    ("compiled.forward_b1_ms", "ms"),
    ("compiled.qconv_ms", "ms"),
    ("compiled.conv_ms", "ms"),
    ("compiled.linear_ms", "ms"),
    ("compiled.norm_ms", "ms"),
    ("compiled.act_ms", "ms"),
    ("compiled.pool_ms", "ms"),
    ("compiled.qconv_gmacs", "GMAC/s"),
    ("compiled.linear_gmacs", "GMAC/s"),
    ("compiled.step_coverage", "ratio"),
    ("ppml.online_b1_ms", "ms"),
    ("ppml.mult_ops", "count"),
    ("ppml.relu_ops", "count"),
    ("ppml.truncations", "count"),
    ("ppml.rounds", "count"),
    ("offline.refill_rps", "1/s"),
    ("offline.stalls", "count"),
    ("offline.stall_ratio", "ratio"),
    ("train.batch_p50_ms", "ms"),
    ("train.data_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.step_ms", "ms"),
    ("setup.listen_s", "s"),
    ("setup.ready_s", "s"),
    ("capacity.service_rel_err", "ratio"),
    ("capacity.p50_rel_err", "ratio"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_throughput_pct", "%"),
)

UNITS = dict(END_TO_END + PER_LAYER)

#: each run launches the program this many times, measures a share of
#: ``--seconds`` on each launch and pools the shares; ``setup_s`` is the
#: median launch, so set-up is timed several times without extra launches.
SESSIONS = 3


@dataclass(frozen=True)
class Serving:
    """``python -m repro serve`` driven over HTTP by :mod:`httpload`."""

    name: str
    why: str
    preset: str
    width: float
    workers: int
    secure: bool
    open_rps: float           # fixed absolute Poisson rate of the open-loop phase
    closed_share: float       # share of ``--seconds`` spent in the closed-loop phase
    inputs: int               # distinct images, each checked against the in-process answer

    def spec(self) -> ExperimentSpec:
        """The spec whose short, fixed-seed fit produces the served weights."""
        spec = get_preset(self.preset)
        return spec.with_(
            seed=0,
            model=spec.model.with_(width_multiplier=self.width),
            data=spec.data.with_(num_samples=2 * spec.train.batch_size, test_samples=16),
            train=spec.train.with_(epochs=1, max_batches_per_epoch=2))


@dataclass(frozen=True)
class Training:
    """``Experiment.fit`` in a child process (``train_child.py``)."""

    name: str
    why: str
    preset: str
    width: float
    batch_size: int

    def spec(self, seed: int, seconds: float) -> ExperimentSpec:
        """One epoch with more batches than ``seconds`` can use; data from ``seed``."""
        batches = max(64, int(4 * seconds))
        spec = get_preset(self.preset)
        return spec.with_(
            seed=0,
            model=spec.model.with_(width_multiplier=self.width),
            data=spec.data.with_(seed=seed, num_samples=batches * self.batch_size,
                                 test_samples=32),
            train=spec.train.with_(epochs=1, batch_size=self.batch_size,
                                   max_batches_per_epoch=batches))


WORKLOADS = {workload.name: workload for workload in (
    Serving("http_smoke",
            "tiny float model: HTTP front door, dispatch and shm transport dominate",
            preset="smoke", width=0.125, workers=2, secure=False,
            open_rps=80.0, closed_share=0.4, inputs=512),
    # One worker: with two, this compute-bound model measured 14-55 rps
    # across runs on a 2-core host and its open loop backed up to seconds.
    # Three quarters of the run go to the open loop so its p90 rests on
    # ~220 requests; at half, the ~150 it got left p90 spreading 28% over seeds.
    Serving("http_vgg8",
            "full-width float VGG-8: compiled steps and backend kernels dominate",
            preset="vgg8-quadratic", width=1.0, workers=1, secure=False,
            open_rps=20.0, closed_share=0.25, inputs=128),
    Serving("http_secure",
            "fixed-point serving: triple pools gate dispatch, pickled responses",
            preset="smoke", width=0.125, workers=2, secure=True,
            open_rps=40.0, closed_share=0.4, inputs=256),
    Training("train_vgg8",
             "QDNN training: autograd forward, backward and optimizer steps",
             preset="vgg8-quadratic", width=0.5, batch_size=32),
)}
