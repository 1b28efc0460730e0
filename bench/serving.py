"""Serving workloads: the deployed server, driven over HTTP from one process.

A run fits the served weights with a short fixed-seed ``Experiment.fit`` and
computes the in-process answer for every input.  It then launches
``python -m repro serve`` ``SESSIONS`` times, one after another: each launch
is timed to its first answer, then driven through 200 warm-up requests, a
closed-loop phase and an open-loop phase for its share of ``--seconds``, and
stopped.  The shares are pooled.  Every answer is compared bit for bit with
the in-process answer.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import ppml
from repro.data.synthetic.classification import SyntheticImageClassification
from repro.experiment import Experiment
from repro.serve.metrics import percentile

from httpload import LoadGenerator, Outcome, encode_request, latency_summary, poisson_offsets
from probes import PROBE_SAMPLES, compiled_probe, secure_probe
from spans import Tracer
from workloads import (PER_LAYER, ROOT, SESSIONS, BenchmarkError, RunResult, Serving,
                       child_env, vm_hwm_mb)

WARMUP_REQUESTS = 200
#: keep-alive connections of the load generator: the core count of the 2-core
#: host the workloads were sized on, fixed so every host runs the same load.
CONNECTIONS = 2
LAUNCH_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0
#: an unstable capacity plan predicts an infinite p50; its error is reported as this.
UNSTABLE_PLAN_ERROR = 1000.0


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


class Server:
    """One ``python -m repro serve`` process, timed from launch to first answer."""

    def __init__(self, checkpoint: str, workload: Serving, log_path: str,
                 first_sample: np.ndarray) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--from-checkpoint", checkpoint,
                   "--port", "0", "--cache-size", "0", "--workers", str(workload.workers)]
        if workload.secure:
            command.append("--secure")
        self.log_path = log_path
        self._log = open(log_path, "wb")
        launched = time.perf_counter()
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self._log,
                                        env=child_env(), cwd=ROOT, start_new_session=True)
        try:
            self.url = self._read_url()
            listening = time.perf_counter()
            self.first_output = self._first_answer(first_sample)
        except BaseException:
            self.stop()
            raise
        self.listen_s = listening - launched
        self.ready_s = time.perf_counter() - listening

    def _read_url(self) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], LAUNCH_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else b""
        match = re.search(rb" on (http://\S+) with ", line)
        if match is None:
            raise BenchmarkError(f"server printed no URL ({line!r}); see {self.log_path}")
        return match.group(1).decode()

    def _first_answer(self, sample: np.ndarray) -> np.ndarray:
        body = json.dumps({"input": sample.tolist()}).encode()
        request = urllib.request.Request(f"{self.url}/predict", data=body, method="POST",
                                         headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=LAUNCH_TIMEOUT_S) as response:
                return np.asarray(json.loads(response.read())["output"])
        except urllib.error.URLError as error:
            raise BenchmarkError(f"first request to {self.url} failed: {error}; "
                                 f"see {self.log_path}") from None

    def stats(self) -> dict:
        return get_json(f"{self.url}/stats")

    def peak_rss_mb(self, stats: dict) -> float:
        """Summed ``VmHWM`` of the server and the workers ``/stats`` lists."""
        pids = [self.process.pid] + [w["pid"] for w in stats["pool"]["workers"]]
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        """SIGINT (the server drains and exits), then SIGKILL the group if needed."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


@dataclass
class Phases:
    """Outcomes of one warm-up + closed + open pass over a running server."""

    warmup: List[Outcome]
    closed: List[Outcome]
    closed_s: float
    open: List[Outcome]
    lateness_ms: List[float]
    snapshots: List[dict]          # GET /stats before and after each traced phase


def pooled(passes: List[Phases]) -> Dict[str, float]:
    """Closed-loop throughput and open-loop latency over the passes of all sessions."""
    completed = sum(1 for p in passes for o in p.closed if o.status == 200)
    summary = latency_summary([o for p in passes for o in p.open])
    return {"throughput": completed / sum(p.closed_s for p in passes), **summary}


async def drive(generator: LoadGenerator, offsets: np.ndarray, closed_seconds: float,
                tracer: Tracer, stats_url: str, warmup: int) -> Phases:
    snapshots: List[dict] = []

    def snapshot() -> None:
        if tracer.enabled:
            with tracer.span("stats.get"):
                snapshots.append(get_json(stats_url))

    warm = await generator.closed(Tracer(False), count=warmup)
    snapshot()
    with tracer.span("phase.closed") as span:
        start = time.perf_counter()
        closed = await generator.closed(tracer, seconds=closed_seconds, parent=span)
        closed_s = max(o.done for o in closed) - start
    snapshot()
    with tracer.span("phase.open") as span:
        opened, lateness = await generator.open(offsets, tracer, parent=span)
    snapshot()
    return Phases(warm, closed, closed_s, opened, lateness, snapshots)


def stats_metrics(before: dict, after: dict) -> Dict[str, float]:
    """Per-layer numbers from ``GET /stats`` read before and after the phases.

    Counters are differences between the two reads.  Latency percentiles
    are the server's lifetime reservoirs as read ``after``.
    """
    pool0, pool1 = before["pool"], after["pool"]
    latency = pool1["latency"]
    endpoint = after["serving"]["endpoints"]["/predict"]
    transport0, transport1 = pool0["transport"], pool1["transport"]
    completed = pool1["completed"] - pool0["completed"]
    fallbacks = sum(transport1[key] - transport0[key] for key in
                    ("inline_dispatches", "inline_responses", "assembly_fallbacks"))
    depths = list(pool1["pipeline"]["pipeline_depth_current"].values())
    rejected = sum(pool1[key] - pool0[key] for key in ("rejected_saturated", "rejected_budget"))
    metrics = {
        "http.endpoint_p50_ms": endpoint["p50_ms"],
        "http.endpoint_p99_ms": endpoint["p99_ms"],
        "http.self_p50_ms": endpoint["p50_ms"] - latency["total"]["p50_ms"],
        "pool.queue_p50_ms": latency["queue"]["p50_ms"],
        "pool.queue_p99_ms": latency["queue"]["p99_ms"],
        "pool.total_p50_ms": latency["total"]["p50_ms"],
        "pool.total_p99_ms": latency["total"]["p99_ms"],
        "pipeline.depth_mean": sum(depths) / len(depths) if depths else 0.0,
        "pool.submitted": pool1["submitted"] - pool0["submitted"],
        "pool.failed": pool1["failed"] - pool0["failed"],
        "pool.retried": pool1["retried"] - pool0["retried"],
        "pool.respawns": pool1["respawns"] - pool0["respawns"],
        "pool.rejected": rejected,
        "shm.transport_p50_ms": latency["transport"]["p50_ms"],
        "shm.transport_p99_ms": latency["transport"]["p99_ms"],
        "shm.fallback_ratio": fallbacks / completed if completed else 0.0,
        "worker.compute_p50_ms": latency["compute"]["p50_ms"],
        "worker.compute_p99_ms": latency["compute"]["p99_ms"],
        "offline.refill_rps": 0.0, "offline.stalls": 0, "offline.stall_ratio": 0.0,
    }
    if pool1["secure"] is not None:
        metrics["pool.rejected"] += (pool1["secure"]["rejected_precompute"]
                                     - pool0["secure"]["rejected_precompute"])
        pools0 = pool0["secure"]["offline"]["pools"]
        pools1 = pool1["secure"]["offline"]["pools"]
        stalls = sum(p["stalls"] - pools0.get(k, {}).get("stalls", 0) for k, p in pools1.items())
        consumed = sum(p["consumed"] - pools0.get(k, {}).get("consumed", 0)
                       for k, p in pools1.items())
        metrics["offline.refill_rps"] = sum(p["refill_rps"] for p in pools1.values())
        metrics["offline.stalls"] = stalls
        metrics["offline.stall_ratio"] = stalls / consumed if consumed else 0.0
    return metrics


def secure_problems(stats: dict, predictor, input_shape) -> List[str]:
    """``produced == available + consumed`` in every triple pool, and the
    served per-request protocol totals equal the static analysis."""
    problems = []
    offline = stats["pool"]["secure"]["offline"]
    for key, pool in offline["pools"].items():
        if pool["produced"] != pool["available"] + pool["consumed"]:
            problems.append(f"triple pool {key}: produced != available + consumed ({pool})")
    static = ppml.analyse_model(predictor.model, input_shape, protocol=predictor.protocol)
    trace = predictor.last_trace
    if not trace.matches_report(static):
        problems.append(f"in-process trace differs from ppml.analyse_model: "
                        f"{trace.count_diff([layer.operations for layer in static.layers])}")
    measured = offline["measured"]
    for field, per_request in trace.totals().items():
        if measured[field] != measured["requests"] * per_request:
            problems.append(f"served {field} {measured[field]} != "
                            f"{measured['requests']} requests x {per_request}")
    return problems


@dataclass
class Session:
    """One server launch: its set-up times, its measured pass and its final ``/stats``."""

    listen_s: float
    ready_s: float
    first_output: np.ndarray
    phases: Phases
    reference: Optional[Phases]    # the untraced repeat of a traced pass
    final_stats: dict
    rss_mb: float


def run_session(index: int, checkpoint: str, workload: Serving, samples: np.ndarray,
                requests: List[bytes], seed: int, seconds: float, tracer: Tracer,
                work_dir: str) -> Session:
    """Launch a server, measure its share of the run, stop it."""
    closed_seconds = seconds * workload.closed_share
    offsets = poisson_offsets(workload.open_rps, seconds - closed_seconds, (seed, index))
    server = Server(checkpoint, workload, os.path.join(work_dir, f"server{index}.log"),
                    samples[0])
    try:
        stats_url = f"{server.url}/stats"
        generator = LoadGenerator(server.url, requests, CONNECTIONS)

        async def measure():
            try:
                if not tracer.enabled:
                    return await drive(generator, offsets, closed_seconds, tracer, stats_url,
                                       WARMUP_REQUESTS), None
                # The traced pass and its untraced repeat swap order from one
                # launch to the next, so neither always meets the warmer server.
                order = [tracer, Tracer(False)] if index % 2 == 0 else [Tracer(False), tracer]
                first = await drive(generator, offsets, closed_seconds, order[0], stats_url,
                                    WARMUP_REQUESTS)
                second = await drive(generator, offsets, closed_seconds, order[1], stats_url, 0)
                return (first, second) if order[0] is tracer else (second, first)
            finally:
                await generator.close()

        phases, reference = asyncio.run(measure())
        final = server.stats()
        rss_mb = server.peak_rss_mb(final)
    finally:
        server.stop()
    return Session(server.listen_s, server.ready_s, server.first_output, phases, reference,
                   final, rss_mb)


def run_serving(workload: Serving, seed: int, seconds: float, tracer: Tracer,
                work_dir: str) -> RunResult:
    checkpoint_dir = os.path.join(work_dir, "checkpoint")
    spec = workload.spec()
    spec = spec.with_(train=spec.train.with_(checkpoint_dir=checkpoint_dir))
    experiment = Experiment(spec)
    experiment.fit()
    checkpoint = os.path.join(checkpoint_dir, "latest.npz")

    samples = SyntheticImageClassification(
        num_samples=workload.inputs, num_classes=spec.data.num_classes,
        image_size=spec.data.image_size, seed=seed, split_seed=1).images
    predictor = experiment.secure_predictor() if workload.secure else None
    if predictor is not None:
        expected = [predictor.predict(sample) for sample in samples]
    else:
        compiled = experiment.compile_inference()
        expected = [compiled(sample[None])[0] for sample in samples]
    if not all(np.all(np.isfinite(output)) for output in expected):
        raise BenchmarkError(f"{workload.name}: the model answers non-finite values; "
                             f"timing NaN arithmetic would measure a different program")
    requests = [encode_request("127.0.0.1", sample) for sample in samples]

    sessions = [run_session(index, checkpoint, workload, samples, requests, seed,
                            seconds / SESSIONS, tracer, work_dir)
                for index in range(SESSIONS)]

    problems: List[str] = []
    outcomes = [o for s in sessions for p in (s.phases, s.reference) if p is not None
                for o in p.warmup + p.closed + p.open]
    wrong = sum(1 for o in outcomes if o.status != 200 or o.output is None
                or not np.array_equal(np.asarray(o.output, dtype=expected[o.index].dtype),
                                      expected[o.index]))
    wrong += sum(1 for s in sessions
                 if not np.array_equal(s.first_output.astype(expected[0].dtype), expected[0]))
    if wrong:
        problems.append(f"{wrong} of {len(outcomes) + SESSIONS} requests failed or answered "
                        f"differently from the in-process model")
    if predictor is not None:
        for session in sessions:
            problems.extend(secure_problems(session.final_stats, predictor, samples.shape[1:]))

    measured = pooled([s.phases for s in sessions])
    if tracer.enabled:
        metrics = traced_metrics(workload, experiment, predictor, samples, sessions, tracer)
    else:
        metrics = {"setup_s": statistics.median(s.listen_s + s.ready_s for s in sessions),
                   "latency_p50_ms": measured["p50_ms"],
                   "latency_p90_ms": measured["p90_ms"],
                   "throughput_per_s": measured["throughput"],
                   "peak_rss_mb": max(s.rss_mb for s in sessions)}
    return RunResult(metrics, attempted=len(outcomes) + SESSIONS, failed=wrong,
                     latency_samples=measured["count"], sample_unit="open-loop requests",
                     problems=problems)


def traced_metrics(workload: Serving, experiment: Experiment, predictor, samples: np.ndarray,
                   sessions: List[Session], tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics: ``/stats`` differences (median over sessions), client-side
    numbers over all sessions, then the in-process probes on the idle host."""
    metrics = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    per_session = [stats_metrics(s.phases.snapshots[0], s.phases.snapshots[-1])
                   for s in sessions]
    metrics.update({name: statistics.median(m[name] for m in per_session)
                    for name in per_session[0]})
    passes = [s.phases for s in sessions]
    client_p50 = percentile([o.service_ms for p in passes for o in p.closed + p.open
                             if o.status == 200], 50)
    metrics["loadgen.overhead_p50_ms"] = client_p50 - metrics["http.endpoint_p50_ms"]
    metrics["loadgen.lateness_p99_ms"] = percentile(
        [late for p in passes for late in p.lateness_ms], 99)
    metrics["setup.listen_s"] = statistics.median(s.listen_s for s in sessions)
    metrics["setup.ready_s"] = statistics.median(s.ready_s for s in sessions)

    probe_samples = samples[:PROBE_SAMPLES]
    metrics.update(compiled_probe(experiment.model, probe_samples, tracer))
    if predictor is not None:
        metrics.update(secure_probe(predictor, probe_samples, tracer))
        in_process_ms = metrics["ppml.online_b1_ms"]
    else:
        in_process_ms = metrics["compiled.forward_b1_ms"]
    metrics["worker.contention_ratio"] = metrics["worker.compute_p50_ms"] / in_process_ms

    traced = pooled(passes)
    os.environ.setdefault("REPRO_RATES_CACHE", "off")      # keep kernel rates out of $HOME
    plan = experiment.plan(workload.open_rps, workers=workload.workers, secure=workload.secure)
    compute_p50 = metrics["worker.compute_p50_ms"]
    metrics["capacity.service_rel_err"] = (plan.service_ms - compute_p50) / compute_p50
    metrics["capacity.p50_rel_err"] = (
        (plan.p50_ms - traced["p50_ms"]) / traced["p50_ms"] if np.isfinite(plan.p50_ms)
        else UNSTABLE_PLAN_ERROR)

    untraced = pooled([s.reference for s in sessions])
    metrics["trace.overhead_p50_ms"] = traced["p50_ms"] - untraced["p50_ms"]
    metrics["trace.overhead_throughput_pct"] = (
        100.0 * (untraced["throughput"] - traced["throughput"]) / untraced["throughput"])
    return metrics
