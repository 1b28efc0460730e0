"""Scale-out serving benchmark: worker pool vs the single-process predictor.

Measures sustained single-sample serving throughput on the ``smoke`` preset
(quadratic VGG-8, the CI canary model) for

1. the single-process baseline — PR 2's :class:`BatchedPredictor` fed one
   sample at a time from a submitting thread, and
2. the ``repro.serve`` :class:`WorkerPool` at increasing worker counts, fed
   the same stream through its dispatcher (IPC, least-loaded dispatch and
   per-worker micro-batching included — this is the *deployed* path, not a
   best case).

On a host with parallelism headroom (>= 3 cores: the workers plus the
parent's submit/dispatch threads) the pool must beat the baseline by
``MIN_SCALEOUT`` (1.5x) at 2+ workers, and the run **fails** otherwise —
this is the CI regression gate for the serving subsystem.  With fewer cores
process parallelism has nothing to scale onto, so the numbers are reported
but the ratio is not asserted (the report says so explicitly).

The second experiment is the **open-loop tail-latency SLO gate**: a seeded
Poisson arrival schedule (from ``tests/serve/loadgen.py`` — the same
generator the tests use) fired at a pool at ~60% of its measured capacity,
reporting client-side p50/p95/p99 and the pool's own per-stage percentiles.
The p99 SLO is *relative* — a multiple of the pool's unloaded single-request
latency on this host — so the gate tracks serving regressions, not hardware.
It is enforced under the same >= 3 cores headroom rule; below that the
verdict is printed report-only.

The third experiment is the **allocation-count scenario**: the warm shm
hot path (in-ring assembly + arena-backed ``out=`` execution) runs one
steady-state batch under ``tracemalloc`` and the run fails if any source
line's typical allocation reaches 1 KiB — i.e. if a tensor-sized buffer
sneaks back onto the per-batch path.  This one is in-process arithmetic,
so it is asserted at **any** core count.  Every run also appends its
headline numbers to ``results/trajectory.jsonl`` so perf PRs have an
append-only before/after record.

Run with ``PYTHONPATH=src python benchmarks/bench_serving_scaleout.py``;
``--quick`` / ``REPRO_BENCH_QUICK=1`` is the CI mode (fewer samples, fewer
pool sizes).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

from common import append_trajectory, check_against_trajectory, \
    format_trajectory_findings, fresh_seed, load_trajectory, quick_mode, \
    save_experiment

from repro.experiment import Experiment, get_preset
from repro.inference import BatchedPredictor
from repro.serve import ServeConfig, WorkerPool
from repro.utils.logging import format_table

# The load generator is shared with the serving tests so the benchmark and
# the test suite can never disagree about what an "open loop" or a "p99" is.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests" / "serve"))
from loadgen import check_percentile, poisson_schedule, run_open_loop  # noqa: E402

#: samples streamed through each serving configuration
SAMPLES = 256
#: pool sizes to sweep
WORKER_COUNTS = (1, 2, 4)
#: CI quick mode
QUICK_SAMPLES = 64
QUICK_WORKER_COUNTS = (2,)

#: the issue's acceptance bar: pool throughput vs single-process baseline
MIN_SCALEOUT = 1.5

#: open-loop scenario: requests, offered load vs measured capacity, and the
#: p99 SLO as a multiple of the unloaded single-request latency.
OPEN_LOOP_REQUESTS = 200
QUICK_OPEN_LOOP_REQUESTS = 80
OPEN_LOOP_UTILIZATION = 0.6
SLO_P99_MULTIPLE = 20.0
SLO_SLACK_MS = 50.0          # shared-runner scheduler noise allowance
OPEN_LOOP_SEED = 11

#: capacity-planner validation: the analytical prediction must land within
#: this relative error of the measurement (both directions) on hosts with
#: parallelism headroom.  See repro.capacity / docs/capacity.md.
PLAN_ERROR_BAND = 0.35

#: which way is *better* for each trajectory headline field — the
#: trajectory-relative regression gate is one-sided (getting faster passes).
TRAJECTORY_DIRECTIONS = {
    "baseline_samples_per_s": "higher",
    "best_pool_samples_per_s": "higher",
    "best_vs_baseline": "higher",
    "open_loop_p99_ms": "lower",
    "heap_bytes_per_batch": "lower",
    "tensor_sized_allocations": "lower",
}


def measure_baseline(compiled, samples: np.ndarray) -> float:
    """Samples/second of the single-process micro-batching predictor."""
    with BatchedPredictor(compiled, max_batch_size=8, max_wait=0.002,
                          autostart=False) as predictor:
        handles = [predictor.submit(sample) for sample in samples]
        start = time.perf_counter()
        predictor.start()
        for handle in handles:
            handle.result(timeout=120.0)
        elapsed = time.perf_counter() - start
    return len(samples) / elapsed


def measure_pool(spec, state, workers: int, samples: np.ndarray) -> float:
    """Samples/second of a started WorkerPool fed the same stream."""
    config = ServeConfig(workers=workers, startup_timeout=180.0,
                         queue_depth=max(len(samples) // workers, 8))
    with WorkerPool(spec, state=state, config=config) as pool:
        pool.predict(samples[0], timeout=120.0)      # warm every IPC path once
        start = time.perf_counter()
        futures = [pool.submit(sample) for sample in samples]
        for future in futures:
            future.result(timeout=120.0)
        elapsed = time.perf_counter() - start
    return len(samples) / elapsed


def measure_open_loop(spec, state, workers: int, samples: np.ndarray,
                      pool_rps: float, enforce: bool) -> dict:
    """Open-loop Poisson load at ~60% of measured capacity + p99 SLO verdict.

    The SLO is relative: ``SLO_P99_MULTIPLE`` x the pool's unloaded
    single-request latency (median of a few sequential predicts) plus a
    fixed CI-noise slack.  At 60% utilization an M/G/k queue's p99 sits a
    small multiple above the service time; a 20x blowout means the data
    plane regressed, not that the host was busy.
    """
    config = ServeConfig(workers=workers, startup_timeout=180.0,
                         cache_size=0)
    with WorkerPool(spec, state=state, config=config) as pool:
        unloaded = []
        for index in range(5):                       # warm + unloaded baseline
            clock = time.perf_counter()
            pool.predict(samples[index % len(samples)], timeout=120.0)
            unloaded.append((time.perf_counter() - clock) * 1000.0)
        unloaded_ms = sorted(unloaded)[len(unloaded) // 2]

        rate = max(OPEN_LOOP_UTILIZATION * pool_rps, 1.0)
        count = len(samples)
        schedule = poisson_schedule(rate_rps=rate, count=count,
                                    seed=OPEN_LOOP_SEED)

        def submit(index: int) -> int:
            pool.predict(samples[index % len(samples)], timeout=120.0)
            return 200

        report = run_open_loop(submit, schedule)
        stages = pool.stats()["latency"]

    limit_ms = SLO_P99_MULTIPLE * unloaded_ms
    verdict = check_percentile(report, 99, limit_ms, slack_ms=SLO_SLACK_MS)
    summary = report.summary()
    rows = [[f"p{q:g} (client)", f"{summary[f'p{q:g}_ms']:.2f} ms"]
            for q in (50, 95, 99)]
    rows += [[f"{stage} p99 (server)", f"{stages[stage]['p99_ms']:.2f} ms"]
             for stage in ("queue", "transport", "compute", "total")]
    rows.append(["SLO p99 limit", f"{limit_ms:.2f} ms (+{SLO_SLACK_MS:g} slack)"])
    rows.append(["SLO verdict", "PASS" if verdict["ok"] else
                 ("FAIL" if enforce else "MISS (report-only)")])
    gate = (f"gate: p99 <= {SLO_P99_MULTIPLE:g}x unloaded latency" if enforce
            else "report-only: no parallelism headroom on this host")
    print(format_table(
        ["Open-loop tail latency", "value"], rows,
        title=f"Open loop: {count} Poisson arrivals at {rate:,.0f} rps, "
              f"{workers} worker(s) — {gate}"))

    return {
        "workers": workers,
        "offered_rps": rate,
        "requests": count,
        "unloaded_ms": unloaded_ms,
        "client": summary,
        "stage_p99_ms": {stage: stages[stage]["p99_ms"]
                         for stage in ("queue", "transport", "compute", "total")},
        "slo": verdict,
        "enforced": enforce,
    }


def measure_allocations(spec, state, samples: np.ndarray) -> dict:
    """Warm-worker heap allocations per batch on the shm hot path.

    Runs the worker's exact data plane in-process — in-ring batch assembly
    (``ShmRing.assemble``), arena-backed execution with ``out=`` into a
    response-ring slot — under ``tracemalloc``, and reports any source line
    whose typical allocation reaches 1 KiB during one steady-state batch.
    Unlike the throughput gates this needs **no parallelism headroom**: it
    is in-process arithmetic, so it is asserted at any core count.
    """
    import queue
    import tracemalloc

    from repro.serve.shm import ShmRing
    from repro.serve.worker import ResponseArena, build_serving_predictor

    compiled = build_serving_predictor(spec.to_dict(), state)
    responses = queue.SimpleQueue()
    requests = np.ascontiguousarray(samples[:8])
    with ShmRing(slots=4, slot_bytes=1 << 20) as request_ring, \
            ShmRing(slots=4, slot_bytes=1 << 20) as response_ring:
        arena = ResponseArena(response_ring)

        def one_batch() -> None:
            slot, seq = request_ring.lease()
            view, frame = request_ring.assemble(
                slot, seq, requests.shape, requests.dtype)
            for index in range(len(requests)):
                np.copyto(view[index], requests[index])
            batch = request_ring.read(frame)
            arena.serve(compiled, batch, 0, list(range(len(batch))), 0.0,
                        responses)
            request_ring.release(slot, seq)
            _, _, _, (via, out_frame), _ = responses.get()
            assert via == "shm", "response fell off the ring path"
            response_ring.release(out_frame.slot, out_frame.seq)

        one_batch()                # cold: discovers output-row geometry
        one_batch()                # warm-up
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        one_batch()                # the measured steady-state batch
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()

    diffs = [stat for stat in after.compare_to(before, "lineno")
             if stat.size_diff > 0]
    offenders = [stat for stat in diffs
                 if stat.count_diff > 0
                 and stat.size_diff / stat.count_diff >= 1024]
    total_bytes = sum(stat.size_diff for stat in diffs)
    rows = [["batch size", f"{len(requests)}"],
            ["heap bytes per warm batch", f"{total_bytes:,d} "
             "(interpreter noise: view headers, tuples)"],
            ["tensor-sized allocations (>= 1 KiB)", f"{len(offenders)}"],
            ["verdict", "PASS" if not offenders else "FAIL"]]
    print(format_table(
        ["Warm-worker allocations", "value"], rows,
        title="Allocation-free hot path (gated at any core count)"))
    return {
        "batch_size": len(requests),
        "heap_bytes_per_batch": total_bytes,
        "tensor_sized_allocations": len(offenders),
        "offending_lines": [f"{stat.traceback[0].filename}:"
                            f"{stat.traceback[0].lineno}"
                            for stat in offenders],
    }


def validate_plan(experiment, sweep: list, open_loop: dict, enforce: bool) -> dict:
    """Capacity-planner validation: prediction vs measurement, same host.

    Asks :meth:`Experiment.plan` (measured kernel rates + M/M/c queueing —
    no load test) for the two numbers this benchmark just *measured*:

    * sustained pool throughput at the best sweep point, against the plan's
      full-batch ceiling for that worker count, and
    * client p99 at the open-loop operating point (offered rate, worker
      count), against the plan's Erlang-C p99.

    On hosts with parallelism headroom both predictions must land within
    ``PLAN_ERROR_BAND`` (±35 %) of the measurement; below that the workers
    time-slice one core, the model's independent-servers assumption does
    not hold, and the comparison is printed report-only.
    """
    best = max(sweep, key=lambda entry: entry["samples_per_s"])
    throughput_plan = experiment.plan(open_loop["offered_rps"],
                                      workers=best["workers"])
    open_plan = experiment.plan(open_loop["offered_rps"],
                                workers=open_loop["workers"])

    checks = []
    measured_tp = best["samples_per_s"]
    predicted_tp = throughput_plan.max_throughput_rps
    checks.append(("throughput", predicted_tp, measured_tp,
                   abs(predicted_tp - measured_tp) / measured_tp))
    measured_p99 = open_loop["client"]["p99_ms"]
    predicted_p99 = open_plan.p99_ms
    checks.append(("open-loop p99", predicted_p99, measured_p99,
                   abs(predicted_p99 - measured_p99) / measured_p99))

    rows = [[name, f"{predicted:,.2f}", f"{measured:,.2f}", f"{error:.1%}",
             "PASS" if error <= PLAN_ERROR_BAND else
             ("FAIL" if enforce else "MISS (report-only)")]
            for name, predicted, measured, error in checks]
    gate = (f"gate: prediction within ±{PLAN_ERROR_BAND:.0%} of measurement"
            if enforce else "report-only: no parallelism headroom on this host")
    print(format_table(
        ["Metric", "predicted", "measured", "error", "verdict"], rows,
        title=f"Capacity planner vs measurement — {gate}"))

    result = {
        "error_band": PLAN_ERROR_BAND,
        "enforced": enforce,
        "throughput": {"predicted_rps": predicted_tp, "measured_rps": measured_tp,
                       "rel_error": checks[0][3], "workers": best["workers"]},
        "p99": {"predicted_ms": predicted_p99, "measured_ms": measured_p99,
                "rel_error": checks[1][3], "workers": open_loop["workers"],
                "offered_rps": open_loop["offered_rps"]},
    }
    return result


def check_trajectory_gate(record: dict) -> list:
    """Trajectory-relative regression check: this run vs its own history.

    Tolerance bands come from the history's own dispersion
    (``common.trajectory_band``), restricted to records from comparable
    hosts — no fixed absolute thresholds.  With fewer than
    ``common.MIN_TRAJECTORY_HISTORY`` comparable records the check passes
    with a note (fresh checkouts have no history: ``benchmarks/results/``
    is not committed).  Must run *before* the current record is appended,
    so the history is strictly past runs.  The caller decides whether
    regressions fail the run (``main`` gates them with the other
    headroom-dependent assertions).
    """
    findings = check_against_trajectory("serving_scaleout", record,
                                        TRAJECTORY_DIRECTIONS)
    print("\n" + format_trajectory_findings("serving_scaleout", findings))
    return findings


def compare_with_previous(record: dict) -> None:
    """Print this run against the previous trajectory entry, if any."""
    history = load_trajectory("serving_scaleout")
    if not history:
        print("\ntrajectory: first recorded run")
        return
    previous = history[-1]
    fields = (("baseline_samples_per_s", "samples/s"),
              ("best_pool_samples_per_s", "samples/s"),
              ("open_loop_p99_ms", "ms"),
              ("heap_bytes_per_batch", "B"))
    lines = []
    for field, unit in fields:
        now, then = record.get(field), previous.get(field)
        if now is None or then is None:
            continue
        delta = now - then
        lines.append(f"  {field}: {now:,.1f} {unit} "
                     f"({'+' if delta >= 0 else ''}{delta:,.1f} vs last run)")
    print("\ntrajectory vs previous run:")
    print("\n".join(lines) if lines else "  (no comparable fields)")


def main() -> None:
    quick = quick_mode()
    num_samples = QUICK_SAMPLES if quick else SAMPLES
    worker_counts = QUICK_WORKER_COUNTS if quick else WORKER_COUNTS
    cores = os.cpu_count() or 1
    # The gate needs real parallelism headroom: two compiled-model workers
    # PLUS the parent's submit loop and dispatcher thread.  On exactly two
    # cores the parent steals time from the workers it is measuring, so the
    # assertion arms at >= 3 cores (ubuntu-latest CI runners have 4).
    enforce = cores >= 3

    fresh_seed()
    experiment = Experiment(get_preset("smoke"))
    model = experiment.build()
    model.eval()
    state = model.state_dict()
    compiled = experiment.compile_inference()

    rng = np.random.default_rng(0)
    shape = experiment.spec.data.input_shape
    samples = rng.standard_normal((num_samples,) + shape).astype(np.float32)

    baseline_rps = measure_baseline(compiled, samples)
    rows = [["single process (baseline)", f"{baseline_rps:,.0f}", "1.00x"]]
    sweep = []
    for workers in worker_counts:
        pool_rps = measure_pool(experiment.spec, state, workers, samples)
        ratio = pool_rps / baseline_rps
        rows.append([f"pool, {workers} worker(s)", f"{pool_rps:,.0f}", f"{ratio:.2f}x"])
        sweep.append({"workers": workers, "samples_per_s": pool_rps,
                      "vs_baseline": ratio})

    note = (f"gate: >= {MIN_SCALEOUT}x at 2+ workers" if enforce else
            f"{cores} cpu(s), no parallelism headroom: ratio reported, not asserted")
    print(format_table(
        ["Configuration", "samples / s", "vs baseline"], rows,
        title=f"Scale-out serving throughput ({num_samples} samples, {cores} cpus) — {note}",
    ))

    # Open-loop tail-latency scenario on the largest pool from the sweep.
    open_workers = max(worker_counts)
    open_rps = next(entry["samples_per_s"] for entry in sweep
                    if entry["workers"] == open_workers)
    open_count = QUICK_OPEN_LOOP_REQUESTS if quick else OPEN_LOOP_REQUESTS
    open_loop = measure_open_loop(
        experiment.spec, state, open_workers,
        samples[:open_count] if open_count <= len(samples) else
        np.concatenate([samples] * (1 + open_count // len(samples)))[:open_count],
        open_rps, enforce)

    allocations = measure_allocations(experiment.spec, state, samples)
    plan_validation = validate_plan(experiment, sweep, open_loop, enforce)

    save_experiment("serving_scaleout", {
        "quick_mode": quick,
        "cpus": cores,
        "samples": num_samples,
        "baseline_samples_per_s": baseline_rps,
        "scaleout_enforced": enforce,
        "min_scaleout": MIN_SCALEOUT,
        "pool_sweep": sweep,
        "open_loop": open_loop,
        "allocations": allocations,
        "plan_validation": plan_validation,
    })

    headline = {
        "quick_mode": quick,
        "cpus": cores,
        "armed": enforce,
        "baseline_samples_per_s": baseline_rps,
        "best_pool_samples_per_s": max(entry["samples_per_s"]
                                       for entry in sweep),
        "best_vs_baseline": max(entry["vs_baseline"] for entry in sweep),
        "open_loop_p99_ms": open_loop["client"]["p99_ms"],
        "heap_bytes_per_batch": allocations["heap_bytes_per_batch"],
        "tensor_sized_allocations": allocations["tensor_sized_allocations"],
        "plan_throughput_rel_err": plan_validation["throughput"]["rel_error"],
        "plan_p99_rel_err": plan_validation["p99"]["rel_error"],
    }
    trajectory_findings = check_trajectory_gate(headline)   # vs past runs only
    compare_with_previous(headline)
    append_trajectory("serving_scaleout", headline)

    # Allocation gate: in-process, so it holds regardless of core count.
    assert allocations["tensor_sized_allocations"] == 0, (
        "allocation regression: tensor-sized heap allocations on the warm "
        f"shm hot path at {allocations['offending_lines']}")
    print("\nallocation gate passed: 0 tensor-sized allocations per warm batch")

    if enforce:
        slo = open_loop["slo"]
        assert slo["ok"], (
            f"tail-latency regression: open-loop p99 {slo['value_ms']}ms "
            f"exceeds the SLO {slo['limit_ms']}ms (+{slo['slack_ms']}ms slack) "
            f"at {open_loop['offered_rps']:.0f} rps offered load")
        print(f"\np99 SLO gate passed: {slo['value_ms']}ms <= "
              f"{slo['limit_ms']:.1f}ms (+{slo['slack_ms']:g}ms slack)")

    if enforce:
        multi = [entry for entry in sweep if entry["workers"] >= 2]
        assert multi, "sweep never reached 2 workers; cannot evaluate the gate"
        best = max(entry["vs_baseline"] for entry in multi)
        assert best >= MIN_SCALEOUT, (
            f"scale-out regression: best multi-worker throughput is only "
            f"{best:.2f}x the single-process baseline (gate: {MIN_SCALEOUT}x)")
        print(f"\nscale-out gate passed: {best:.2f}x >= {MIN_SCALEOUT}x")
    else:
        print(f"\nscale-out gate skipped: {cores} cpu(s) leave no headroom for "
              "workers + dispatcher; see the vs-baseline column for measured ratios")

    if enforce:
        for name, side in (("throughput", plan_validation["throughput"]),
                           ("open-loop p99", plan_validation["p99"])):
            assert side["rel_error"] <= PLAN_ERROR_BAND, (
                f"capacity-plan drift: predicted {name} is "
                f"{side['rel_error']:.1%} from the measurement "
                f"(band: ±{PLAN_ERROR_BAND:.0%}; see repro.capacity)")
        print(f"capacity-plan gate passed: predictions within "
              f"±{PLAN_ERROR_BAND:.0%} of measurement")

        regressions = [f for f in trajectory_findings
                       if f["status"] == "regression"]
        assert not regressions, (
            "trajectory regression: "
            + "; ".join(f"{f['field']} = {f['value']:.4g} vs history median "
                        f"{f['median']:.4g} ± {f['tolerance']:.4g}"
                        for f in regressions))
        print("trajectory gate passed: no field outside its history band")


if __name__ == "__main__":
    main()
