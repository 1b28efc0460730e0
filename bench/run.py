"""The repository benchmark: HTTP serving, secure serving and QDNN training.

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--repeat K]

An untraced run prints every end-to-end metric of each workload; a
``--trace`` run prints every per-layer metric instead and writes its spans
to ``.bench_work/traces/<workload>-seed<N>.jsonl``.  ``--seconds`` defaults
to the ``run_seconds`` of ``BENCHMARK.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 0 when every correctness
check passed, 1 when one failed, and 2 when a workload could not be
measured (then no result line is printed).

``--repeat K`` runs each workload K times in fresh processes with seeds N,
N+1, ... and prints each metric's median, quartiles and spreads.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from typing import Dict, List  # noqa: E402

import numpy as np  # noqa: E402

from serving import run_serving  # noqa: E402
from spans import Tracer  # noqa: E402
from training import run_training  # noqa: E402
from workloads import ROOT, UNITS, WORKLOADS, BenchmarkError, RunResult, Training  # noqa: E402

WORK_ROOT = ROOT / ".bench_work"
#: thread-count variables that change what the program does; recorded, never set.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> Dict[str, object]:
    """What the numbers depend on besides the code: cores, BLAS, threads, versions."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas,
            **{name: os.environ.get(name) for name in THREAD_VARIABLES},
            "python": platform.python_version(), "numpy": np.__version__, "commit": commit}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    workload = WORKLOADS[name]
    tracer = Tracer(trace)
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    runner = run_training if isinstance(workload, Training) else run_serving
    result = runner(workload, seed, seconds, tracer, work_dir)
    shutil.rmtree(work_dir)            # kept, with the process logs, when the run failed
    if trace:
        tracer.write(str(WORK_ROOT / "traces" / f"{name}-seed{seed}.jsonl"))
    return result


def print_result(name: str, result: RunResult) -> None:
    rate = result.failed / result.attempted if result.attempted else 0.0
    print(f"== {name}: {result.attempted} attempted, {result.failed} failed "
          f"(error rate {rate:.4f}), latency percentiles over {result.latency_samples} "
          f"{result.sample_unit}, checks {'passed' if result.correct else 'FAILED'}")
    for metric, value in result.metrics.items():
        print(f"  {metric:<32} {value:>16.6g} {UNITS[metric]}")
    for problem in result.problems:
        print(f"  check failed: {problem}")


def result_line(results: Dict[str, RunResult]) -> Dict[str, object]:
    """The final JSON object; metric names get a ``<workload>.`` prefix when
    more than one workload ran."""
    metrics = {}
    for name, result in results.items():
        for metric, value in result.metrics.items():
            key = metric if len(results) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value if isinstance(value, int) else float(value),
                            "unit": UNITS[metric]}
    return {"correct": all(r.correct for r in results.values()),
            "attempted": sum(r.attempted for r in results.values()),
            "failed": sum(r.failed for r in results.values()),
            "metrics": metrics}


def spread_table(name: str, values: Dict[str, List[float]]) -> List[str]:
    rows = []
    for metric, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        iqr = (q3 - q1) / abs(median) if median else 0.0
        full = (max(series) - min(series)) / abs(median) if median else 0.0
        rows.append(f"  {name:<12} {metric:<32} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                    f"{iqr:>8.3f} {full:>8.3f} {UNITS[metric]}")
    return rows


def repeat(args: argparse.Namespace, names: List[str]) -> int:
    """Run each workload ``args.repeat`` times in fresh processes; print spreads."""
    ok = True
    rows = []
    for name in names:
        values: Dict[str, List[float]] = defaultdict(list)
        for k in range(args.repeat):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed + k), "--seconds", str(args.seconds)]
            command += ["--trace"] if args.trace else []
            run = subprocess.run(command, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode not in (0, 1) or not lines:
                ok = False
                print(f"{name} seed {args.seed + k}: exit {run.returncode}\n{run.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            line = json.loads(lines[-1])
            ok = ok and line["correct"] and run.returncode == 0
            print(f"{name} seed {args.seed + k}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']}", flush=True)
            for metric, entry in line["metrics"].items():
                values[metric].append(entry["value"])
        if all(len(series) >= 2 for series in values.values()):
            rows.extend(spread_table(name, values))
    print(f"  {'workload':<12} {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} unit")
    print("\n".join(rows))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload run (default: run_seconds "
                             "of BENCHMARK.json)")
    # ``--trace`` alone, or ``--trace 0|1`` with an explicit value.
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="per-layer run: record spans, print per-layer metrics")
    parser.add_argument("--repeat", type=int, default=0, metavar="K",
                        help="run each workload K times (seeds N..N+K-1) and print spreads")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    env = environment()
    print("environment: " + json.dumps(env))
    for variable in THREAD_VARIABLES:
        if env[variable] is not None:
            print(f"warning: {variable}={env[variable]} is set; it changes how many threads "
                  f"the served program uses, and so what is measured", file=sys.stderr)
    if args.repeat:
        if args.repeat < 2:
            parser.error("--repeat needs at least 2 runs to compute quartiles")
        return repeat(args, names)

    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for name, result in results.items():
        print_result(name, result)
    line = result_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
