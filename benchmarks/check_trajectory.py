"""CI gate: compare the latest benchmark run against its own trajectory.

The quick-mode benches append one headline record per run to
``results/trajectory.jsonl``.  This script re-reads that history and, for
each benchmark it knows about, checks the *most recent* record against the
records that preceded it using :func:`common.check_against_trajectory` —
the same trajectory-relative bands the benches apply inline, but runnable
as a standalone CI step after all benches have finished (so one workflow
step owns the regression verdict and the uploaded artifact always matches
what was gated).

Tolerance bands come from the history's own dispersion
(``max(rel_floor x |median|, mad_k x MAD)``), checks are one-sided in the
benchmark's declared "better" direction, and fewer than
``MIN_TRAJECTORY_HISTORY`` comparable records is a pass with a note —
fresh checkouts, where ``benchmarks/results/`` starts empty, can never
fail this gate.

When ``$GITHUB_STEP_SUMMARY`` names a file, the script also appends a
Markdown trend table to it: one row per gated field, with the latest
value, the history band, the status and the record's ``armed`` and
``cpus``.

Exit status: 0 on pass (including insufficient history), 1 on any
trajectory-relative regression.
"""

from __future__ import annotations

import os
import sys

from common import (check_against_trajectory, format_trajectory_findings,
                    load_trajectory)

#: Per-benchmark headline fields and which direction is *better*.  A
#: benchmark absent from this registry is reported but never gated; a field
#: absent from a record yields a ``missing`` finding (also never a failure,
#: so the registry can grow ahead of the benches).  ``"lower-exact"`` marks
#: a deterministic byte count: identical from run to run, so it is gated
#: with no relative slack.
DIRECTIONS = {
    "serving_scaleout": {
        "baseline_samples_per_s": "higher",
        "best_pool_samples_per_s": "higher",
        "best_vs_baseline": "higher",
        "open_loop_p99_ms": "lower",
        "heap_bytes_per_batch": "lower",
        "tensor_sized_allocations": "lower",
    },
    "secure_serving": {
        "online_ratio": "higher",
        "baseline_qps": "higher",
        "converted_qps": "higher",
        "converted_online_ms": "lower",
    },
    "inference_throughput": {
        "speedup": "higher",
    },
    "backend_throughput": {
        "numpy_samples_per_s": "higher",
        "threaded_samples_per_s": "higher",
    },
    "secure_inference": {
        "cost_ratio": "higher",
    },
    "dataloader_prefetch": {
        "speedup": "higher",
    },
    "fig8_hybrid_bp": {
        "default_peak_bytes": "lower-exact",
        "hybrid_peak_bytes": "lower-exact",
    },
    "fig5_memory_budgets": {
        "vgg16_first_order_total_bytes": "lower-exact",
        "vgg16_quadratic_total_bytes": "lower-exact",
        "resnet32_first_order_total_bytes": "lower-exact",
        "resnet32_quadratic_total_bytes": "lower-exact",
        "resnet50_like_first_order_total_bytes": "lower-exact",
        "resnet50_like_quadratic_total_bytes": "lower-exact",
    },
}


def check_benchmark(name: str, directions: dict) -> tuple:
    """One benchmark's latest record (``None`` without records) and its
    findings against the prior history."""
    history = load_trajectory(name)
    if not history:
        print(f"trajectory check [{name}]: no records — skipped")
        return None, []
    latest, prior = history[-1], history[:-1]
    findings = check_against_trajectory(name, latest, directions, history=prior)
    print(format_trajectory_findings(name, findings))
    return latest, findings


def _cell(value) -> str:
    """A table cell: whole numbers in full (byte counts), others to 4 digits."""
    if value is None:
        return "–"
    if isinstance(value, float):
        return f"{value:,.0f}" if value.is_integer() else f"{value:.4g}"
    return str(value)


def trend_table(checked: list) -> str:
    """A Markdown table of every checked field: ``checked`` holds one
    ``(name, latest record, findings)`` per benchmark with records."""
    lines = ["### Benchmark trajectory", "",
             "| bench | field | latest | history median ± tolerance | status "
             "| history | armed | cpus |",
             "|---|---|---|---|---|---|---|---|"]
    for name, latest, findings in checked:
        for f in findings:
            band = ("–" if f["median"] is None
                    else f"{_cell(f['median'])} ± {_cell(f['tolerance'])}")
            lines.append(f"| {name} | {f['field']} | {_cell(f['value'])} | {band} "
                         f"| {f['status']} | {f['history']} "
                         f"| {_cell(latest.get('armed'))} | {_cell(latest.get('cpus'))} |")
    return "\n".join(lines) + "\n"


def main() -> int:
    regressions, checked = [], []
    for name, directions in sorted(DIRECTIONS.items()):
        latest, findings = check_benchmark(name, directions)
        if latest is not None:
            checked.append((name, latest, findings))
        regressions.extend(f for f in findings if f["status"] == "regression")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as handle:
            handle.write(trend_table(checked))
    if regressions:
        print(f"\nFAIL: {len(regressions)} trajectory-relative regression(s):")
        for f in regressions:
            print(f"  {f['field']} = {f['value']:.4g} vs history median "
                  f"{f['median']:.4g} ± {f['tolerance']:.4g} "
                  f"over {f['history']} runs")
        return 1
    print("\ntrajectory gate: PASS (no regression against history)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
