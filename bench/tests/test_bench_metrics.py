"""The benchmark's metric arithmetic and its agreement with BENCHMARK.json."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from run import print_result, result_line  # noqa: E402
from serving import stats_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import END_TO_END, PER_LAYER, UNITS, WORKLOADS, RunResult  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _stats(submitted, completed, failed, retried, inline, rejected, depths,
           secure=None):
    """A ``GET /stats`` body with the fields the benchmark reads."""
    def reservoir(p50, p99):
        return {"p50_ms": p50, "p99_ms": p99}

    return {
        "serving": {"endpoints": {"/predict": {"p50_ms": 6.0, "p99_ms": 20.0}}},
        "pool": {
            "workers": [], "submitted": submitted, "completed": completed,
            "failed": failed, "retried": retried, "respawns": 0,
            "rejected_saturated": rejected, "rejected_budget": 1,
            "transport": {"inline_dispatches": inline, "inline_responses": 0,
                          "assembly_fallbacks": 2},
            "pipeline": {"pipeline_depth_current": {str(i): d for i, d in enumerate(depths)}},
            "latency": {"queue": reservoir(0.1, 0.9), "transport": reservoir(2.0, 5.0),
                        "compute": reservoir(1.5, 4.0), "total": reservoir(4.0, 9.0)},
            "secure": secure,
        },
    }


def _secure(rejected, stalls, consumed, refill):
    return {"rejected_precompute": rejected,
            "offline": {"pools": {"delphi/f12": {"stalls": stalls, "consumed": consumed,
                                                 "refill_rps": refill}}}}


def test_counters_are_differences_and_percentiles_are_read_after():
    before = _stats(200, 200, 0, 0, inline=3, rejected=0, depths=[2, 2])
    after = _stats(1200, 1190, 4, 6, inline=13, rejected=5, depths=[4, 2])
    metrics = stats_metrics(before, after)
    assert metrics["pool.submitted"] == 1000
    assert metrics["pool.failed"] == 4
    assert metrics["pool.retried"] == 6
    assert metrics["pool.rejected"] == 5
    assert metrics["shm.fallback_ratio"] == pytest.approx(10 / 990)
    assert metrics["pipeline.depth_mean"] == 3.0
    assert metrics["http.self_p50_ms"] == pytest.approx(2.0)     # endpoint - pool total
    assert metrics["worker.compute_p99_ms"] == 4.0
    assert metrics["offline.stalls"] == 0


def test_secure_counters_are_differences_too():
    before = _stats(0, 0, 0, 0, 0, 0, [1], secure=_secure(1, stalls=2, consumed=10, refill=50.0))
    after = _stats(0, 0, 0, 0, 0, 0, [1], secure=_secure(4, stalls=7, consumed=110, refill=80.0))
    metrics = stats_metrics(before, after)
    assert metrics["pool.rejected"] == 3
    assert metrics["offline.stalls"] == 5
    assert metrics["offline.stall_ratio"] == pytest.approx(5 / 100)
    assert metrics["offline.refill_rps"] == 80.0


def test_spans_of_one_request_share_its_trace():
    tracer = Tracer(True)
    with tracer.span("phase") as phase:
        request = tracer.record("http.predict", 1.0, 2.0, parent=phase)
        with tracer.span("child", parent=request):
            pass
    with tracer.span("other"):
        pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["child"].parent == request
    assert {by_name[n].trace for n in ("phase", "http.predict", "child")} == {phase}
    assert by_name["other"].trace == by_name["other"].span_id != phase
    assert tracer.durations_ms("http.predict") == [1000.0]
    off = Tracer(False)
    with off.span("phase") as span_id:
        off.record("http.predict", 1.0, 2.0, parent=span_id)
    assert off.spans == [] and span_id == 0


def test_declared_metrics_are_the_ones_the_benchmark_prints():
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    assert declared == UNITS
    assert [m["name"] for m in DECLARED["end_to_end"]] == [name for name, _ in END_TO_END]
    assert [m["name"] for m in DECLARED["per_layer"]] == [name for name, _ in PER_LAYER]
    assert all(NAME.fullmatch(name) for name in declared)
    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == \
        {name: workload.why for name, workload in WORKLOADS.items()}


@pytest.mark.parametrize("table", [END_TO_END, PER_LAYER], ids=["end_to_end", "per_layer"])
def test_every_printed_metric_is_declared(table, capsys):
    result = RunResult({name: 1.5 for name, _ in table}, attempted=10, failed=0,
                       latency_samples=7, sample_unit="open-loop requests")
    line = result_line({"http_smoke": result})
    assert set(line["metrics"]) == {name for name, _ in table}
    assert {entry["unit"] for entry in line["metrics"].values()} <= set(UNITS.values())
    print_result("http_smoke", result)
    header, *rows = capsys.readouterr().out.splitlines()
    assert "percentiles over 7 open-loop requests" in header
    printed = [row.split()[0] for row in rows]
    assert printed and all(name in UNITS for name in printed)
