"""The benchmark trajectory: atomic history, tolerant loads, regression bands.

``benchmarks/results/trajectory.jsonl`` is the append-only perf history the
CI gate (``benchmarks/check_trajectory.py``) derives its tolerance bands
from, so its invariants get their own suite: appends are atomic and
validated, loads survive torn or corrupt lines, and the trajectory-relative
check flags a genuine 2x slowdown while passing an ordinary run — the
acceptance bar for the gate itself.

All filesystem tests redirect ``common.RESULTS_DIR`` into ``tmp_path``; the
real history is never touched.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import check_trajectory  # noqa: E402
import common  # noqa: E402
from common import (MIN_TRAJECTORY_HISTORY, TRAJECTORY_REL_FLOOR,  # noqa: E402
                    append_trajectory, check_against_trajectory,
                    load_trajectory, trajectory_band,
                    validate_trajectory_record)


@pytest.fixture()
def results_dir(tmp_path, monkeypatch):
    """Point every trajectory helper at a throwaway results directory.

    The gate script's trend table goes to ``$GITHUB_STEP_SUMMARY``, which a
    CI job sets; the tests unset it so they never write to the job's page.
    """
    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
    return tmp_path


def trajectory_path(results_dir) -> Path:
    return results_dir / "trajectory.jsonl"


class TestAppendTrajectory:
    def test_round_trips_through_load(self, results_dir):
        append_trajectory("bench", {"qps": 120.5, "cpus": 4})
        append_trajectory("bench", {"qps": 130.0, "cpus": 4})
        records = load_trajectory("bench")
        assert [r["qps"] for r in records] == [120.5, 130.0]
        assert all(r["benchmark"] == "bench" for r in records)
        assert all(isinstance(r["timestamp"], float) for r in records)

    def test_leaves_no_temp_files_and_a_newline_terminated_history(self, results_dir):
        append_trajectory("bench", {"qps": 1.0})
        leftovers = [p.name for p in results_dir.iterdir()
                     if p.name != "trajectory.jsonl"]
        assert leftovers == []
        assert trajectory_path(results_dir).read_bytes().endswith(b"\n")

    def test_rejects_invalid_records_without_touching_the_file(self, results_dir):
        append_trajectory("bench", {"qps": 1.0})
        before = trajectory_path(results_dir).read_bytes()
        with pytest.raises(ValueError):
            append_trajectory("bench", {"qps": [1.0, 2.0]})  # non-scalar
        assert trajectory_path(results_dir).read_bytes() == before

    def test_seals_a_torn_trailing_line_from_a_crashed_writer(self, results_dir):
        good = json.dumps({"benchmark": "bench", "timestamp": 1.0, "qps": 9.0})
        with open(trajectory_path(results_dir), "w") as handle:
            handle.write(good + "\n")
            handle.write('{"benchmark": "bench", "timestamp": 2.0, "qp')  # torn
        append_trajectory("bench", {"qps": 11.0})
        lines = trajectory_path(results_dir).read_text().splitlines()
        # The torn bytes are preserved (sealed with a newline), not rewritten.
        assert lines[1].startswith('{"benchmark": "bench", "timestamp": 2.0')
        records = load_trajectory("bench")
        assert [r["qps"] for r in records] == [9.0, 11.0]


class TestLoadTrajectory:
    def test_missing_file_is_an_empty_history(self, results_dir):
        assert load_trajectory() == []

    def test_skips_corrupt_and_schema_invalid_lines(self, results_dir):
        lines = [
            json.dumps({"benchmark": "bench", "timestamp": 1.0, "qps": 5.0}),
            "not json at all {{{",
            json.dumps({"timestamp": 2.0, "qps": 6.0}),           # no benchmark
            json.dumps({"benchmark": "bench", "timestamp": True}),  # bool ts
            json.dumps({"benchmark": "bench", "timestamp": 3.0,
                        "nested": {"a": 1}}),                      # non-scalar
            json.dumps({"benchmark": "bench", "timestamp": 4.0, "qps": 8.0}),
        ]
        trajectory_path(results_dir).write_text("\n".join(lines) + "\n")
        records = load_trajectory("bench")
        assert [r["qps"] for r in records] == [5.0, 8.0]

    def test_filters_by_benchmark_name(self, results_dir):
        append_trajectory("alpha", {"qps": 1.0})
        append_trajectory("beta", {"qps": 2.0})
        assert [r["benchmark"] for r in load_trajectory("alpha")] == ["alpha"]
        assert len(load_trajectory()) == 2


class TestValidateTrajectoryRecord:
    @pytest.mark.parametrize("bad", [
        "a string", 42, [1, 2], None,
        {},                                               # no benchmark
        {"benchmark": "", "timestamp": 1.0},              # empty benchmark
        {"benchmark": "b"},                               # no timestamp
        {"benchmark": "b", "timestamp": "now"},           # non-numeric ts
        {"benchmark": "b", "timestamp": True},            # bool masquerading
        {"benchmark": "b", "timestamp": 1.0, "v": [1]},   # non-scalar value
        {"benchmark": "b", "timestamp": 1.0, "v": {}},    # nested object
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_trajectory_record(bad)

    def test_accepts_a_flat_scalar_record(self):
        record = {"benchmark": "b", "timestamp": 1.5, "qps": 10, "ok": True,
                  "note": "quick", "skipped": None}
        assert validate_trajectory_record(record) is record


def history(metric: str, values, **context) -> list:
    return [{"benchmark": "bench", "timestamp": float(i), metric: v, **context}
            for i, v in enumerate(values)]


class TestRegressionBands:
    #: a realistic quiet p99 history (ms) — spread well inside the 35% floor.
    P99S = [10.0, 10.4, 9.8, 10.1, 10.2]

    def test_flags_an_injected_2x_slowdown(self, results_dir):
        findings = check_against_trajectory(
            "bench", {"p99": 20.2}, {"p99": "lower"},
            history=history("p99", self.P99S))
        assert [f["status"] for f in findings] == ["regression"]

    def test_passes_a_run_near_the_historical_median(self, results_dir):
        findings = check_against_trajectory(
            "bench", {"p99": 10.3}, {"p99": "lower"},
            history=history("p99", self.P99S))
        assert [f["status"] for f in findings] == ["ok"]

    def test_checks_are_one_sided_a_2x_speedup_always_passes(self, results_dir):
        findings = check_against_trajectory(
            "bench", {"p99": 5.0}, {"p99": "lower"},
            history=history("p99", self.P99S))
        assert [f["status"] for f in findings] == ["ok"]

    def test_higher_is_better_metrics_flag_throughput_halving(self, results_dir):
        qps = [1000.0, 980.0, 1010.0, 995.0]
        flagged = check_against_trajectory(
            "bench", {"qps": 500.0}, {"qps": "higher"},
            history=history("qps", qps))
        passed = check_against_trajectory(
            "bench", {"qps": 990.0}, {"qps": "higher"},
            history=history("qps", qps))
        assert [f["status"] for f in flagged] == ["regression"]
        assert [f["status"] for f in passed] == ["ok"]

    def test_insufficient_history_is_a_pass_with_a_note(self, results_dir):
        findings = check_against_trajectory(
            "bench", {"p99": 99.0}, {"p99": "lower"},
            history=history("p99", self.P99S[:MIN_TRAJECTORY_HISTORY - 1]))
        assert [f["status"] for f in findings] == ["insufficient-history"]

    def test_missing_field_is_reported_not_failed(self, results_dir):
        findings = check_against_trajectory(
            "bench", {"other": 1.0}, {"p99": "lower"},
            history=history("p99", self.P99S))
        assert [f["status"] for f in findings] == ["missing"]

    def test_history_is_restricted_to_comparable_context(self, results_dir):
        # Five 8-core records are not comparable history for a 2-core run.
        findings = check_against_trajectory(
            "bench", {"p99": 40.0, "cpus": 2}, {"p99": "lower"},
            history=history("p99", self.P99S, cpus=8))
        assert [f["status"] for f in findings] == ["insufficient-history"]

    @pytest.mark.parametrize("value, direction, status", [
        (130.0, "lower", "ok"),                # inside the 35% relative floor
        (130.0, "lower-exact", "regression"),  # a deterministic count: no floor
        (70.0, "lower-exact", "ok"),           # still one-sided
    ])
    def test_exact_fields_get_no_relative_floor(self, value, direction, status):
        findings = check_against_trajectory(
            "bench", {"bytes": value}, {"bytes": direction},
            history=history("bytes", [100.0] * 5))
        assert [f["status"] for f in findings] == [status]

    def test_unknown_direction_is_refused(self):
        with pytest.raises(ValueError, match="direction"):
            check_against_trajectory("bench", {"bytes": 1.0},
                                     {"bytes": "exact"},
                                     history=history("bytes", [1.0] * 5))

    def test_noisy_history_earns_a_wider_band_via_mad(self):
        quiet = trajectory_band([100.0, 100.0, 100.0, 100.0, 100.0])
        noisy = trajectory_band([60.0, 140.0, 100.0, 150.0, 55.0])
        assert quiet[1] == pytest.approx(TRAJECTORY_REL_FLOOR * 100.0)
        assert noisy[1] > quiet[1]


class TestGateScript:
    """The standalone CI gate over a real on-disk history."""

    def seed(self, values, latest):
        for v in values:
            append_trajectory("serving_scaleout",
                              {"open_loop_p99_ms": v, "cpus": 4,
                               "quick_mode": True})
        append_trajectory("serving_scaleout",
                          {"open_loop_p99_ms": latest, "cpus": 4,
                           "quick_mode": True})

    def test_gate_fails_on_an_injected_2x_slowdown(self, results_dir, capsys):
        self.seed([10.0, 10.4, 9.8, 10.1], latest=20.5)
        assert check_trajectory.main() == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "open_loop_p99_ms" in out

    def test_gate_passes_an_ordinary_run(self, results_dir, capsys):
        self.seed([10.0, 10.4, 9.8, 10.1], latest=10.2)
        assert check_trajectory.main() == 0
        assert "trajectory gate: PASS" in capsys.readouterr().out

    def test_gate_fails_on_a_30_percent_rise_in_an_exact_byte_count(
            self, results_dir, capsys):
        record = {"default_peak_bytes": 25_555_136,
                  "hybrid_peak_bytes": 11_923_648}
        for _ in range(5):
            append_trajectory("fig8_hybrid_bp", record)
        append_trajectory("fig8_hybrid_bp",
                          {**record, "default_peak_bytes": 33_221_677})
        assert check_trajectory.main() == 1
        out = capsys.readouterr().out
        assert "FAIL: 1 " in out and "default_peak_bytes" in out

    def test_gate_appends_a_trend_table_to_the_step_summary(self, results_dir, monkeypatch,
                                                            capsys):
        summary = results_dir / "summary.md"
        summary.write_text("earlier step\n")
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        for p99 in (10.0, 10.4, 9.8, 10.1):
            append_trajectory("serving_scaleout", {"open_loop_p99_ms": p99, "cpus": 4,
                                                   "armed": True})
        append_trajectory("serving_scaleout", {"open_loop_p99_ms": 20.5, "cpus": 4,
                                               "armed": True})
        assert check_trajectory.main() == 1
        lines = summary.read_text().splitlines()
        assert lines[0] == "earlier step"                      # appended, not replaced
        header = lines.index("| bench | field | latest | history median ± tolerance "
                             "| status | history | armed | cpus |")
        rows = [line for line in lines[header + 2:] if line.startswith("|")]
        # One row per gated field of the bench with records.
        assert len(rows) == len(check_trajectory.DIRECTIONS["serving_scaleout"])
        median, tolerance = trajectory_band([10.0, 10.4, 9.8, 10.1])
        p99_row = next(row for row in rows if "| open_loop_p99_ms |" in row)
        assert p99_row == (f"| serving_scaleout | open_loop_p99_ms | 20.5 | {median:.4g} ± "
                           f"{tolerance:.4g} | regression | 4 | True | 4 |")
        missing_row = next(row for row in rows if "| baseline_samples_per_s |" in row)
        assert "| missing | 0 | True | 4 |" in missing_row

    def test_trend_table_prints_byte_counts_in_full(self, results_dir, monkeypatch, capsys):
        summary = results_dir / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        record = {"default_peak_bytes": 25_555_136, "hybrid_peak_bytes": 11_923_648,
                  "armed": True, "cpus": 2}
        for _ in range(4):
            append_trajectory("fig8_hybrid_bp", record)
        assert check_trajectory.main() == 0
        assert ("| fig8_hybrid_bp | default_peak_bytes | 25,555,136 | 25,555,136 ± 0 | ok "
                "| 3 | True | 2 |") in summary.read_text().splitlines()

    def test_gate_writes_no_table_without_a_step_summary(self, results_dir, capsys):
        self.seed([10.0, 10.4, 9.8, 10.1], latest=10.2)
        assert check_trajectory.main() == 0
        assert [p.name for p in results_dir.iterdir()] == ["trajectory.jsonl"]

    def test_gate_passes_a_fresh_checkout_with_no_history(self, results_dir, capsys):
        assert check_trajectory.main() == 0
        assert "no records — skipped" in capsys.readouterr().out

    def test_gate_covers_both_serving_benches(self):
        assert set(check_trajectory.DIRECTIONS) == {"serving_scaleout",
                                                    "secure_serving",
                                                    "inference_throughput",
                                                    "backend_throughput",
                                                    "secure_inference",
                                                    "dataloader_prefetch",
                                                    "fig8_hybrid_bp",
                                                    "fig5_memory_budgets"}
