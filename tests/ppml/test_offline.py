"""Unit tests for the offline precompute phase (``repro.ppml.offline``).

The invariant the serving fault tests lean on is established here in
isolation first: for every pool, ``produced == available + consumed`` at
all times, production never overshoots ``depth``, and consumption beyond
availability is a hard error rather than silent debt.
"""

from __future__ import annotations

import pytest

from repro.ppml import OfflineBudget, OfflinePhase, TriplePool, pool_key
from repro.ppml.trace import LayerTrace, ProtocolTrace

#: Deliberately tiny per-request budget so producer iterations are ~free.
TINY = OfflineBudget(triples=64, labels=8, truncations=64, rounds=3, macs=512)


def synthetic_trace() -> ProtocolTrace:
    return ProtocolTrace(frac_bits=12, layers=[
        LayerTrace(name="conv", layer_type="Conv2d", macs=400, mult_ops=48,
                   truncations=48, rounds=2),
        LayerTrace(name="act", layer_type="ReLU", relu_ops=8, rounds=1,
                   macs=112, mult_ops=16, truncations=16),
    ])


# --------------------------------------------------------------------------- #
# Keys and budgets
# --------------------------------------------------------------------------- #

def test_pool_key_format():
    assert pool_key("delphi", 12) == "delphi/f12"
    assert pool_key("gazelle", 8) == "gazelle/f8"


def test_budget_from_trace_uses_measured_totals():
    budget = OfflineBudget.from_trace(synthetic_trace())
    assert budget.triples == 64          # mult_ops -> Beaver triples
    assert budget.labels == 8            # relu_ops -> garbled comparisons
    assert budget.truncations == 64
    assert budget.rounds == 3
    assert budget.macs == 512
    assert budget.to_dict() == {"triples": 64, "labels": 8, "truncations": 64,
                                "rounds": 3, "macs": 512}


# --------------------------------------------------------------------------- #
# TriplePool
# --------------------------------------------------------------------------- #

def test_unsized_pool_reports_full_schema_without_producing():
    pool = TriplePool("delphi", 12)
    stats = pool.stats()
    assert set(stats) == {"depth", "available", "produced", "consumed",
                          "stalls", "refill_rps", "triples_per_request",
                          "labels_per_request"}
    assert stats["available"] == 0 and stats["produced"] == 0
    pool.close()


def test_producer_fills_to_depth_and_stops():
    pool = TriplePool("delphi", 12)
    try:
        pool.size(TINY, depth=4)
        assert pool.wait_available(4, timeout=30.0)
        stats = pool.stats()
        assert stats["available"] == 4
        assert stats["produced"] == 4          # exactly depth: no overshoot
        assert stats["refill_rps"] > 0.0
        assert stats["triples_per_request"] == TINY.triples
        assert stats["labels_per_request"] == TINY.labels
    finally:
        pool.close()


def test_consume_debits_and_triggers_refill():
    pool = TriplePool("delphi", 12)
    try:
        pool.size(TINY, depth=3)
        assert pool.wait_available(3, timeout=30.0)
        pool.consume(2)
        assert pool.consumed == 2
        # the producer notices the deficit and refills back to depth
        assert pool.wait_available(3, timeout=30.0)
        with pool._cond:
            assert pool.produced == pool.available + pool.consumed
    finally:
        pool.close()


def test_over_consumption_is_an_error():
    pool = TriplePool("delphi", 12)
    try:
        pool.size(TINY, depth=1)
        assert pool.wait_available(1, timeout=30.0)
        with pytest.raises(RuntimeError, match="over-consumed"):
            pool.consume(pool.available + 1)
        with pytest.raises(ValueError):
            pool.consume(-1)
    finally:
        pool.close()


def test_estimated_wait_is_inf_before_first_production():
    pool = TriplePool("delphi", 12)
    assert pool.estimated_wait_s(1) == float("inf")
    pool.close()


def test_estimated_wait_zero_when_stocked_and_finite_after_producing():
    pool = TriplePool("delphi", 12)
    try:
        pool.size(TINY, depth=2)
        assert pool.wait_available(2, timeout=30.0)
        assert pool.estimated_wait_s(2) == 0.0
        wait = pool.estimated_wait_s(10)       # deficit of 8 at measured rate
        assert 0.0 < wait < float("inf")
    finally:
        pool.close()


def test_stall_counter_and_close_idempotent():
    pool = TriplePool("delphi", 12)
    pool.note_stall()
    pool.note_stall()
    assert pool.stats()["stalls"] == 2
    pool.close()
    pool.close()                               # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.size(TINY, depth=1)


def test_size_rejects_nonpositive_depth():
    pool = TriplePool("delphi", 12)
    with pytest.raises(ValueError, match="depth"):
        pool.size(TINY, depth=0)
    pool.close()


# --------------------------------------------------------------------------- #
# OfflinePhase
# --------------------------------------------------------------------------- #

def test_phase_unstarted_stats_schema():
    phase = OfflinePhase("delphi", 12, "nearest", depth=2)
    stats = phase.stats()
    assert set(stats) == {"pools", "budget", "measured"}
    assert set(stats["pools"]) == {"delphi/f12"}       # default pool pre-created
    assert stats["budget"] == {"triples": 0, "labels": 0, "truncations": 0,
                               "rounds": 0, "macs": 0}
    assert stats["measured"] == {"requests": 0, "macs": 0, "mult_ops": 0,
                                 "relu_ops": 0, "truncations": 0, "rounds": 0}
    phase.close()


def test_phase_sizes_every_pool_from_trace():
    phase = OfflinePhase("delphi", 12, "nearest", depth=2)
    try:
        budget = phase.size_from_trace(synthetic_trace())
        assert budget.triples == 64
        default = phase.pool_for(phase.default_key)
        assert default.wait_available(2, timeout=30.0)
        # a pool created *after* warm-up inherits the budget and starts too
        other = phase.pool_for(phase.key_for(protocol="gazelle"))
        assert other.budget == budget
        assert other.wait_available(2, timeout=30.0)
        assert set(phase.stats()["pools"]) == {"delphi/f12", "gazelle/f12"}
    finally:
        phase.close()


def test_phase_serving_path_accounting():
    phase = OfflinePhase("delphi", 12, "nearest", depth=2)
    try:
        phase.size_from_trace(synthetic_trace())
        key = phase.default_key
        assert phase.pool_for(key).wait_available(2, timeout=30.0)
        assert phase.available(key) == 2
        phase.consume(key, 1)
        phase.note_stall(key)
        stats = phase.stats()["pools"][key]
        assert stats["consumed"] == 1 and stats["stalls"] == 1
        assert phase.estimated_wait_ms(key, 1) == 0.0
        assert 0.0 < phase.estimated_wait_ms(key, 100) < float("inf")
    finally:
        phase.close()


def test_phase_record_served_folds_totals():
    phase = OfflinePhase("delphi", 12, "nearest", depth=1)
    totals = synthetic_trace().totals()
    phase.record_served([totals, totals])
    measured = phase.measured()
    assert measured["requests"] == 2
    assert measured["mult_ops"] == 2 * totals["mult_ops"]
    assert measured["macs"] == 2 * totals["macs"]
    assert measured["rounds"] == 2 * totals["rounds"]
    phase.close()


def test_phase_key_helpers():
    phase = OfflinePhase("delphi", 12, "nearest", depth=1)
    assert phase.default_key == "delphi/f12"
    assert phase.key_for() == "delphi/f12"
    assert phase.key_for(protocol="gazelle", frac_bits=8) == "gazelle/f8"
    phase.close()
