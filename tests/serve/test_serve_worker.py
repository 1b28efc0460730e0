"""The worker side of the pool, exercised in-process (no subprocess needed)."""

from __future__ import annotations

import queue

import numpy as np
import pytest

from repro.inference import CompiledModel
from repro.serve import ServeConfig
from repro.serve.worker import (
    REQUEST_KINDS,
    ResponseArena,
    build_serving_predictor,
    execute_request,
)


class TestBuildServingPredictor:
    def test_rebuilt_worker_matches_parent_bit_for_bit(self, smoke):
        """Spec dict + state dict over "IPC" → identical predictions."""
        compiled = build_serving_predictor(smoke.spec.to_dict(), dict(smoke.state))
        assert isinstance(compiled, CompiledModel)
        for sample, expected in zip(smoke.samples, smoke.expected):
            assert np.array_equal(compiled(sample[None])[0], expected)

    def test_without_state_the_worker_serves_the_seeded_build(self, smoke):
        compiled = build_serving_predictor(smoke.spec.to_dict(), {})
        out = compiled(smoke.samples[0][None])[0]
        # The smoke spec builds deterministically from its seed, and the
        # parent model was never trained, so even the no-state path agrees.
        assert np.array_equal(out, smoke.expected[0])


class TestExecuteRequest:
    def test_sleep_returns_none(self):
        assert execute_request("sleep", 0.0) is None

    def test_unknown_kind_raises(self):
        # Samples only travel in batch frames; a single-sample "predict"
        # frame is as unknown as a made-up kind.
        for kind in ("transmogrify", "predict"):
            with pytest.raises(ValueError, match="unknown request kind"):
                execute_request(kind, None)
        assert REQUEST_KINDS == ("batch", "sleep")


class TestSecureBatch:
    def test_secure_rows_match_single_sample_predictions(self, smoke):
        """A coalesced secure frame runs through the same executor as a float
        one: each row equals a single-sample secure prediction and carries
        its own protocol totals."""
        samples = np.stack(smoke.samples[:3])
        predictor = build_serving_predictor(
            smoke.spec.to_dict(), smoke.state,
            secure=ServeConfig(secure=True).to_dict())
        responses = queue.SimpleQueue()
        try:
            ResponseArena().serve(predictor.compiled, samples, 0, [0, 1, 2],
                                  0.0, responses)
            expected = [predictor.predict(sample) for sample in samples]
            totals = predictor.last_trace.totals()
        finally:
            predictor.close()
        _, _, _, (via, outputs), timings = responses.get()
        assert via == "inline"                   # this arena has no ring
        for row, want in zip(outputs, expected):
            assert row.dtype == want.dtype and np.array_equal(row, want)
        assert timings["secure"] == [totals] * len(samples)
        assert len(timings["compute_ms"]) == len(samples)
