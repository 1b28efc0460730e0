"""ServeConfig validation and round-tripping."""

from __future__ import annotations

import pytest

from repro.serve import ServeConfig


class TestServeConfig:
    def test_defaults_validate(self):
        config = ServeConfig()
        assert config.workers == 2
        assert config.effective_watermark == config.workers * config.queue_depth

    def test_explicit_watermark_wins(self):
        assert ServeConfig(watermark=5).effective_watermark == 5

    @pytest.mark.parametrize("field, value", [
        ("workers", 0),
        ("max_batch_size", 0),
        ("max_wait", -0.1),
        ("queue_depth", 0),
        ("watermark", -1),
        ("max_retries", -1),
        ("cache_size", -1),
        ("request_timeout", 0),
        ("startup_timeout", -1.0),
        ("drain_timeout", 0),
        ("start_method", "thread"),
    ])
    def test_invalid_values_raise(self, field, value):
        with pytest.raises(ValueError):
            ServeConfig(**{field: value})

    def test_dict_round_trip(self):
        config = ServeConfig(workers=3, watermark=9, cache_size=0, port=0)
        clone = ServeConfig.from_dict(config.to_dict())
        assert clone == config

    def test_from_dict_rejects_unknown_fields(self):
        # Typos and retired knobs alike fail loudly.
        for data in ({"workres": 2}, {"transport": "pipe"},
                     {"fused_batching": True}, {"producer_workers": 1}):
            with pytest.raises(ValueError, match="unknown ServeConfig field"):
                ServeConfig.from_dict(data)

    def test_with_returns_modified_copy(self):
        config = ServeConfig()
        changed = config.with_(workers=4)
        assert changed.workers == 4 and config.workers == 2


class TestSecureConfig:
    def test_secure_defaults_validate(self):
        config = ServeConfig(secure=True)
        assert config.protocol == ""            # deferred to the spec
        assert config.frac_bits == 12
        assert config.truncation == "nearest"
        assert config.triple_pool_depth == 0    # sized from the pipeline

    @pytest.mark.parametrize("field, value", [
        ("frac_bits", 0),
        ("frac_bits", 40),
        ("truncation", "round_up"),
        ("protocol", "quantum"),
        ("strategy", "prune"),
        ("triple_pool_depth", -1),
    ])
    def test_invalid_secure_values_raise(self, field, value):
        with pytest.raises(ValueError):
            ServeConfig(**{field: value})

    def test_effective_triple_pool_depth(self):
        from repro.serve import MAX_PIPELINE_DEPTH

        # Auto sizing must cover the *maximum* reachable pipeline depth, or
        # the offline phase under-provisions exactly when the controller
        # ramps up.
        config = ServeConfig(secure=True, workers=3, max_batch_size=4)
        assert config.effective_triple_pool_depth == 3 * MAX_PIPELINE_DEPTH * 4
        pinned = ServeConfig(secure=True, workers=3, max_batch_size=4,
                             pipeline_depth=2)
        assert pinned.effective_triple_pool_depth == 3 * 2 * 4
        assert ServeConfig(secure=True,
                           triple_pool_depth=7).effective_triple_pool_depth == 7

    def test_pipeline_depth_bounds(self):
        from repro.serve import MAX_PIPELINE_DEPTH

        assert ServeConfig(pipeline_depth=0).effective_max_pipeline_depth \
            == MAX_PIPELINE_DEPTH
        assert ServeConfig(pipeline_depth=1).effective_max_pipeline_depth == 1
        for bad in (-1, MAX_PIPELINE_DEPTH + 1):
            with pytest.raises(ValueError):
                ServeConfig(pipeline_depth=bad)

    def test_secure_dict_round_trip(self):
        config = ServeConfig(secure=True, protocol="gazelle", frac_bits=10,
                             truncation="stochastic", strategy="square",
                             triple_pool_depth=5, port=0)
        clone = ServeConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.to_dict()["secure"] is True
