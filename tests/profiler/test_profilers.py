"""Tests of the memory, latency and FLOPs profilers."""

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor, no_grad, randn
from repro.builder import QuadraticModelConfig
from repro.models import SmallConvNet, vgg8
from repro.profiler import (
    GPU_MEMORY_BUDGETS,
    MemoryTracker,
    count_parameters,
    estimate_training_memory,
    profile_latency,
    profile_model,
)


class TestMemoryTracker:
    def test_peak_and_current(self):
        x = randn(4, 16, requires_grad=True)
        w = randn(16, 16, requires_grad=True)
        with MemoryTracker() as tracker:
            (x @ w).relu().sum().backward()
        assert tracker.peak_bytes > 0
        assert tracker.current_bytes == 0  # everything released after backward

    def test_forward_only_grows_backward_releases(self):
        x = randn(8, 32, requires_grad=True)
        w = randn(32, 32, requires_grad=True)
        with MemoryTracker() as tracker:
            out = ((x @ w).relu() @ w).sum()
            forward_peak = tracker.current_bytes
            out.backward()
        assert forward_peak > 0
        assert tracker.current_bytes < forward_peak

    def test_timeline_monotone_during_forward(self):
        x = randn(4, 8, requires_grad=True)
        w = randn(8, 8, requires_grad=True)
        with MemoryTracker() as tracker:
            y = (x @ w).relu()
            y = (y @ w).relu()
            n_forward_events = len(tracker.samples)
            curve = tracker.timeline_bytes()[:n_forward_events]
            assert all(a <= b for a, b in zip(curve, curve[1:]))
            y.sum().backward()

    def test_no_grad_caches_nothing(self):
        x = randn(4, 16)
        w = randn(16, 16)
        with MemoryTracker() as tracker:
            with no_grad():
                (x @ w).relu()
        assert tracker.peak_bytes == 0

    def test_deduplicates_shared_arrays(self):
        # The same input fed to three convolutions must be counted once.
        x = randn(2, 4, 8, 8, requires_grad=True)
        w1, w2, w3 = (randn(4, 4, 3, 3, requires_grad=True) for _ in range(3))
        with MemoryTracker() as tracker:
            out = x.conv2d(w1, padding=1) + x.conv2d(w2, padding=1) + x.conv2d(w3, padding=1)
            out.sum().backward()
        weights_bytes = 3 * w1.nbytes
        # Upper bound if x were triple-counted would exceed x.nbytes * 3.
        assert tracker.peak_bytes < x.nbytes * 3 + weights_bytes

    def test_per_op_peak_contains_op_names(self):
        x = randn(2, 3, 8, 8, requires_grad=True)
        w = randn(4, 3, 3, 3, requires_grad=True)
        with MemoryTracker() as tracker:
            x.conv2d(w, padding=1).sum().backward()
        assert any("Conv2d" in name for name in tracker.per_op_peak())

    def test_nested_trackers_both_observe(self):
        x = randn(4, 4, requires_grad=True)
        with MemoryTracker() as outer:
            with MemoryTracker() as inner:
                (x * x).sum().backward()
        assert outer.peak_bytes == inner.peak_bytes


class TestMemoryEstimate:
    def test_estimate_fields(self):
        model = SmallConvNet(num_classes=10, config=QuadraticModelConfig(width_multiplier=0.5))
        est = estimate_training_memory(model, (3, 32, 32), probe_batch_size=2, num_classes=10)
        assert est.parameter_bytes == sum(p.nbytes for p in model.parameters())
        assert est.gradient_bytes == est.parameter_bytes
        assert est.activation_bytes_per_sample > 0

    @pytest.mark.parametrize("neuron_type", ["first_order", "T2_4"])
    def test_total_does_not_depend_on_the_probe_batch(self, neuron_type):
        """The weights each node saves for backward do not scale with the batch."""
        model = SmallConvNet(num_classes=10,
                             config=QuadraticModelConfig(neuron_type=neuron_type,
                                                         width_multiplier=0.5))
        small = estimate_training_memory(model, (3, 32, 32), probe_batch_size=2, num_classes=10)
        large = estimate_training_memory(model, (3, 32, 32), probe_batch_size=8, num_classes=10)
        for batch_size in (1, 32, 512):
            assert small.total_bytes(batch_size) == large.total_bytes(batch_size)

    def test_total_scales_with_batch_size(self):
        model = SmallConvNet(num_classes=10, config=QuadraticModelConfig(width_multiplier=0.5))
        est = estimate_training_memory(model, (3, 32, 32), probe_batch_size=2, num_classes=10)
        assert est.total_bytes(256) > est.total_bytes(64) > est.total_bytes(1)
        assert est.total_gib(256) == pytest.approx(est.total_bytes(256) / 1024 ** 3)

    def test_quadratic_model_needs_more_memory_than_first_order(self):
        """The Fig. 5 effect: same structure, quadratic neurons, more training memory."""
        first = SmallConvNet(num_classes=10,
                             config=QuadraticModelConfig(neuron_type="first_order",
                                                         width_multiplier=0.5))
        quad = SmallConvNet(num_classes=10,
                            config=QuadraticModelConfig(neuron_type="T2_4",
                                                        width_multiplier=0.5))
        est_first = estimate_training_memory(first, (3, 32, 32), num_classes=10)
        est_quad = estimate_training_memory(quad, (3, 32, 32), num_classes=10)
        assert est_quad.total_bytes(256) > est_first.total_bytes(256)

    def test_gpu_budget_constants(self):
        assert set(GPU_MEMORY_BUDGETS) == {"GTX 1080 Ti", "RTX 2080", "TITAN X"}
        assert all(v > 7 * 1024 ** 3 for v in GPU_MEMORY_BUDGETS.values())

    def test_model_restored_to_original_mode(self):
        model = SmallConvNet(num_classes=10)
        model.eval()
        estimate_training_memory(model, (3, 32, 32), num_classes=10)
        assert model.training is False
        assert all(p.grad is None for p in model.parameters())


class TestLatencyProfiler:
    def test_report_fields(self):
        model = SmallConvNet(num_classes=10, config=QuadraticModelConfig(width_multiplier=0.5))
        report = profile_latency(model, (3, 32, 32), batch_size=4, num_classes=10,
                                 warmup=0, iterations=2)
        assert report.train_ms_per_batch > 0
        assert report.inference_ms_per_batch > 0
        assert report.batch_size == 4

    def test_train_slower_than_inference(self):
        model = SmallConvNet(num_classes=10, config=QuadraticModelConfig(width_multiplier=0.5))
        report = profile_latency(model, (3, 32, 32), batch_size=4, num_classes=10,
                                 warmup=1, iterations=3)
        assert report.train_ms_per_batch > report.inference_ms_per_batch


class TestFlopsProfiler:
    def test_counts_match_module_count(self):
        model = SmallConvNet(num_classes=10)
        profile = profile_model(model, (3, 32, 32))
        assert profile.total_parameters == count_parameters(model)

    def test_conv_macs_scale_with_resolution(self):
        model = nn.Sequential(nn.Conv2d(3, 8, 3, padding=1))
        small = profile_model(model, (3, 16, 16)).total_macs
        large = profile_model(model, (3, 32, 32)).total_macs
        assert large == pytest.approx(4 * small, rel=1e-6)

    def test_quadratic_layers_counted_with_all_weight_sets(self):
        first = nn.Sequential(nn.Conv2d(3, 8, 3, padding=1, bias=False))
        from repro.quadratic import QuadraticConv2d

        quad = nn.Sequential(QuadraticConv2d(3, 8, 3, padding=1, neuron_type="OURS",
                                             bias=False))
        p_first = profile_model(first, (3, 16, 16))
        p_quad = profile_model(quad, (3, 16, 16))
        assert p_quad.total_parameters == 3 * p_first.total_parameters
        assert p_quad.total_macs > 2.9 * p_first.total_macs

    @pytest.mark.parametrize("neuron_type, kernel_size, shape", [
        ("T4", 3, (3, 8, 8)), ("T2_4", 3, (3, 8, 8)), ("OURS", 3, (3, 8, 8)),
        ("OURS", None, (3,))])
    def test_hybrid_layers_cost_what_their_composed_twins_cost(self, neuron_type,
                                                               kernel_size, shape):
        """hybrid_bp changes the backward only; the forward MACs are the same."""
        from repro.quadratic import quadratic_layer

        composed, hybrid = (
            quadratic_layer(neuron_type, 3, 4, kernel_size=kernel_size,
                            padding=1 if kernel_size else 0, hybrid_bp=hybrid_bp)
            for hybrid_bp in (False, True))
        assert type(hybrid) is not type(composed)
        assert (profile_model(hybrid, shape).total_macs
                == profile_model(composed, shape).total_macs)

    def test_every_layer_scales_with_the_batch(self):
        from repro.quadratic import QuadraticConv2d, QuadraticConv2dT1

        model = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1), QuadraticConv2d(4, 4, 3, padding=1),
            QuadraticConv2dT1(4, 2, 1), nn.BatchNorm2d(2), nn.Flatten(),
            nn.Linear(2 * 8 * 8, 4))
        one = profile_model(model, (3, 8, 8), batch_size=1).layers
        four = profile_model(model, (3, 8, 8), batch_size=4).layers
        assert [layer.name for layer in four] == [layer.name for layer in one]
        for single, batched in zip(one, four):
            assert batched.macs == 4 * single.macs, single.name

    def test_by_name_lookup(self):
        model = SmallConvNet(num_classes=10)
        profile = profile_model(model, (3, 32, 32))
        name = profile.layers[0].name
        assert profile.by_name(name).parameters > 0
        with pytest.raises(KeyError):
            profile.by_name("not_a_layer")

    def test_vgg_profile_reasonable(self):
        model = vgg8(num_classes=10, width_multiplier=0.25)
        profile = profile_model(model, (3, 32, 32))
        conv_layers = [l for l in profile.layers if l.layer_type == "Conv2d"]
        assert len(conv_layers) == 5
