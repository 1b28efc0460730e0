"""Tests of configs, construction functions, the RI indicator and the auto-builder."""

import numpy as np
import pytest

from repro import nn
from repro.autodiff import randn
from repro.builder import (
    MOBILENET_CFGS,
    RESNET_BLOCKS,
    VGG_CFGS,
    AutoBuilder,
    QuadraticModelConfig,
    build_classifier_head,
    build_mlp,
    build_plain_convnet,
    compute_layer_indicators,
    conv_block,
    conv_layer_count,
    make_conv,
    measure_accuracy_drop,
    quadratize_module,
    reduce_mobilenet_cfg,
    reduce_resnet_blocks,
    reduce_vgg_cfg,
    removal_order,
    scale_vgg_cfg,
)
from repro.models import SmallConvNet
from repro.quadratic import QuadraticConv2d, QuadraticLinear


class TestConfig:
    def test_paper_configurations_present(self):
        assert conv_layer_count(VGG_CFGS["VGG16"]) == 13
        assert conv_layer_count(VGG_CFGS["VGG16_QUADRA"]) == 7
        assert conv_layer_count(VGG_CFGS["VGG8"]) == 5
        assert RESNET_BLOCKS["RESNET32"] == [5, 5, 5]
        assert RESNET_BLOCKS["RESNET32_QUADRA"] == [2, 2, 2]
        assert len(MOBILENET_CFGS["MOBILENET13"]) == 13
        assert len(MOBILENET_CFGS["MOBILENET8"]) == 8

    def test_scale_vgg_cfg(self):
        scaled = scale_vgg_cfg([64, "M", 128], 0.5)
        assert scaled == [32, "M", 64]

    def test_scale_has_minimum_width(self):
        assert scale_vgg_cfg([16], 0.1) == [8]

    def test_config_scaled_and_flags(self):
        config = QuadraticModelConfig(neuron_type="OURS", width_multiplier=0.5)
        assert config.scaled(64) == 32
        assert not config.is_first_order
        assert QuadraticModelConfig(neuron_type="first_order").is_first_order

    def test_config_with_changes(self):
        config = QuadraticModelConfig(neuron_type="OURS")
        changed = config.with_(use_activation=False)
        assert changed.use_activation is False
        assert config.use_activation is True  # original untouched


class TestConstructors:
    def test_make_conv_first_order_vs_quadratic(self):
        first = make_conv(QuadraticModelConfig(neuron_type="first_order"), 3, 8)
        quad = make_conv(QuadraticModelConfig(neuron_type="OURS"), 3, 8)
        hybrid = make_conv(QuadraticModelConfig(neuron_type="OURS", hybrid_bp=True), 3, 8)
        assert isinstance(first, nn.Conv2d)
        assert isinstance(quad, QuadraticConv2d) and not quad.recompute
        assert type(hybrid) is QuadraticConv2d and hybrid.recompute

    def test_conv_block_respects_design_insights(self):
        config = QuadraticModelConfig(neuron_type="OURS", use_batchnorm=True, use_activation=True)
        block = conv_block(config, 3, 8)
        types = [type(m).__name__ for m in block]
        assert types == ["QuadraticConv2d", "BatchNorm2d", "ReLU"]

    def test_conv_block_without_bn_or_relu(self):
        config = QuadraticModelConfig(neuron_type="OURS", use_batchnorm=False,
                                      use_activation=False)
        block = conv_block(config, 3, 8)
        assert len(block) == 1

    def test_build_plain_convnet_structure(self):
        config = QuadraticModelConfig(neuron_type="first_order")
        features, out_channels = build_plain_convnet([16, "M", 32, "M"], config)
        assert out_channels == 32
        assert features(randn(1, 3, 16, 16)).shape == (1, 32, 4, 4)

    def test_build_plain_convnet_quadratic(self):
        config = QuadraticModelConfig(neuron_type="T4")
        features, _ = build_plain_convnet([8, "M"], config)
        assert any(isinstance(m, QuadraticConv2d) for m in features.modules())

    def test_classifier_head(self):
        head = build_classifier_head(32, 10)
        assert head(randn(2, 32, 4, 4)).shape == (2, 10)

    def test_classifier_head_with_hidden(self):
        head = build_classifier_head(32, 10, hidden=64, dropout=0.1)
        assert head(randn(2, 32, 4, 4)).shape == (2, 10)

    def test_build_mlp_quadratic_hidden(self):
        config = QuadraticModelConfig(neuron_type="OURS")
        mlp = build_mlp([4, 16, 2], config)
        assert isinstance(mlp[0], QuadraticLinear)
        assert isinstance(mlp[-1], nn.Linear)  # output head stays first-order
        assert mlp(randn(3, 4)).shape == (3, 2)


class TestLayerReplacement:
    def test_quadratize_replaces_convs(self):
        model = SmallConvNet(num_classes=4)
        converted = quadratize_module(model, neuron_type="OURS")
        assert converted == 3
        quad_layers = [m for m in model.modules() if isinstance(m, QuadraticConv2d)]
        assert len(quad_layers) == 3
        assert model(randn(2, 3, 32, 32)).shape == (2, 4)

    def test_quadratize_increases_parameters_3x_for_convs(self):
        model = nn.Sequential(nn.Conv2d(3, 8, 3, padding=1, bias=False))
        before = model.num_parameters()
        quadratize_module(model, neuron_type="OURS")
        assert model.num_parameters() == 3 * before

    def test_quadratize_skips_depthwise(self):
        model = nn.Sequential(nn.Conv2d(8, 8, 3, groups=8, padding=1), nn.Conv2d(8, 16, 1))
        converted = quadratize_module(model, neuron_type="OURS", skip_depthwise=True)
        assert converted == 1
        assert isinstance(model[0], nn.Conv2d)

    def test_quadratize_linear_opt_in(self):
        model = nn.Sequential(nn.Linear(8, 4))
        assert quadratize_module(model, neuron_type="OURS", convert_linear=False) == 0
        assert quadratize_module(model, neuron_type="OURS", convert_linear=True) == 1
        assert isinstance(model[0], QuadraticLinear)

    def test_quadratize_skip_names(self):
        model = SmallConvNet(num_classes=4)
        converted = quadratize_module(model, skip_names=["features"])
        assert converted == 0

    def test_quadratize_hybrid(self):
        model = nn.Sequential(nn.Conv2d(3, 8, 3), nn.Flatten(), nn.Linear(8, 4))
        quadratize_module(model, neuron_type="OURS", hybrid_bp=True, convert_linear=True)
        assert type(model[0]) is QuadraticConv2d and model[0].recompute
        assert type(model[2]) is QuadraticLinear and model[2].recompute

    def test_autobuilder_convert_report(self):
        model = SmallConvNet(num_classes=4)
        before = model.num_parameters()
        report = AutoBuilder(neuron_type="OURS").convert(model)
        assert report.converted_layers == 3
        assert report.parameters_before == before
        assert report.parameters_after > before
        assert report.parameter_ratio > 1.0


class TestStructureReduction:
    def test_reduce_vgg_matches_paper_target(self):
        reduced = reduce_vgg_cfg(VGG_CFGS["VGG16"], target_conv_layers=7)
        assert conv_layer_count(reduced) == 7
        # Pooling structure (5 stages) must be preserved.
        assert reduced.count("M") == VGG_CFGS["VGG16"].count("M")

    def test_reduce_vgg_keeps_at_least_one_conv_per_stage(self):
        reduced = reduce_vgg_cfg(VGG_CFGS["VGG16"], target_conv_layers=1)
        assert conv_layer_count(reduced) == 5  # one per stage is the floor

    def test_reduce_resnet_blocks(self):
        assert reduce_resnet_blocks([5, 5, 5], 2) == [2, 2, 2]
        assert reduce_resnet_blocks([1, 2, 3], 2) == [1, 2, 2]

    def test_reduce_mobilenet_keeps_stride2_blocks(self):
        reduced = reduce_mobilenet_cfg(MOBILENET_CFGS["MOBILENET13"], target_blocks=8)
        assert len(reduced) == 8
        stride2_original = [c for c in MOBILENET_CFGS["MOBILENET13"] if c[1] == 2]
        assert all(c in reduced for c in stride2_original)

    def test_reduce_mobilenet_noop_when_target_larger(self):
        cfg = MOBILENET_CFGS["MOBILENET8"]
        assert reduce_mobilenet_cfg(cfg, 20) == list(cfg)


class TestRIIndicator:
    def test_indicator_cost_only_ranking(self):
        model = SmallConvNet(num_classes=4, config=QuadraticModelConfig(neuron_type="first_order"))
        indicators = compute_layer_indicators(model, (3, 32, 32))
        assert len(indicators) > 0
        # Sorted descending by RI.
        ris = [item.ri for item in indicators]
        assert ris == sorted(ris, reverse=True)
        # Ratios are valid fractions.
        for item in indicators:
            assert 0 <= item.param_ratio <= 1
            assert 0 <= item.compute_ratio <= 1

    def test_indicator_with_eval_fn(self):
        model = nn.Sequential(nn.Linear(8, 8), nn.ReLU(), nn.Linear(8, 8), nn.ReLU(),
                              nn.Linear(8, 2))
        x = randn(16, 8)

        def eval_fn(m):
            # Pseudo-accuracy: negative loss magnitude on a fixed batch.
            out = m(x)
            return float(-np.abs(out.data).mean())

        indicators = compute_layer_indicators(model, (8,), eval_fn=eval_fn,
                                              candidate_layers=["0", "2"])
        assert {item.name for item in indicators} <= {"0", "2"}
        assert all(np.isfinite(item.ri) for item in indicators)

    def test_measure_accuracy_drop_restores_layer(self):
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU(), nn.Linear(4, 2))
        original = model[0]
        measure_accuracy_drop(model, "0", lambda m: 1.0)
        assert model[0] is original

    def test_measure_accuracy_drop_shape_breaking_layer(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.Linear(8, 2))
        x = randn(4, 4)

        def eval_fn(m):
            return float(m(x).data.mean())

        drop = measure_accuracy_drop(model, "0", eval_fn)
        assert drop == float("inf")

    def test_removal_order_skips_zero_ri(self):
        from repro.builder.indicator import LayerIndicator

        order = removal_order([
            LayerIndicator("a", 0.5, 0.5, 0.001, 10.0),
            LayerIndicator("b", 0.5, 0.5, float("inf"), 0.0),
        ])
        assert order == ["a"]

    def test_autobuilder_reduce_structure(self):
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1), nn.ReLU(),
            nn.Conv2d(8, 8, 3, padding=1), nn.ReLU(),
            nn.Conv2d(8, 8, 3, padding=1), nn.ReLU(),
            nn.GlobalAvgPool2d(), nn.Linear(8, 2),
        )
        builder = AutoBuilder(neuron_type="OURS")
        builder.convert(model)
        report = builder.reduce_structure(model, (3, 16, 16), max_removals=1)
        assert len(report.removed_layers) <= 1
        # Model must still run after reduction.
        assert model(randn(2, 3, 16, 16)).shape == (2, 2)
        if report.removed_layers:
            assert report.parameters_after < report.parameters_before
