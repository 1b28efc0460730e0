"""Compiled inference path: exactness against the eager forward."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.autodiff import inference_mode, is_grad_enabled, no_grad
from repro.autodiff.tensor import Tensor
from repro.experiment import ModelSpec
from repro.inference import BufferPool, CompiledModel, compile_model
from repro.quadratic.functional import FUSED_COMBINERS, REQUIRED_RESPONSES
from repro.quadratic.layers.qlinear import QuadraticLinear
from repro.utils import seed_everything

RNG = np.random.default_rng(7)


def eager(model, x: np.ndarray) -> np.ndarray:
    model.eval()
    with no_grad():
        return model(Tensor(x)).data


def assert_compiled_matches(model, x: np.ndarray, atol: float = 0.0,
                            rtol: float = 0.0) -> CompiledModel:
    expected = eager(model, x)
    compiled = compile_model(model)
    actual = compiled(x)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    if atol == 0.0 and rtol == 0.0:
        np.testing.assert_array_equal(actual, expected)
        # assert_array_equal treats -0.0 == +0.0; exact means the same bits.
        assert actual.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(actual, expected, atol=atol, rtol=rtol)
    return compiled


# --------------------------------------------------------------------------- #
# Layer-level exactness
# --------------------------------------------------------------------------- #

class TestLayerRules:
    def test_linear_chain_is_bit_exact(self):
        model = nn.Sequential(nn.Linear(12, 24), nn.ReLU(), nn.Linear(24, 5))
        x = RNG.standard_normal((4, 12)).astype(np.float32)
        compiled = assert_compiled_matches(model, x)
        assert compiled.num_steps == 3

    def test_conv_bn_pool_chain_is_bit_exact(self):
        model = nn.Sequential(
            nn.Conv2d(3, 8, 3, padding=1), nn.BatchNorm2d(8), nn.ReLU(),
            nn.MaxPool2d(2), nn.Conv2d(8, 4, 3, padding=1), nn.AvgPool2d(2),
            nn.Flatten(), nn.Linear(4 * 4 * 4, 3),
        )
        x = RNG.standard_normal((2, 3, 16, 16)).astype(np.float32)
        assert_compiled_matches(model, x)

    def test_batchnorm_uses_running_statistics(self):
        bn = nn.BatchNorm2d(4)
        bn.running_mean[...] = np.arange(4, dtype=np.float32)
        bn.running_var[...] = np.linspace(0.5, 2.0, 4, dtype=np.float32)
        model = nn.Sequential(bn)
        x = RNG.standard_normal((3, 4, 5, 5)).astype(np.float32)
        assert_compiled_matches(model, x)

    def test_batchnorm_without_running_stats_matches_eval_forward(self):
        model = nn.Sequential(nn.BatchNorm1d(6, track_running_stats=False))
        x = RNG.standard_normal((8, 6)).astype(np.float32)
        compiled = assert_compiled_matches(model, x)
        # ... and the compiler flags the batch dependence for the predictor.
        assert len(compiled.batch_dependent_modules) == 1

    @pytest.mark.parametrize("optimize", ["none", "default"])
    @pytest.mark.parametrize("track_running_stats", [True, False])
    @pytest.mark.parametrize("fill", ["negative_zero", "random"])
    def test_non_affine_batchnorm_matches_eager_bytes(self, optimize,
                                                      track_running_stats, fill):
        # Eager adds a zero bias, turning -0.0 into +0.0; so must the
        # compiled step, live ("none") and frozen ("default").
        model = nn.Sequential(nn.BatchNorm2d(
            2, affine=False, track_running_stats=track_running_stats))
        x = (np.full((2, 2, 2, 1), -0.0, dtype=np.float32) if fill == "negative_zero"
             else RNG.standard_normal((2, 2, 2, 1)).astype(np.float32))
        expected = eager(model, x)
        actual = compile_model(model, optimize=optimize)(x)
        assert actual.tobytes() == expected.tobytes()

    def test_running_stats_batchnorm_is_not_flagged_batch_dependent(self):
        model = nn.Sequential(nn.BatchNorm1d(6))
        compiled = compile_model(model)
        assert not compiled.batch_dependent_modules

    def test_adaptive_avgpool_keeps_the_divisibility_guard(self):
        model = nn.Sequential(nn.AdaptiveAvgPool2d(output_size=3))
        x = RNG.standard_normal((1, 2, 32, 32)).astype(np.float32)
        compiled = compile_model(model)
        with pytest.raises(ValueError, match="divisible"):
            compiled(x)
        # Divisible sizes still match eager exactly.
        x_ok = RNG.standard_normal((1, 2, 12, 12)).astype(np.float32)
        assert_compiled_matches(nn.Sequential(nn.AdaptiveAvgPool2d(3)), x_ok)

    def test_overlapping_and_tiled_maxpool_agree_with_eager(self):
        for kwargs in ({"kernel_size": 2}, {"kernel_size": 3, "stride": 2},
                       {"kernel_size": 2, "padding": 0, "stride": 2}):
            model = nn.Sequential(nn.MaxPool2d(**kwargs))
            x = RNG.standard_normal((2, 3, 12, 12)).astype(np.float32)
            assert_compiled_matches(model, x)
        # Ties between -0.0 and +0.0 keep the first, as eager argmax does,
        # and NaN/inf windows agree too.
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0],
                           dtype=np.float32)
        x = np.random.default_rng(11).choice(special, size=(2, 3, 12, 12))
        for kernel_size in (2, (2, 4)):
            assert_compiled_matches(nn.Sequential(nn.MaxPool2d(kernel_size)), x)

    def test_activation_zoo_matches(self):
        model = nn.Sequential(nn.LeakyReLU(0.1), nn.Sigmoid(), nn.Tanh(),
                              nn.GELU(), nn.Softmax(axis=-1))
        x = RNG.standard_normal((5, 9)).astype(np.float32)
        assert_compiled_matches(model, x)

    def test_square_activation_with_linear_path(self):
        model = nn.Sequential(nn.Square(scale=0.5, linear=0.25))
        x = RNG.standard_normal((4, 7)).astype(np.float32)
        assert_compiled_matches(model, x)

    def test_dropout_and_identity_compile_away(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Identity(), nn.Linear(6, 2))
        compiled = compile_model(model)
        assert compiled.num_steps == 1  # only the Linear remains
        x = RNG.standard_normal((3, 6)).astype(np.float32)
        np.testing.assert_array_equal(compiled(x), eager(model, x))

    def test_grouped_convolution_matches_eager(self):
        model = nn.Sequential(nn.Conv2d(4, 8, 3, padding=1, groups=2))
        x = RNG.standard_normal((2, 4, 8, 8)).astype(np.float32)
        assert_compiled_matches(model, x)


class TestQuadraticRules:
    @pytest.mark.parametrize("neuron_type", ["T2", "T3", "T4", "T2_4", "OURS"])
    def test_quadratic_conv_fused_kernels_are_bit_exact(self, neuron_type):
        seed_everything(0)
        from repro.quadratic.layers.qconv import QuadraticConv2d

        model = nn.Sequential(QuadraticConv2d(3, 6, 3, padding=1,
                                              neuron_type=neuron_type))
        x = RNG.standard_normal((2, 3, 10, 10)).astype(np.float32)
        assert_compiled_matches(model, x)

    def test_t4_identity_conv(self):
        from repro.quadratic.layers.qconv import QuadraticConv2d

        model = nn.Sequential(QuadraticConv2d(5, 5, 3, padding=1, neuron_type="T4_ID"))
        x = RNG.standard_normal((2, 5, 6, 6)).astype(np.float32)
        assert_compiled_matches(model, x)

    @pytest.mark.parametrize("neuron_type", ["T2", "T3", "T4", "T4_ID", "T2_4", "OURS"])
    def test_quadratic_linear_fused_kernels(self, neuron_type):
        seed_everything(0)
        in_features = 8
        model = nn.Sequential(QuadraticLinear(in_features, 8, neuron_type=neuron_type))
        x = RNG.standard_normal((4, in_features)).astype(np.float32)
        compiled = assert_compiled_matches(model, x)
        assert not compiled.fallback_modules

    def test_bilinear_types_fall_back_to_eager(self):
        model = nn.Sequential(QuadraticLinear(6, 3, neuron_type="T1"))
        x = RNG.standard_normal((2, 6)).astype(np.float32)
        compiled = assert_compiled_matches(model, x)
        assert len(compiled.fallback_modules) == 1

    def test_hybrid_layers_compile_through_the_same_fused_rule(self):
        from repro.quadratic import HybridQuadraticConv2d, HybridQuadraticLinear

        model = nn.Sequential(HybridQuadraticConv2d(3, 4, 3, padding=1),
                              nn.Flatten(), HybridQuadraticLinear(4 * 64, 5))
        x = RNG.standard_normal((2, 3, 8, 8)).astype(np.float32)
        compiled = assert_compiled_matches(model, x)
        assert not compiled.fallback_modules

    def test_every_composable_type_has_a_fused_combiner(self):
        assert set(FUSED_COMBINERS) == set(REQUIRED_RESPONSES)


# --------------------------------------------------------------------------- #
# Whole-model compilation
# --------------------------------------------------------------------------- #

class TestModelCompilation:
    @pytest.mark.parametrize("name,neuron_type", [
        ("vgg8", "OURS"), ("vgg8", "first_order"), ("lenet", "OURS"),
        ("small_convnet", "T4"), ("mobilenet_v1_quadra", "OURS"),
    ])
    def test_zoo_models_compile_without_fallbacks(self, name, neuron_type):
        seed_everything(0)
        model = ModelSpec(name=name, neuron_type=neuron_type, num_classes=4,
                          width_multiplier=0.25).build()
        x = (0.1 * RNG.standard_normal((2, 3, 32, 32))).astype(np.float32)
        compiled = assert_compiled_matches(model, x)
        assert not compiled.fallback_modules

    def test_resnet_residual_blocks(self):
        seed_everything(0)
        model = ModelSpec(name="resnet8", neuron_type="first_order", num_classes=4,
                          width_multiplier=0.25).build()
        x = (0.1 * RNG.standard_normal((2, 3, 16, 16))).astype(np.float32)
        compiled = assert_compiled_matches(model, x)
        assert not compiled.fallback_modules

    def test_hooked_module_falls_back_so_hooks_still_fire(self):
        model = nn.Sequential(nn.Linear(4, 4), nn.ReLU())
        seen = []
        model[0].register_forward_hook(lambda module, inputs, out: seen.append(out.shape))
        compiled = compile_model(model)
        assert len(compiled.fallback_modules) == 1
        x = RNG.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_array_equal(compiled(x), eager(model, x))
        assert seen  # the hook observed the compiled run too

    def test_fallback_modules_run_with_eval_semantics(self):
        """A training-mode fallback must not fire dropout or touch BN stats."""

        class Opaque(nn.Module):
            def __init__(self):
                super().__init__()
                self.bn = nn.BatchNorm1d(4)
                self.dropout = nn.Dropout(0.9)

            def forward(self, x):
                # Non-pipeline forward so the compiler cannot lower it.
                return self.dropout(self.bn(x)) + 0.0 * x

        model = Opaque()
        model.train(True)
        compiled = compile_model(model)
        assert compiled.fallback_modules == [model]
        x = RNG.standard_normal((6, 4)).astype(np.float32)
        mean_before = model.bn.running_mean.copy()
        out = compiled(x)
        np.testing.assert_array_equal(model.bn.running_mean, mean_before)
        assert model.training  # restored afterwards
        np.testing.assert_array_equal(out, eager(model, x))  # dropout inactive

    def test_compiled_output_is_a_fresh_array_each_call(self):
        model = nn.Sequential(nn.Linear(4, 2), nn.ReLU())
        compiled = compile_model(model)
        x = RNG.standard_normal((1, 4)).astype(np.float32)
        first = compiled(x)
        snapshot = first.copy()
        compiled(RNG.standard_normal((1, 4)).astype(np.float32))
        np.testing.assert_array_equal(first, snapshot)

    def test_buffer_pool_is_reused_across_calls(self):
        seed_everything(0)
        model = ModelSpec(name="vgg8", neuron_type="OURS", num_classes=4,
                          width_multiplier=0.125).build()
        pool = BufferPool()
        compiled = compile_model(model, pool=pool)
        x = RNG.standard_normal((1, 3, 32, 32)).astype(np.float32)
        compiled(x)
        allocations_after_first = pool.allocations
        assert allocations_after_first > 0
        compiled(x)
        compiled(x)
        assert pool.allocations == allocations_after_first  # steady state
        assert pool.requests > allocations_after_first

    def test_warmup_preallocates_for_every_expected_batch_size(self):
        seed_everything(0)
        model = ModelSpec(name="lenet", neuron_type="OURS", num_classes=4).build()
        compiled = compile_model(model)
        compiled.warmup((3, 32, 32), batch_sizes=(1, 2, 4))
        allocations = compiled.pool.allocations
        for batch_size in (1, 2, 4, 2, 1):
            x = RNG.standard_normal((batch_size, 3, 32, 32)).astype(np.float32)
            compiled(x)
        assert compiled.pool.allocations == allocations  # no live-request allocs

    def test_varying_batch_sizes_share_one_compiled_model(self):
        seed_everything(0)
        model = ModelSpec(name="lenet", neuron_type="OURS", num_classes=4).build()
        compiled = compile_model(model)
        for batch_size in (1, 3, 1, 5):
            x = RNG.standard_normal((batch_size, 3, 32, 32)).astype(np.float32)
            np.testing.assert_array_equal(compiled(x), eager(model, x))

    def test_accepts_tensor_input(self):
        model = nn.Sequential(nn.Linear(4, 2))
        compiled = compile_model(model)
        x = RNG.standard_normal((2, 4)).astype(np.float32)
        np.testing.assert_array_equal(compiled(Tensor(x)), compiled(x))


# --------------------------------------------------------------------------- #
# Grad-mode plumbing
# --------------------------------------------------------------------------- #

class TestInferenceMode:
    def test_inference_mode_disables_recording(self):
        assert is_grad_enabled()
        with inference_mode():
            assert not is_grad_enabled()
            y = Tensor([1.0], requires_grad=True) * 2
            assert not y.requires_grad and y.is_leaf
        assert is_grad_enabled()

    def test_no_grad_fast_path_matches_recorded_forward(self):
        model = nn.Sequential(nn.Linear(6, 6), nn.ReLU(), nn.Linear(6, 2))
        x = RNG.standard_normal((3, 6)).astype(np.float32)
        recorded = model(Tensor(x)).data
        with no_grad():
            fast = model(Tensor(x)).data
        np.testing.assert_array_equal(fast, recorded)

    def test_fast_path_builds_no_graph(self):
        x = Tensor(RNG.standard_normal((2, 2)).astype(np.float32), requires_grad=True)
        with no_grad():
            out = (x * 2 + 1).relu()
        assert out._ctx is None and not out.requires_grad
