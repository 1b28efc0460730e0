"""Hybrid BP on every composable design: ``hybrid_bp=True`` sets ``recompute``.

The paper's quadratic optimizer applies the same save-less/recompute scheme to
every quadratic design.  Here that scheme is one setting of the single-node
``QuadraticConv2d`` and ``QuadraticLinear``, reached through the factory, the
model configuration and the auto-builder.  These tests verify that a
recompute layer has the keep layer's parameters, forward values and
gradients while caching fewer intermediates, for all six composable types.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import no_grad
from repro.autodiff.tensor import Tensor
from repro.builder import AutoBuilder
from repro.nn import Conv2d, Linear, Sequential
from repro.profiler import MemoryTracker
from repro.quadratic import (
    HybridQuadraticConv2d,
    HybridQuadraticLinear,
    QuadraticConv2d,
    QuadraticLinear,
    quadratic_layer,
)
from repro.quadratic.functional import COMBINE_READS

RTOL, ATOL = 1e-4, 1e-5
COMPOSABLE_TYPES = ["T2", "T3", "T4", "T4_ID", "T2_4", "OURS"]
SHAPES = ("conv", "dense")


def build(neuron_type, shape, hybrid_bp, channels=4, **kwargs):
    """A factory-built layer; T4_ID's identity path keeps the width."""
    if shape == "conv":
        return quadratic_layer(neuron_type, channels, channels, kernel_size=3,
                               padding=kwargs.pop("padding", 1), hybrid_bp=hybrid_bp, **kwargs)
    return quadratic_layer(neuron_type, channels, channels, hybrid_bp=hybrid_bp, **kwargs)


def make_pair(neuron_type, shape, **kwargs):
    """A recompute layer and a keep layer with identical weights."""
    hybrid = build(neuron_type, shape, True, **kwargs)
    keep = build(neuron_type, shape, False, **kwargs)
    keep.load_state_dict(hybrid.state_dict())
    return hybrid, keep


def random_input(shape, seed=0, batch=2, channels=4, size=8):
    dims = (batch, channels, size, size) if shape == "conv" else (batch, 3, channels)
    return np.random.default_rng(seed).normal(size=dims).astype(np.float32)


def peak(layer, x):
    with MemoryTracker() as tracker:
        layer(Tensor(x, requires_grad=True)).sum().backward()
    layer.zero_grad()
    return tracker.peak_bytes


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("neuron_type", COMPOSABLE_TYPES)
def test_hybrid_bp_sets_recompute_and_drops_the_responses(neuron_type, shape):
    """Every type that reads a response in backward caches less under recompute."""
    hybrid, keep = make_pair(neuron_type, shape)
    assert type(hybrid) is type(keep) is (QuadraticConv2d if shape == "conv"
                                          else QuadraticLinear)
    assert hybrid.recompute and not keep.recompute
    x = random_input(shape, seed=3, batch=4)
    if COMBINE_READS[neuron_type]:
        assert peak(hybrid, x) < peak(keep, x)
    else:  # T2's combination reads no response: nothing to drop
        assert peak(hybrid, x) == peak(keep, x)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("neuron_type", COMPOSABLE_TYPES)
class TestHybridGeneralEquivalence:
    def test_forward_identical(self, neuron_type, shape):
        hybrid, keep = make_pair(neuron_type, shape)
        x = random_input(shape)
        with no_grad():
            np.testing.assert_allclose(hybrid(Tensor(x)).data, keep(Tensor(x)).data,
                                       rtol=RTOL, atol=ATOL)

    def test_input_and_weight_gradients_identical(self, neuron_type, shape):
        hybrid, keep = make_pair(neuron_type, shape)
        x_data = random_input(shape, seed=1)

        def run(layer):
            layer.zero_grad()
            x = Tensor(x_data.copy(), requires_grad=True)
            (layer(x) * Tensor(np.full((1,), 0.5, dtype=np.float32))).sum().backward()
            grads = {name: p.grad.copy() for name, p in layer._parameters.items()
                     if p is not None and p.grad is not None}
            return x.grad.copy(), grads

        hybrid_x_grad, hybrid_grads = run(hybrid)
        keep_x_grad, keep_grads = run(keep)
        np.testing.assert_allclose(hybrid_x_grad, keep_x_grad, rtol=RTOL, atol=ATOL)
        assert set(hybrid_grads) == set(keep_grads)
        for name in hybrid_grads:
            np.testing.assert_allclose(hybrid_grads[name], keep_grads[name],
                                       rtol=RTOL, atol=ATOL, err_msg=name)

    def test_state_dict_keys_match_the_keep_layer(self, neuron_type, shape):
        """So a checkpoint of either policy loads into the other."""
        hybrid, keep = make_pair(neuron_type, shape, bias=False)
        assert list(hybrid.state_dict()) == list(keep.state_dict())
        keep.load_state_dict(hybrid.state_dict())
        hybrid.load_state_dict(keep.state_dict())


@pytest.mark.parametrize("neuron_type", ["T4", "T2_4", "OURS"])
def test_no_bias_and_stride_variants(neuron_type):
    hybrid = quadratic_layer(neuron_type, 4, 6, kernel_size=3, stride=2, padding=1,
                             bias=False, hybrid_bp=True)
    keep = QuadraticConv2d(4, 6, kernel_size=3, stride=2, padding=1,
                           neuron_type=neuron_type, bias=False)
    keep.load_state_dict(hybrid.state_dict())
    x = random_input("conv", seed=2, channels=4, size=9)
    with no_grad():
        h = hybrid(Tensor(x))
        c = keep(Tensor(x))
    assert h.shape == c.shape == (2, 6, 5, 5)
    np.testing.assert_allclose(h.data, c.data, rtol=RTOL, atol=ATOL)


def test_named_hybrid_classes_are_the_ours_layers_with_recompute():
    """The two named classes keep their constructors and the keep layers' keys."""
    conv = HybridQuadraticConv2d(3, 8, kernel_size=3, padding=1)
    dense = HybridQuadraticLinear(16, 8, bias=False)
    assert isinstance(conv, QuadraticConv2d) and conv.neuron_type == "OURS" and conv.recompute
    assert isinstance(dense, QuadraticLinear) and dense.neuron_type == "OURS" and dense.recompute
    assert list(conv.state_dict()) == list(
        quadratic_layer("OURS", 3, 8, kernel_size=3, padding=1).state_dict())
    assert list(dense.state_dict()) == list(QuadraticLinear(16, 8, bias=False).state_dict())


@pytest.mark.parametrize("shape", SHAPES)
def test_numeric_weight_gradient_fan_squared_path(numgrad, shape):
    """The Fan design's squared-input path has its own chain rule — check it numerically."""
    layer = build("T2_4", shape, True, channels=2)
    x_data = random_input(shape, seed=4, channels=2, size=5)

    def loss_value():
        with no_grad():
            return float(layer(Tensor(x_data)).sum().item())

    expected = numgrad(loss_value, layer.weight_sq.data)
    layer.zero_grad()
    layer(Tensor(x_data)).sum().backward()
    np.testing.assert_allclose(layer.weight_sq.grad, expected, rtol=2e-2, atol=2e-2)


@pytest.mark.parametrize("shape", SHAPES)
def test_numeric_input_gradient_fan(numgrad, shape):
    layer = build("T2_4", shape, True, channels=2, bias=False)
    x_data = random_input(shape, seed=5, batch=1, channels=2, size=4)

    def loss_value():
        with no_grad():
            return float(layer(Tensor(x_data)).sum().item())

    expected = numgrad(loss_value, x_data)
    x = Tensor(x_data, requires_grad=True)
    layer(x).sum().backward()
    np.testing.assert_allclose(x.grad, expected, rtol=2e-2, atol=2e-2)


def test_full_rank_family_ignores_the_flag():
    """T1 trains as a composed graph; there is no node to set the policy on."""
    dense = quadratic_layer("T1", 3, 8, hybrid_bp=True)
    assert isinstance(dense, QuadraticLinear) and not dense.recompute


def test_autobuilder_sets_recompute_on_every_converted_layer():
    model = Sequential(Conv2d(3, 8, 3, padding=1), Conv2d(8, 8, 3, padding=1), Linear(8, 4))
    AutoBuilder(neuron_type="T2_4", hybrid_bp=True, convert_linear=True).convert(model)
    converted = [m for m in model.modules() if isinstance(m, (QuadraticConv2d, QuadraticLinear))]
    assert len(converted) == 3
    assert all(m.neuron_type == "T2_4" and m.recompute for m in converted)
