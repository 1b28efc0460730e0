"""The single-node quadratic convolution against the composed graph it replaces.

``QuadraticConv2d`` and the hybrid-BP convolutions train as one autograd node
with a hand-derived backward.  The oracle here is built on the test side from
first-order primitives — one ``F.conv2d`` per projection, the type's
``COMBINERS`` entry and the bias add — so the node is never compared with
itself.  Forward outputs must match it bit for bit; gradients within float32
tolerance, because the fused backward sums in a different order; and the node
must cache no more than the composed graph does.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.ops import conv as conv_ops
from repro.nn import functional as F
from repro.profiler import MemoryTracker
from repro.quadratic import (
    HybridQuadraticConv2d,
    HybridQuadraticConv2dFan,
    HybridQuadraticConv2dT4,
    QuadraticConv2d,
)
from repro.quadratic.functional import COMBINERS
from repro.quadratic.layers import qconv

COMPOSABLE_TYPES = ["T2", "T3", "T4", "T4_ID", "T2_4", "OURS"]
HYBRID_CLASSES = {"OURS": HybridQuadraticConv2d, "T4": HybridQuadraticConv2dT4,
                  "T2_4": HybridQuadraticConv2dFan}
RTOL = 1e-4
ATOL_OF_MAX = 1e-5


def _cases():
    for neuron_type, stride, padding, groups, bias in itertools.product(
            COMPOSABLE_TYPES, (1, 2), (0, 1), (1, 2), (True, False)):
        if neuron_type == "T4_ID" and (stride, padding) != (1, 1):
            continue  # the identity path needs an H×W-preserving convolution
        policies = ("default", "hybrid") if neuron_type in HYBRID_CLASSES else ("default",)
        for policy in policies:
            yield pytest.param(neuron_type, stride, padding, groups, bias, policy,
                               id=f"{neuron_type}-s{stride}-p{padding}-g{groups}-"
                                  f"{'bias' if bias else 'nobias'}-{policy}")


CASES = list(_cases())


def make_layer(neuron_type, stride, padding, groups, bias, policy, seed=0):
    out_channels = 4 if neuron_type == "T4_ID" else 6
    kwargs = dict(kernel_size=3, stride=stride, padding=padding, groups=groups, bias=bias)
    if policy == "hybrid":
        layer = HYBRID_CLASSES[neuron_type](4, out_channels, **kwargs)
    else:
        layer = QuadraticConv2d(4, out_channels, neuron_type=neuron_type, **kwargs)
    if bias:  # a zero bias would hide a wrong bias path
        layer.bias.data[...] = np.random.default_rng(seed).standard_normal(out_channels)
    return layer


def composed_forward(layer, x: Tensor) -> Tensor:
    """The composed graph: F.conv2d per projection, COMBINERS, then the bias add."""
    responses = []
    for kind in layer.required:
        if kind == "id":
            responses.append(x)
            continue
        source = x * x if kind == "sq" else x
        responses.append(F.conv2d(source, getattr(layer, f"weight_{kind}"), None,
                                  stride=layer.stride, padding=layer.padding,
                                  groups=layer.groups))
    out = COMBINERS[layer.neuron_type](*responses)
    if layer.bias is not None:
        out = out + layer.bias.reshape((1, layer.out_channels, 1, 1))
    return out


def run(layer, forward, x_data, upstream_seed=1):
    """One forward and backward; returns output, input grad, parameter grads, peak bytes."""
    layer.zero_grad()
    x = Tensor(x_data.copy(), requires_grad=True)
    with MemoryTracker() as tracker:
        out = forward(x)
        upstream = np.random.default_rng(upstream_seed).standard_normal(out.shape)
        out.backward(upstream.astype(np.float32))
    assert tracker.current_bytes == 0
    grads = {name: p.grad.copy() for name, p in layer.named_parameters()}
    return out.data, x.grad.copy(), grads, tracker.peak_bytes


def random_input(seed=0):
    return np.random.default_rng(seed).standard_normal((2, 4, 7, 7)).astype(np.float32)


def assert_close_to_reference(actual, reference, name):
    atol = ATOL_OF_MAX * float(np.abs(reference).max())
    np.testing.assert_allclose(actual, reference, rtol=RTOL, atol=atol, err_msg=name)


@pytest.mark.parametrize("neuron_type,stride,padding,groups,bias,policy", CASES)
class TestNodeAgainstComposedGraph:
    def test_forward_bits_equal_the_composed_graph(self, neuron_type, stride, padding,
                                                   groups, bias, policy):
        layer = make_layer(neuron_type, stride, padding, groups, bias, policy)
        x = random_input()
        node_out = layer(Tensor(x, requires_grad=True)).data
        reference = composed_forward(layer, Tensor(x, requires_grad=True)).data
        assert node_out.dtype == reference.dtype and node_out.shape == reference.shape
        assert node_out.tobytes() == reference.tobytes()

    def test_gradients_match_the_composed_graph(self, neuron_type, stride, padding,
                                                groups, bias, policy):
        layer = make_layer(neuron_type, stride, padding, groups, bias, policy)
        x = random_input(seed=2)
        _, node_gx, node_grads, _ = run(layer, layer, x)
        _, ref_gx, ref_grads, _ = run(layer, lambda t: composed_forward(layer, t), x)
        assert_close_to_reference(node_gx, ref_gx, "input")
        assert set(node_grads) == set(ref_grads)
        for name in ref_grads:
            assert_close_to_reference(node_grads[name], ref_grads[name], name)

    def test_caches_no_more_than_the_composed_graph(self, neuron_type, stride, padding,
                                                    groups, bias, policy):
        layer = make_layer(neuron_type, stride, padding, groups, bias, policy)
        x = random_input(seed=3)
        node_peak = run(layer, layer, x)[3]
        reference_peak = run(layer, lambda t: composed_forward(layer, t), x)[3]
        assert 0 < node_peak <= reference_peak


@pytest.mark.parametrize("neuron_type", sorted(HYBRID_CLASSES))
def test_hybrid_policy_caches_less_than_the_default(neuron_type):
    x = random_input(seed=4)
    hybrid = make_layer(neuron_type, 1, 1, 1, True, "hybrid")
    default = make_layer(neuron_type, 1, 1, 1, True, "default")
    default.load_state_dict(hybrid.state_dict())
    hybrid_out, hybrid_gx, _, hybrid_peak = run(hybrid, hybrid, x)
    default_out, default_gx, _, default_peak = run(default, default, x)
    assert hybrid_out.tobytes() == default_out.tobytes()
    assert_close_to_reference(hybrid_gx, default_gx, "input")
    assert hybrid_peak < default_peak


# --------------------------------------------------------------------------- #
# The mechanism, pinned by a count: one lowering and one scatter per backward
# --------------------------------------------------------------------------- #

@pytest.fixture
def lowering_counts(monkeypatch):
    """Count ``im2col``/``col2im`` calls wherever the convolution code binds them."""
    counts = {"im2col": 0, "col2im": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        wrapper = counted(name, getattr(conv_ops, name))
        monkeypatch.setattr(conv_ops, name, wrapper)
        monkeypatch.setattr(qconv, name, wrapper, raising=False)
    return counts


@pytest.mark.parametrize("x_requires_grad", [True, False], ids=["x-grad", "x-frozen"])
@pytest.mark.parametrize("neuron_type,policy", [
    *((t, "default") for t in COMPOSABLE_TYPES),
    *((t, "hybrid") for t in sorted(HYBRID_CLASSES)),
])
def test_backward_lowers_once_and_scatters_once(lowering_counts, neuron_type, policy,
                                                x_requires_grad):
    layer = make_layer(neuron_type, 1, 1, 1, True, policy)
    x = Tensor(random_input(seed=5), requires_grad=x_requires_grad)
    out = layer(x)
    projections = sum(kind != "id" for kind in layer.required)
    assert lowering_counts == {"im2col": projections, "col2im": 0}

    lowering_counts.update(im2col=0, col2im=0)
    out.sum().backward()
    assert lowering_counts == {"im2col": 1, "col2im": 1 if x_requires_grad else 0}
    assert (x.grad is not None) == x_requires_grad
    assert all(p.grad is not None for p in layer.parameters())
