"""The single-node quadratic convolution against the composed graph it replaces.

``QuadraticConv2d`` of every composable type trains as one autograd node with
a hand-derived backward, under both back-propagation policies: keep the
responses the combination's backward reads, or recompute them (hybrid BP).  The oracle here is built on the test side from
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

from repro import nn
from repro.autodiff import Tensor
from repro.autodiff.ops import conv as conv_ops
from repro.nn import functional as F
from repro.profiler import MemoryTracker
from repro.quadratic import QuadraticConv2d
from repro.quadratic import functional as quadratic_functional
from repro.quadratic.functional import COMBINE_READS, COMBINERS
from repro.quadratic.layers import qconv

COMPOSABLE_TYPES = ["T2", "T3", "T4", "T4_ID", "T2_4", "OURS"]
POLICIES = ("default", "hybrid")
RTOL = 1e-4
ATOL_OF_MAX = 1e-5


def _cases():
    for neuron_type, stride, padding, groups, bias in itertools.product(
            COMPOSABLE_TYPES, (1, 2), (0, 1), (1, 2), (True, False)):
        if neuron_type == "T4_ID" and (stride, padding) != (1, 1):
            continue  # the identity path needs an H×W-preserving convolution
        for policy in POLICIES:
            yield pytest.param(neuron_type, stride, padding, groups, bias, policy,
                               id=f"{neuron_type}-s{stride}-p{padding}-g{groups}-"
                                  f"{'bias' if bias else 'nobias'}-{policy}")


CASES = list(_cases())


def make_layer(neuron_type, stride, padding, groups, bias, policy, seed=0):
    out_channels = 4 if neuron_type == "T4_ID" else 6
    kwargs = dict(kernel_size=3, stride=stride, padding=padding, groups=groups, bias=bias)
    layer = QuadraticConv2d(4, out_channels, neuron_type=neuron_type, **kwargs)
    layer.recompute = policy == "hybrid"
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


@pytest.mark.parametrize("neuron_type,stride,padding,groups,bias,policy",
                         [case for case in CASES if case.values[-1] == "hybrid"])
def test_hybrid_policy_equals_the_default_in_bytes(neuron_type, stride, padding, groups,
                                                   bias, policy):
    """The recompute runs the forward's own GEMM, so every gradient keeps its bits."""
    x = random_input(seed=4)
    hybrid = make_layer(neuron_type, stride, padding, groups, bias, "hybrid")
    default = make_layer(neuron_type, stride, padding, groups, bias, "default")
    default.load_state_dict(hybrid.state_dict())
    hybrid_out, hybrid_gx, hybrid_grads, hybrid_peak = run(hybrid, hybrid, x)
    default_out, default_gx, default_grads, default_peak = run(default, default, x)
    assert hybrid_out.tobytes() == default_out.tobytes()
    assert hybrid_gx.tobytes() == default_gx.tobytes()
    assert set(hybrid_grads) == set(default_grads)
    for name in default_grads:
        assert hybrid_grads[name].tobytes() == default_grads[name].tobytes(), name
    if COMBINE_READS[neuron_type]:
        assert hybrid_peak < default_peak
    else:  # T2's combination reads no response: nothing to drop
        assert hybrid_peak == default_peak


# --------------------------------------------------------------------------- #
# The mechanism, pinned by a count: one lowering and one scatter per backward
# --------------------------------------------------------------------------- #

@pytest.fixture
def lowering_counts(monkeypatch):
    """Count ``lower_columns``/``scatter_columns`` calls wherever the convolution code binds them."""
    counts = {"lower_columns": 0, "scatter_columns": 0}

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
@pytest.mark.parametrize("neuron_type,policy", itertools.product(COMPOSABLE_TYPES, POLICIES))
def test_backward_lowers_once_and_scatters_once(lowering_counts, neuron_type, policy,
                                                x_requires_grad):
    layer = make_layer(neuron_type, 1, 1, 1, True, policy)
    x = Tensor(random_input(seed=5), requires_grad=x_requires_grad)
    out = layer(x)
    projections = sum(kind != "id" for kind in layer.required)
    assert lowering_counts == {"lower_columns": projections, "scatter_columns": 0}

    lowering_counts.update(lower_columns=0, scatter_columns=0)
    out.sum().backward()
    assert lowering_counts == {"lower_columns": 1,
                               "scatter_columns": 1 if x_requires_grad else 0}
    assert (x.grad is not None) == x_requires_grad
    assert all(p.grad is not None for p in layer.parameters())


def test_a_training_chain_makes_no_copy_between_images_and_rows(monkeypatch):
    """Conv → BatchNorm → ReLU → MaxPool → conv keeps the batch-innermost order.

    Each convolution hands its (F, OH, OW, N) rows on as an NCHW-shaped view,
    the layers between keep that memory order, and each backward reads its
    incoming gradient as rows without a copy.
    """
    calls = {"rows_to_image": 0}
    real_rows_to_image = conv_ops.rows_to_image

    def counted(*args, **kwargs):
        calls["rows_to_image"] += 1
        return real_rows_to_image(*args, **kwargs)

    monkeypatch.setattr(conv_ops, "rows_to_image", counted)
    monkeypatch.setattr(quadratic_functional, "rows_to_image", counted)
    shared = []
    real_image_to_rows = conv_ops.image_to_rows

    def watched(image):
        rows = real_image_to_rows(image)
        shared.append(np.shares_memory(rows, image))
        return rows

    monkeypatch.setattr(conv_ops, "image_to_rows", watched)
    monkeypatch.setattr(qconv, "image_to_rows", watched)

    model = nn.Sequential(QuadraticConv2d(4, 6, 3, padding=1), nn.BatchNorm2d(6), nn.ReLU(),
                          nn.MaxPool2d(2), QuadraticConv2d(6, 6, 3, padding=1))
    x = Tensor(np.random.default_rng(6).standard_normal((4, 4, 8, 8)).astype(np.float32),
               requires_grad=True)
    out = model(x)
    assert calls == {"rows_to_image": 0}
    # The upstream gradient arrives batch-innermost, as a following
    # convolution's scatter hands it on.
    n, c, h, w = out.shape
    upstream = np.random.default_rng(7).standard_normal((c, h, w, n)).astype(np.float32)
    out.backward(upstream.transpose(3, 0, 1, 2))
    assert calls == {"rows_to_image": 0}
    assert shared == [True, True]
    assert x.grad is not None and all(p.grad is not None for p in model.parameters())
