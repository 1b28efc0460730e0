"""The single-node dense quadratic layer against the composed graph it replaces.

``QuadraticLinear`` of every composable type trains as one autograd node with
a hand-derived backward, under both back-propagation policies: keep the
responses the combination's backward reads, or recompute them (hybrid BP).
The oracle here is built on the test side from first-order primitives — one
``F.linear`` per projection, the type's ``COMBINERS`` entry and the bias add
— so the node is never compared with itself.  Forward outputs must match it
bit for bit; gradients within float32 tolerance, because the fused backward
sums in a different order; and the node must cache no more than the composed
graph does.  Inputs with more than two dimensions run through the same rows.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.nn import functional as F
from repro.profiler import MemoryTracker
from repro.quadratic import QuadraticLinear
from repro.quadratic.functional import COMBINE_READS, COMBINERS

COMPOSABLE_TYPES = ["T2", "T3", "T4", "T4_ID", "T2_4", "OURS"]
POLICIES = ("default", "hybrid")
INPUT_SHAPES = ((1, 8), (7, 8), (2, 3, 8))
RTOL = 1e-4
ATOL_OF_MAX = 1e-5


def _cases():
    for neuron_type, policy, bias, shape in itertools.product(
            COMPOSABLE_TYPES, POLICIES, (True, False), INPUT_SHAPES):
        yield pytest.param(neuron_type, policy, bias, shape,
                           id=f"{neuron_type}-{policy}-{'bias' if bias else 'nobias'}-"
                              f"{'x'.join(map(str, shape))}")


CASES = list(_cases())


def make_layer(neuron_type, policy, bias, seed=0):
    out_features = 8 if neuron_type == "T4_ID" else 6
    layer = QuadraticLinear(8, out_features, neuron_type=neuron_type, bias=bias)
    layer.recompute = policy == "hybrid"
    if bias:  # a zero bias would hide a wrong bias path
        layer.bias.data[...] = np.random.default_rng(seed).standard_normal(out_features)
    return layer


def composed_forward(layer, x: Tensor) -> Tensor:
    """The composed graph: F.linear per projection, COMBINERS, then the bias add."""
    responses = []
    for kind in layer.required:
        if kind == "id":
            responses.append(x)
            continue
        source = x * x if kind == "sq" else x
        responses.append(F.linear(source, getattr(layer, f"weight_{kind}")))
    out = COMBINERS[layer.neuron_type](*responses)
    if layer.bias is not None:
        out = out + layer.bias
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


def random_input(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


def assert_close_to_reference(actual, reference, name):
    atol = ATOL_OF_MAX * float(np.abs(reference).max())
    np.testing.assert_allclose(actual, reference, rtol=RTOL, atol=atol, err_msg=name)


@pytest.mark.parametrize("neuron_type,policy,bias,shape", CASES)
class TestNodeAgainstComposedGraph:
    def test_forward_bits_equal_the_composed_graph(self, neuron_type, policy, bias, shape):
        layer = make_layer(neuron_type, policy, bias)
        x = random_input(shape)
        node_out = layer(Tensor(x, requires_grad=True)).data
        reference = composed_forward(layer, Tensor(x, requires_grad=True)).data
        assert node_out.dtype == reference.dtype and node_out.shape == reference.shape
        assert node_out.tobytes() == reference.tobytes()

    def test_gradients_match_the_composed_graph(self, neuron_type, policy, bias, shape):
        layer = make_layer(neuron_type, policy, bias)
        x = random_input(shape, seed=2)
        _, node_gx, node_grads, _ = run(layer, layer, x)
        _, ref_gx, ref_grads, _ = run(layer, lambda t: composed_forward(layer, t), x)
        assert_close_to_reference(node_gx, ref_gx, "input")
        assert set(node_grads) == set(ref_grads)
        for name in ref_grads:
            assert_close_to_reference(node_grads[name], ref_grads[name], name)

    def test_caches_no_more_than_the_composed_graph(self, neuron_type, policy, bias, shape):
        layer = make_layer(neuron_type, policy, bias)
        x = random_input(shape, seed=3)
        node_peak = run(layer, layer, x)[3]
        reference_peak = run(layer, lambda t: composed_forward(layer, t), x)[3]
        assert 0 < node_peak <= reference_peak


@pytest.mark.parametrize("neuron_type,policy,bias,shape",
                         [case for case in CASES if case.values[1] == "hybrid"])
def test_hybrid_policy_equals_the_default_in_bytes(neuron_type, policy, bias, shape):
    """The recompute runs the forward's own GEMM, so every gradient keeps its bits."""
    x = random_input(shape, seed=4)
    hybrid = make_layer(neuron_type, "hybrid", bias)
    default = make_layer(neuron_type, "default", bias)
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


@pytest.mark.parametrize("neuron_type", COMPOSABLE_TYPES)
def test_frozen_input_and_frozen_weights(neuron_type):
    """Gradients are computed only for the inputs that need them."""
    layer = make_layer(neuron_type, "default", True)
    weights = [p for name, p in layer.named_parameters() if name != "bias"]
    for p in weights:
        p.requires_grad = False
    x = Tensor(random_input((5, 8), seed=5), requires_grad=True)
    layer(x).sum().backward()
    assert x.grad is not None and x.grad.shape == (5, 8)
    assert all(p.grad is None for p in weights) and layer.bias.grad is not None

    for p in weights:
        p.requires_grad = True
    layer.zero_grad()
    frozen = Tensor(random_input((5, 8), seed=6))
    layer(frozen).sum().backward()
    assert frozen.grad is None
    assert all(p.grad is not None for p in layer.parameters())
