"""The single-node BatchNorm against the composed graph it replaces.

``BatchNorm1d``/``BatchNorm2d`` train through one autograd node
(:class:`repro.autodiff.ops.norm.BatchNorm`) with a closed-form backward.
The oracle here is the composed formula built on the test side from
primitives — ``Mean``, ``Sub``, ``Mul``, ``Pow`` and ``Add`` nodes, with
the running-statistics update on the oracle's own buffers — so the node is
never compared with itself.  Outputs and running statistics must match it
bit for bit; gradients within float32 tolerance, because the closed form
sums in a different order; and the node must cache only ``x̂`` plus
per-channel vectors.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor, no_grad
from repro.profiler import MemoryTracker

RTOL = 1e-4
ATOL_OF_MAX = 1e-5
STEPS = 3

SHAPES = {"1d-NC": ("BatchNorm1d", (8, 5)), "1d-NCL": ("BatchNorm1d", (6, 5, 7)),
          "2d": ("BatchNorm2d", (4, 5, 6, 6))}


def _cases():
    for shape_id, training, affine, track in itertools.product(
            SHAPES, (True, False), (True, False), (True, False)):
        yield pytest.param(shape_id, training, affine, track,
                           id=f"{shape_id}-{'train' if training else 'eval'}-"
                              f"{'affine' if affine else 'plain'}-"
                              f"{'running' if track else 'batch'}")


def make_layer(shape_id, affine, track, seed=0):
    cls_name, shape = SHAPES[shape_id]
    layer = getattr(nn, cls_name)(shape[1], affine=affine, track_running_stats=track)
    rng = np.random.default_rng(seed)
    if affine:   # the default ones/zeros would hide a wrong affine path
        layer.weight.data[...] = rng.standard_normal(shape[1])
        layer.bias.data[...] = rng.standard_normal(shape[1])
    if track:    # and fresh statistics would hide a wrong eval path
        layer.running_mean[...] = rng.standard_normal(shape[1])
        layer.running_var[...] = rng.uniform(0.5, 2.0, shape[1])
    return layer, shape


def composed_forward(layer, x: Tensor, running_mean, running_var) -> Tensor:
    """The composed graph: the statistics, then ``(x − mean)·inv_std·w + b``."""
    axes = (0,) + tuple(range(2, x.ndim))
    shape = layer._stat_shape(x.ndim)
    if layer.training or not layer.track_running_stats:
        mean = x.mean(axis=axes, keepdims=True)
        var = ((x - mean) * (x - mean)).mean(axis=axes, keepdims=True)
        if layer.track_running_stats:
            m = layer.momentum
            count = x.size / layer.num_features
            unbiased = var.data.reshape(layer.num_features) * count / max(count - 1, 1)
            running_mean[...] = (1 - m) * running_mean + m * mean.data.reshape(-1)
            running_var[...] = (1 - m) * running_var + m * unbiased
    else:
        mean = Tensor(running_mean.reshape(shape))
        var = Tensor(running_var.reshape(shape))
    if layer.affine:
        weight, bias = layer.weight.reshape(shape), layer.bias.reshape(shape)
    else:
        weight = Tensor(np.ones(shape, dtype=np.float32))
        bias = Tensor(np.zeros(shape, dtype=np.float32))
    return (x - mean) * ((var + layer.eps) ** -0.5) * weight + bias


def run(layer, forward, x_data, upstream):
    layer.zero_grad()
    x = Tensor(x_data.copy(), requires_grad=True)
    out = forward(x)
    out.backward(upstream)
    grads = [x.grad]
    if layer.affine:
        grads += [layer.weight.grad, layer.bias.grad]
    return out.data, grads


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("shape_id,training,affine,track", list(_cases()))
def test_node_matches_the_composed_oracle(shape_id, training, affine, track):
    layer, shape = make_layer(shape_id, affine, track)
    layer.train(training)
    oracle_mean = layer.running_mean.copy() if track else None
    oracle_var = layer.running_var.copy() if track else None
    rng = np.random.default_rng(1)
    for _ in range(STEPS):
        x = (rng.standard_normal(shape) * 3.0 + 1.0).astype(np.float32)
        upstream = rng.standard_normal(shape).astype(np.float32)
        expected, expected_grads = run(
            layer, lambda t: composed_forward(layer, t, oracle_mean, oracle_var), x, upstream)
        actual, actual_grads = run(layer, layer, x, upstream)
        assert_same_bits(actual, expected)
        if track:
            assert_same_bits(layer.running_mean, oracle_mean)
            assert_same_bits(layer.running_var, oracle_var)
        for got, want in zip(actual_grads, expected_grads):
            np.testing.assert_allclose(got, want, rtol=RTOL,
                                       atol=ATOL_OF_MAX * np.abs(want).max())


@pytest.mark.parametrize("shape_id,training,affine,track", list(_cases()))
def test_each_call_records_one_node(shape_id, training, affine, track):
    layer, shape = make_layer(shape_id, affine, track)
    layer.train(training)
    x = Tensor(np.random.default_rng(2).standard_normal(shape).astype(np.float32),
               requires_grad=True)
    out = layer(x)
    assert out._ctx.op_name == "BatchNorm"
    parents = [p for p in out._ctx.parents if p is not None]
    assert parents[0] is x and all(p._ctx is None for p in parents)


@pytest.mark.parametrize("shape_id", list(SHAPES))
def test_node_caches_xhat_plus_per_channel_vectors(shape_id):
    layer, shape = make_layer(shape_id, affine=True, track=True)
    x = Tensor(np.random.default_rng(3).standard_normal(shape).astype(np.float32),
               requires_grad=True)
    with MemoryTracker() as tracker:
        layer(x)
        saved = tracker.current_bytes
    channels = shape[1]
    assert x.data.nbytes <= saved <= x.data.nbytes + 4 * channels * 4


def test_no_grad_forward_caches_nothing_and_keeps_updating_running_stats():
    layer, shape = make_layer("2d", affine=True, track=True)
    before = layer.running_mean.copy()
    x = Tensor(np.random.default_rng(4).standard_normal(shape).astype(np.float32))
    with MemoryTracker() as tracker, no_grad():
        layer(x)
        assert tracker.current_bytes == 0
    assert not np.array_equal(layer.running_mean, before)
    assert int(layer.num_batches_tracked[0]) == 1
