"""The window-max kernel and the max-pool node against a gather-and-argmax pool.

:func:`repro.autodiff.ops.conv.window_max` is the one max-pool kernel: the
eager ``MaxPool2d`` node, ``Backend.maxpool`` (the compiled step) and the
secure max pool call it.  The oracle here is built on the test side the way
pooling used to work: gather every window with ``im2col``, take the first
maximal element with ``argmax``, and scatter the gradient back densely with
``put_along_axis`` + ``col2im``.  Forward bytes must match it everywhere,
signed zeros, NaN and infinities included, whichever of tied ``-0.0`` and
``+0.0`` the platform's ``np.maximum`` returns; backward bytes on finite
inputs, and for non-finite gradients too.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor
from repro.autodiff.ops import conv as conv_ops
from repro.backends import base as backends_base
from repro.backends import get_backend
from repro.ppml import runtime as ppml_runtime

KERNELS = (2, 3, (2, 4))
STRIDES = (None, 1, 2)
PADDINGS = (0, 1)
SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0], dtype=np.float32)


def geometry(kernel, stride, padding):
    kh, kw = conv_ops._pair(kernel)
    sh, sw = conv_ops._pair(stride if stride is not None else kernel)
    return kh, kw, (sh, sw), (padding, padding)


def oracle_pool(x, kernel, stride, padding):
    """im2col + argmax forward; returns the output and the winner index."""
    kh, kw, stride, padding = geometry(kernel, stride, padding)
    n, c, h, w = x.shape
    oh = conv_ops.conv_output_size(h, kh, stride[0], padding[0])
    ow = conv_ops.conv_output_size(w, kw, stride[1], padding[1])
    cols = conv_ops.im2col(x, kh, kw, stride, padding).reshape(n, c, kh * kw, oh, ow)
    argmax = cols.argmax(axis=2)
    return np.take_along_axis(cols, argmax[:, :, None], axis=2).squeeze(2), argmax


def oracle_backward(argmax, grad, x_shape, kernel, stride, padding):
    """Dense put_along_axis scatter of the gradient, then col2im."""
    kh, kw, stride, padding = geometry(kernel, stride, padding)
    n, c = x_shape[:2]
    oh, ow = grad.shape[2:]
    cols_grad = np.zeros((n, c, kh * kw, oh, ow), dtype=grad.dtype)
    np.put_along_axis(cols_grad, argmax[:, :, None], grad[:, :, None], axis=2)
    return conv_ops.col2im(cols_grad.reshape(n, c, kh, kw, oh, ow), x_shape,
                           kh, kw, stride, padding)


def signed_zero_input(seed=0, shape=(2, 3, 9, 10)):
    """Random values with many ±0 ties (and all-negative windows at the border)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    x[rng.random(shape) < 0.3] = 0.0
    x[rng.random(shape) < 0.3] = -0.0
    return x


def special_input(seed=0, shape=(2, 3, 9, 10)):
    """Every window drawn from ±0, NaN, ±inf and ±1."""
    return np.random.default_rng(seed).choice(SPECIALS, size=shape)


def relu_input(seed=0, shape=(2, 3, 9, 10)):
    """``x·(x > 0)`` as the eager ReLU computes it: every zero is ``-0.0``."""
    x = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    return x * (x > 0)


def assert_same_bits(actual, expected):
    actual, expected = np.ascontiguousarray(actual), np.ascontiguousarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


CASES = [pytest.param(k, s, p, id=f"k{k}-s{s}-p{p}".replace(" ", ""))
         for k, s, p in itertools.product(KERNELS, STRIDES, PADDINGS)]


@pytest.mark.parametrize("kernel,stride,padding", CASES)
@pytest.mark.parametrize("make_input", [signed_zero_input, special_input])
def test_forward_bytes_match_the_argmax_pool(kernel, stride, padding, make_input):
    x = make_input()
    expected, _ = oracle_pool(x, kernel, stride, padding)
    kh, kw, stride_pair, padding_pair = geometry(kernel, stride, padding)
    assert_same_bits(conv_ops.window_max(x, kh, kw, stride_pair, padding_pair), expected)
    eager = Tensor(x).max_pool2d(kernel, stride=stride, padding=padding)
    assert_same_bits(eager.data, expected)
    out = np.empty_like(expected)
    compiled = get_backend("numpy").maxpool(x, kernel, stride, padding, out=out)
    assert compiled is out
    assert_same_bits(out, expected)


@pytest.mark.parametrize("kernel,stride,padding", CASES)
def test_backward_bytes_match_the_dense_scatter(kernel, stride, padding):
    x = signed_zero_input(seed=1)
    _, argmax = oracle_pool(x, kernel, stride, padding)
    grad = np.random.default_rng(2).standard_normal(argmax.shape).astype(np.float32)
    expected = oracle_backward(argmax, grad, x.shape, kernel, stride, padding)
    leaf = Tensor(x, requires_grad=True)
    leaf.max_pool2d(kernel, stride=stride, padding=padding).backward(grad)
    assert_same_bits(leaf.grad, expected)


def _select(pick_a, a, b, out):
    result = np.where(pick_a, a, b)
    if out is None:
        return result
    np.copyto(out, result)
    return out


def first_operand_wins_ties(a, b, out=None):
    """np.maximum under the generic C rule ``a >= b || isnan(a) ? a : b``."""
    return _select((a >= b) | np.isnan(a), a, b, out)


def positive_zero_wins_ties(a, b, out=None):
    """np.maximum as aarch64's FMAX computes it: ``+0.0`` beats ``-0.0``."""
    return _select(np.isnan(a) | (a > b) | ((a == b) & ~np.signbit(a)), a, b, out)


@pytest.mark.parametrize("kernel,stride,padding", CASES)
@pytest.mark.parametrize("tie_rule", [first_operand_wins_ties, positive_zero_wins_ties])
def test_forward_bytes_do_not_depend_on_the_platform_tie_rule(kernel, stride, padding,
                                                              tie_rule, monkeypatch):
    """Which of tied ``-0.0``/``+0.0`` np.maximum returns is not specified."""
    kh, kw, stride_pair, padding_pair = geometry(kernel, stride, padding)
    inputs = [make_input() for make_input in (signed_zero_input, special_input, relu_input)]
    expected = [oracle_pool(x, kernel, stride, padding)[0] for x in inputs]
    monkeypatch.setattr(np, "maximum", tie_rule)
    for x, want in zip(inputs, expected):
        assert_same_bits(conv_ops.window_max(x, kh, kw, stride_pair, padding_pair), want)


@pytest.mark.parametrize("kernel,stride,padding", CASES)
def test_non_finite_gradient_stays_at_its_winner(kernel, stride, padding):
    x = signed_zero_input(seed=7)
    _, argmax = oracle_pool(x, kernel, stride, padding)
    grad = np.random.default_rng(8).choice(
        np.array([np.inf, -np.inf, np.nan, 1.5, -2.0], dtype=np.float32), size=argmax.shape)
    leaf = Tensor(x, requires_grad=True)
    with np.errstate(invalid="ignore"):   # inf − inf where windows overlap
        expected = oracle_backward(argmax, grad, x.shape, kernel, stride, padding)
        leaf.max_pool2d(kernel, stride=stride, padding=padding).backward(grad)
    assert_same_bits(leaf.grad, expected)


@pytest.mark.parametrize("kernel,stride,padding", CASES)
def test_saved_index_is_one_byte_per_output_element(kernel, stride, padding):
    x = signed_zero_input(seed=3)
    expected, argmax = oracle_pool(x, kernel, stride, padding)
    out = Tensor(x, requires_grad=True).max_pool2d(kernel, stride=stride, padding=padding)
    (index,) = out._ctx.saved_tensors
    assert index.dtype == np.uint8 and index.shape == expected.shape
    np.testing.assert_array_equal(index, argmax)


def test_index_widens_past_256_window_positions():
    x = np.random.default_rng(4).standard_normal((1, 2, 17, 17)).astype(np.float32)
    out, index = conv_ops.window_max(x, 17, 17, (1, 1), (0, 0), with_index=True)
    expected, argmax = oracle_pool(x, 17, 1, 0)
    assert_same_bits(out, expected)
    assert index.dtype.itemsize > 1
    np.testing.assert_array_equal(index, argmax)


@pytest.mark.parametrize("kernel,stride,padding", CASES)
def test_integer_windows_are_exact(kernel, stride, padding):
    """The secure path runs the same kernel on fixed-point int64 shares."""
    q = np.random.default_rng(5).integers(-2**40, 2**40, size=(2, 3, 9, 10))
    kh, kw, stride_pair, padding_pair = geometry(kernel, stride, padding)
    n, c = q.shape[:2]
    oh = conv_ops.conv_output_size(9, kh, stride_pair[0], padding_pair[0])
    ow = conv_ops.conv_output_size(10, kw, stride_pair[1], padding_pair[1])
    cols = conv_ops.im2col(q, kh, kw, stride_pair, padding_pair)
    expected = cols.reshape(n, c, kh * kw, oh, ow).max(axis=2)
    assert_same_bits(conv_ops.window_max(q, kh, kw, stride_pair, padding_pair), expected)


def test_node_backend_and_secure_pool_call_the_one_kernel(monkeypatch):
    calls = []
    real = conv_ops.window_max

    def counting(*args, **kwargs):
        calls.append(kwargs.get("with_index", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(conv_ops, "window_max", counting)
    monkeypatch.setattr(backends_base, "window_max", counting)
    monkeypatch.setattr(ppml_runtime, "window_max", counting)
    x = signed_zero_input(seed=6)
    Tensor(x, requires_grad=True).max_pool2d(2)
    get_backend("numpy").maxpool(x, 2, None, 0)
    ppml_runtime.secure_compile(nn.Sequential(nn.MaxPool2d(2))).run(x[:1])
    assert calls == [True, False, False]
