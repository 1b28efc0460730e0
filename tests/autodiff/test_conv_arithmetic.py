"""One convolution arithmetic: every grouped projection is an ``np.matmul``.

Eager ``Conv2d`` (forward and backward), each projection of a quadratic
convolution node and the compiled ``Backend.conv_project`` all run through
``np.matmul``.  These tests make ``np.einsum`` raise while those paths run.
First-order ``Conv2d`` is checked against the einsum formulas it used to run,
kept here as the oracle.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import nn
from repro.autodiff import Tensor
from repro.autodiff.ops.conv import col2im, im2col
from repro.backends import ThreadedBackend
from repro.inference import compile_model
from repro.quadratic import QuadraticConv2d

#: The real einsum, bound before any test patches ``np.einsum``.
EINSUM = np.einsum
RTOL = 1e-4
ATOL_OF_MAX = 1e-5


@pytest.fixture
def no_einsum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a convolution path called np.einsum")

    monkeypatch.setattr(np, "einsum", refuse)


def einsum_conv(x, w, b, stride, padding, groups, upstream):
    """Forward and the three gradients of a grouped convolution, by einsum."""
    n, c = x.shape[:2]
    f, c_g, kh, kw = w.shape
    cols = im2col(x, kh, kw, stride, padding)
    oh, ow = cols.shape[-2:]
    cols = cols.reshape(n, groups, c_g * kh * kw, oh * ow)
    wmat = w.reshape(groups, f // groups, c_g * kh * kw)
    out = EINSUM("gfk,ngko->ngfo", wmat, cols, optimize=True).reshape(n, f, oh, ow)
    if b is not None:
        out = out + b.reshape(1, f, 1, 1)
    grad_g = upstream.reshape(n, groups, f // groups, oh * ow)
    cols_grad = EINSUM("gfk,ngfo->ngko", wmat, grad_g, optimize=True)
    gx = col2im(cols_grad.reshape(n, c, kh, kw, oh, ow), x.shape, kh, kw, stride, padding)
    gw = EINSUM("ngfo,ngko->gfk", grad_g, cols, optimize=True).reshape(f, c_g, kh, kw)
    gb = upstream.sum(axis=(0, 2, 3)) if b is not None else None
    return out, gx, gw, gb


def assert_close(actual, reference, name, rtol=RTOL, atol_of_max=ATOL_OF_MAX):
    atol = atol_of_max * float(np.abs(reference).max())
    np.testing.assert_allclose(actual, reference, rtol=rtol, atol=atol, err_msg=name)


@pytest.mark.parametrize("groups,stride,padding,bias", [
    pytest.param(*case, id=f"g{case[0]}-s{case[1]}-p{case[2]}-{'bias' if case[3] else 'nobias'}")
    for case in itertools.product((1, 2), (1, 2), (0, 1), (True, False))
])
def test_conv2d_matches_the_einsum_oracle_without_einsum(no_einsum, groups, stride,
                                                         padding, bias):
    rng = np.random.default_rng(0)
    conv = nn.Conv2d(4, 6, 3, stride=stride, padding=padding, groups=groups, bias=bias)
    if bias:  # a zero bias would hide a wrong bias path
        conv.bias.data[...] = rng.standard_normal(6)
    x = Tensor(rng.standard_normal((2, 4, 7, 7)).astype(np.float32), requires_grad=True)
    out = conv(x)
    upstream = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(upstream)

    ref_out, ref_gx, ref_gw, ref_gb = einsum_conv(
        x.data, conv.weight.data, conv.bias.data if bias else None,
        conv.stride, conv.padding, groups, upstream)
    assert_close(out.data, ref_out, "forward", rtol=1e-5, atol_of_max=1e-6)
    assert_close(x.grad, ref_gx, "input grad")
    assert_close(conv.weight.grad, ref_gw, "weight grad")
    if bias:
        assert_close(conv.bias.grad, ref_gb, "bias grad")


@pytest.mark.parametrize("neuron_type", ["OURS", "T2_4"])
def test_quadratic_conv_trains_without_einsum(no_einsum, neuron_type):
    layer = QuadraticConv2d(4, 6, 3, stride=2, padding=1, groups=2, neuron_type=neuron_type)
    x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 7, 7)).astype(np.float32),
               requires_grad=True)
    layer(x).sum().backward()
    assert x.grad is not None
    assert all(p.grad is not None for p in layer.parameters())


@pytest.mark.parametrize("backend", ["numpy", "threaded"])
def test_compiled_forward_projects_without_einsum(no_einsum, backend):
    model = nn.Sequential(
        nn.Conv2d(8, 16, 3, padding=1),
        QuadraticConv2d(16, 16, 3, padding=1, groups=2, neuron_type="OURS"),
    )
    x = np.random.default_rng(2).standard_normal((4, 8, 16, 16)).astype(np.float32)
    # Two threads and a batch of 4 take the threaded backend's blocked route.
    engine = ThreadedBackend(num_threads=2) if backend == "threaded" else backend
    compiled = compile_model(model, backend=engine)
    assert not compiled.fallback_modules
    assert compiled(x).tobytes() == model(Tensor(x)).data.tobytes()
