"""Batch normalisation as one autograd node.

Composed from primitives, a BatchNorm is a ``Sub``/``Mul``/``Mean``/``Pow``/
``Add`` graph that caches three full-size copies of its input for backward.
The paper's design insight 2 puts a BatchNorm after every quadratic layer, so
that graph was a large share of a QDNN's training memory.  This node runs
the same forward operations in the same order (outputs and running
statistics keep their bits), caches only the normalised input ``x̂`` and the
per-channel ``(var + eps)^-½``, and differentiates in closed form.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..function import Context, Function


def stat_axes(ndim: int) -> Tuple[int, ...]:
    """The axes BatchNorm reduces over: every axis of (N, C, ...) but 1."""
    return (0,) + tuple(range(2, ndim))


class BatchNorm(Function):
    """``out = (x − mean)·(var + eps)^-½·w + b`` per channel (axis 1).

    ``x`` is (N, C, ...); ``weight`` and ``bias`` are (C,).  With
    ``training`` set, mean and (biased) variance are the batch statistics
    over every axis but 1, and the running buffers, when given, are updated
    in place with ``momentum`` from the batch mean and the unbiased batch
    variance, as PyTorch does.  Otherwise the running statistics normalise.

    Backward, with ``x̂ = (x − mean)·inv_std`` and ``M`` elements per channel:
    ``gw = Σ g·x̂``, ``gb = Σ g``; with batch statistics
    ``gx = w·inv_std·(g − Σg/M − x̂·Σ(g·x̂)/M)``, with given ones
    ``gx = g·w·inv_std``.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                running_mean: Optional[np.ndarray] = None,
                running_var: Optional[np.ndarray] = None, training: bool = True,
                momentum: float = 0.1, eps: float = 1e-5) -> np.ndarray:
        shape = (1, x.shape[1]) + (1,) * (x.ndim - 2)
        if training:
            axes = stat_axes(x.ndim)
            mean = x.mean(axis=axes, keepdims=True)
            xhat = x - mean                               # x − mean; x̂ in place below
            squares = np.multiply(xhat, xhat)
            var = squares.mean(axis=axes, keepdims=True)
            if running_mean is not None:
                # Unbiased variance for the running estimate, like PyTorch.
                count = x.size / x.shape[1]
                unbiased = var.reshape(-1) * count / max(count - 1, 1)
                running_mean[...] = (1 - momentum) * running_mean + momentum * mean.reshape(-1)
                running_var[...] = (1 - momentum) * running_var + momentum * unbiased
        else:
            xhat = x - running_mean.reshape(shape)
            var = running_var.reshape(shape)
            squares = None
        inv_std = (var + np.asarray(eps, dtype=var.dtype)) ** -0.5
        np.multiply(xhat, inv_std, out=xhat)
        out = np.multiply(xhat, weight.reshape(shape), out=squares)  # reuses their buffer
        np.add(out, bias.reshape(shape), out=out)
        ctx.training = training
        ctx.save_for_backward(xhat, inv_std, weight)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        xhat, inv_std, weight = ctx.saved_tensors
        grad = np.asarray(grad)
        axes = stat_axes(grad.ndim)
        gx = np.multiply(grad, xhat)                      # g·x̂, then gx in place
        sum_gxhat = gx.sum(axis=axes, keepdims=True)
        sum_g = grad.sum(axis=axes, keepdims=True)
        scale = weight.reshape(inv_std.shape) * inv_std
        if ctx.training:
            count = grad.size / grad.shape[1]
            np.multiply(xhat, sum_gxhat / count, out=gx)
            np.subtract(grad, gx, out=gx)
            np.subtract(gx, sum_g / count, out=gx)
            np.multiply(gx, scale, out=gx)
        else:
            np.multiply(grad, scale, out=gx)
        return gx, sum_gxhat.reshape(-1), sum_g.reshape(-1), None, None
