"""Reduction primitives: sum, mean, max, min, variance helpers."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..function import Context, Function

Axis = Optional[Union[int, Tuple[int, ...]]]


def _normalize_axis(axis: Axis, ndim: int) -> Optional[Tuple[int, ...]]:
    """Convert any accepted ``axis`` argument into a tuple of positive ints."""
    if axis is None:
        return None
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    return tuple(a % ndim for a in axis)


def _expand_reduced(grad: np.ndarray, shape: Tuple[int, ...], axis: Optional[Tuple[int, ...]],
                    keepdims: bool) -> np.ndarray:
    """Re-insert reduced axes so ``grad`` broadcasts against the input shape."""
    if axis is None:
        return np.broadcast_to(grad, shape)
    if not keepdims:
        for a in sorted(axis):
            grad = np.expand_dims(grad, a)
    return np.broadcast_to(grad, shape)


class Sum(Function):
    """``out = a.sum(axis, keepdims)``."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis: Axis = None, keepdims: bool = False) -> np.ndarray:
        ctx.a_shape = a.shape
        ctx.axis = _normalize_axis(axis, a.ndim)
        ctx.keepdims = keepdims
        return a.sum(axis=ctx.axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        g = _expand_reduced(np.asarray(grad), ctx.a_shape, ctx.axis, ctx.keepdims)
        return (np.ascontiguousarray(g), None, None)


class Mean(Function):
    """``out = a.mean(axis, keepdims)``.

    The sum runs over C-contiguous memory, so its bits do not depend on the
    order ``a`` arrived in: a global pool over a convolution's batch-innermost
    output sums H×W as the compiled plan's NCHW step does.
    """

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis: Axis = None, keepdims: bool = False) -> np.ndarray:
        ctx.a_shape = a.shape
        ctx.axis = _normalize_axis(axis, a.ndim)
        ctx.keepdims = keepdims
        if ctx.axis is None:
            ctx.count = a.size
        else:
            ctx.count = int(np.prod([a.shape[i] for i in ctx.axis]))
        return np.ascontiguousarray(a).mean(axis=ctx.axis, keepdims=keepdims)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        g = _expand_reduced(np.asarray(grad), ctx.a_shape, ctx.axis, ctx.keepdims)
        return (np.ascontiguousarray(g) / ctx.count, None, None)


class Max(Function):
    """``out = a.max(axis, keepdims)``; gradient routed to (all) argmax entries."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis: Axis = None, keepdims: bool = False) -> np.ndarray:
        ctx.a_shape = a.shape
        ctx.axis = _normalize_axis(axis, a.ndim)
        ctx.keepdims = keepdims
        out = a.max(axis=ctx.axis, keepdims=True) if ctx.axis is not None else a.max()
        mask = (a == out).astype(a.dtype)
        mask /= mask.sum(axis=ctx.axis, keepdims=True)
        ctx.save_for_backward(mask)
        if ctx.axis is None:
            return np.asarray(out)
        return out if keepdims else np.squeeze(out, axis=ctx.axis)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (mask,) = ctx.saved_tensors
        g = _expand_reduced(np.asarray(grad), ctx.a_shape, ctx.axis, ctx.keepdims)
        return (g * mask, None, None)


class Min(Function):
    """``out = a.min(axis, keepdims)``; gradient routed to (all) argmin entries."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis: Axis = None, keepdims: bool = False) -> np.ndarray:
        ctx.a_shape = a.shape
        ctx.axis = _normalize_axis(axis, a.ndim)
        ctx.keepdims = keepdims
        out = a.min(axis=ctx.axis, keepdims=True) if ctx.axis is not None else a.min()
        mask = (a == out).astype(a.dtype)
        mask /= mask.sum(axis=ctx.axis, keepdims=True)
        ctx.save_for_backward(mask)
        if ctx.axis is None:
            return np.asarray(out)
        return out if keepdims else np.squeeze(out, axis=ctx.axis)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (mask,) = ctx.saved_tensors
        g = _expand_reduced(np.asarray(grad), ctx.a_shape, ctx.axis, ctx.keepdims)
        return (g * mask, None, None)


class LogSumExp(Function):
    """Numerically stable ``log(sum(exp(a), axis))`` used by the softmax losses."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis: int = -1, keepdims: bool = False) -> np.ndarray:
        ctx.axis = axis if axis >= 0 else a.ndim + axis
        ctx.keepdims = keepdims
        ctx.a_shape = a.shape
        m = a.max(axis=ctx.axis, keepdims=True)
        shifted = a - m
        sumexp = np.exp(shifted).sum(axis=ctx.axis, keepdims=True)
        out = m + np.log(sumexp)
        ctx.save_for_backward(np.exp(shifted) / sumexp)  # softmax along axis
        return out if keepdims else np.squeeze(out, axis=ctx.axis)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (softmax,) = ctx.saved_tensors
        g = np.asarray(grad)
        if not ctx.keepdims:
            g = np.expand_dims(g, ctx.axis)
        return (g * softmax, None, None)
