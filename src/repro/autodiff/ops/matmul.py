"""Matrix-multiplication primitives (2-D and batched)."""

from __future__ import annotations

import numpy as np

from ..function import Context, Function, unbroadcast


class MatMul(Function):
    """``out = a @ b`` supporting 1-D, 2-D and batched operands (NumPy semantics).

    The left operand is made C-contiguous first: a flattened batch-innermost
    activation is a transposed view, which BLAS may round differently from
    the C-contiguous one the compiled GEMM reads.
    """

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.ascontiguousarray(a), np.asarray(b)
        ctx.save_for_backward(a, b)
        return a @ b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved_tensors
        grad = np.asarray(grad)
        ga = gb = None

        if ctx.needs_input_grad[0]:
            if a.ndim == 1 and b.ndim == 1:
                ga = grad * b
            elif b.ndim == 1:
                # (..., n) @ (n,) -> (...,): each row's grad scales b.
                ga = np.expand_dims(grad, -1) * b
            elif a.ndim == 1:
                # (n,) @ (..., n, m) -> (..., m): sum over batch and columns.
                ga = unbroadcast(grad[..., None, :] @ np.swapaxes(b, -1, -2), (1, a.shape[0]))
                ga = ga.reshape(a.shape)
            else:
                ga = unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)

        if ctx.needs_input_grad[1]:
            if a.ndim == 1 and b.ndim == 1:
                gb = grad * a
            elif a.ndim == 1:
                # out[..., j] = sum_i a_i b[..., i, j]  =>  gb[..., i, j] = a_i grad[..., j]
                gb = a[:, None] * grad[..., None, :]
                gb = unbroadcast(gb, b.shape)
            elif b.ndim == 1:
                # out[...] = sum_j a[..., j] b_j  =>  gb_j = sum grad[...] a[..., j]
                gb = np.tensordot(grad, a, axes=(tuple(range(grad.ndim)),
                                                 tuple(range(a.ndim - 1))))
            else:
                gb = unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)

        return ga, gb


class Einsum(Function):
    """Differentiable ``einsum`` limited to two operands.

    The backward pass re-uses ``einsum`` by swapping the output subscript with
    the operand subscript being differentiated, which is valid whenever every
    index appearing in an operand also appears in either the other operand or
    the output (no internal sums hidden from the gradient).  That covers every
    contraction used inside this library (bilinear T1 neurons, attention-style
    reductions in the analysis tools).
    """

    @staticmethod
    def forward(ctx: Context, subscripts: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        ctx.subscripts = subscripts
        ctx.save_for_backward(a, b)
        return np.einsum(subscripts, a, b)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved_tensors
        in_spec, out_spec = ctx.subscripts.split("->")
        a_spec, b_spec = in_spec.split(",")
        ga = gb = None
        if ctx.needs_input_grad[1]:
            ga = np.einsum(f"{out_spec},{b_spec}->{a_spec}", grad, b)
        if ctx.needs_input_grad[2]:
            gb = np.einsum(f"{out_spec},{a_spec}->{b_spec}", grad, a)
        return None, ga, gb
