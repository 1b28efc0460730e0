"""Element-wise differentiable primitives (arithmetic and pointwise math).

All operations support NumPy broadcasting; gradients are reduced back to the
operand shapes with :func:`repro.autodiff.function.unbroadcast`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..function import Context, Function, unbroadcast


class Add(Function):
    """``out = a + b`` with broadcasting."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.a_shape, ctx.b_shape = np.shape(a), np.shape(b)
        return a + b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (
            unbroadcast(grad, ctx.a_shape) if ctx.needs_input_grad[0] else None,
            unbroadcast(grad, ctx.b_shape) if ctx.needs_input_grad[1] else None,
        )


class Sub(Function):
    """``out = a - b`` with broadcasting."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.a_shape, ctx.b_shape = np.shape(a), np.shape(b)
        return a - b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (
            unbroadcast(grad, ctx.a_shape) if ctx.needs_input_grad[0] else None,
            unbroadcast(-grad, ctx.b_shape) if ctx.needs_input_grad[1] else None,
        )


class Mul(Function):
    """``out = a * b`` (Hadamard product) with broadcasting.

    This primitive is the computational heart of the paper's quadratic neuron:
    the second-order term ``(Wa X) ∘ (Wb X)`` is a Hadamard product of two
    first-order responses (paper Eq. 2, design insight 3).
    """

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(np.asarray(a), np.asarray(b))
        return a * b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved_tensors
        ga = unbroadcast(grad * b, a.shape) if ctx.needs_input_grad[0] else None
        gb = unbroadcast(grad * a, b.shape) if ctx.needs_input_grad[1] else None
        return ga, gb


class Div(Function):
    """``out = a / b`` with broadcasting."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(np.asarray(a), np.asarray(b))
        return a / b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved_tensors
        ga = unbroadcast(grad / b, a.shape) if ctx.needs_input_grad[0] else None
        gb = (
            unbroadcast(-grad * a / (b * b), b.shape)
            if ctx.needs_input_grad[1]
            else None
        )
        return ga, gb


class Neg(Function):
    """``out = -a``."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        return -a

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (-grad,)


class Pow(Function):
    """``out = a ** exponent`` for a scalar exponent.

    The quadratic T2/T3 neuron designs square activations directly; this is
    the primitive they lower to.
    """

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, exponent: float) -> np.ndarray:
        ctx.exponent = float(exponent)
        ctx.save_for_backward(np.asarray(a))
        return a ** ctx.exponent

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (a,) = ctx.saved_tensors
        p = ctx.exponent
        ga = grad * p * (a ** (p - 1.0))
        return (ga, None)


class Exp(Function):
    """``out = exp(a)``."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.exp(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved_tensors
        return (grad * out,)


class Log(Function):
    """``out = ln(a)``."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(np.asarray(a))
        return np.log(a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (a,) = ctx.saved_tensors
        return (grad / a,)


class Sqrt(Function):
    """``out = sqrt(a)``."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.sqrt(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved_tensors
        return (grad / (2.0 * out),)


class Abs(Function):
    """``out = |a|`` (sub-gradient 0 at the kink)."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(np.sign(a))
        return np.abs(a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (sign,) = ctx.saved_tensors
        return (grad * sign,)


def relu(a: np.ndarray, out: Optional[np.ndarray] = None, ops=np) -> np.ndarray:
    """``max(a, 0)`` with one answer on every platform: the ReLU kernel.

    Every ``a <= 0``, ``-inf`` and ``-0.0`` included, gives ``+0.0``, and NaN
    stays NaN.  ``np.maximum``'s pick between a tied ``-0.0`` and ``+0.0``
    is the platform's (and may differ between its vector body and scalar
    tail), so the result then adds ``+0.0``, which turns ``-0.0`` into
    ``+0.0`` and leaves every other value as it is.  The eager node and the
    compiled step both call it; ``ops`` supplies ``maximum``/``add``.
    """
    zero = np.zeros((), dtype=a.dtype)
    out = ops.maximum(a, zero, out=out)
    return ops.add(out, zero, out=out)


class ReLU(Function):
    """Rectified linear unit: ``out = max(a, 0)`` (see :func:`relu`)."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save_for_backward(a > 0)
        return relu(a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (mask,) = ctx.saved_tensors
        return (grad * mask,)


class LeakyReLU(Function):
    """Leaky ReLU with configurable negative slope."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
        mask = a > 0
        ctx.negative_slope = float(negative_slope)
        ctx.save_for_backward(mask)
        return np.where(mask, a, negative_slope * a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (mask,) = ctx.saved_tensors
        return (np.where(mask, grad, ctx.negative_slope * grad), None)


class Sigmoid(Function):
    """Logistic sigmoid."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-a))
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved_tensors
        return (grad * out * (1.0 - out),)


class Tanh(Function):
    """Hyperbolic tangent."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        ctx.save_for_backward(out)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (out,) = ctx.saved_tensors
        return (grad * (1.0 - out * out),)


class Clip(Function):
    """Clamp values to ``[low, high]``; gradients vanish outside the range."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, low: float, high: float) -> np.ndarray:
        mask = (a >= low) & (a <= high)
        ctx.save_for_backward(mask)
        return np.clip(a, low, high)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (mask,) = ctx.saved_tensors
        return (grad * mask, None, None)


class Maximum(Function):
    """Element-wise maximum of two arrays (ties split evenly)."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        ctx.save_for_backward((a > b).astype(a.dtype) + 0.5 * (a == b))
        return np.maximum(a, b)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (wa,) = ctx.saved_tensors
        ga = unbroadcast(grad * wa, ctx.a_shape) if ctx.needs_input_grad[0] else None
        gb = unbroadcast(grad * (1.0 - wa), ctx.b_shape) if ctx.needs_input_grad[1] else None
        return ga, gb


class Minimum(Function):
    """Element-wise minimum of two arrays (ties split evenly)."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        ctx.a_shape, ctx.b_shape = a.shape, b.shape
        ctx.save_for_backward((a < b).astype(a.dtype) + 0.5 * (a == b))
        return np.minimum(a, b)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (wa,) = ctx.saved_tensors
        ga = unbroadcast(grad * wa, ctx.a_shape) if ctx.needs_input_grad[0] else None
        gb = unbroadcast(grad * (1.0 - wa), ctx.b_shape) if ctx.needs_input_grad[1] else None
        return ga, gb


class Where(Function):
    """Select from ``a`` where ``cond`` is true, otherwise from ``b``."""

    @staticmethod
    def forward(ctx: Context, cond: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        cond = np.asarray(cond, dtype=bool)
        ctx.a_shape, ctx.b_shape = np.shape(a), np.shape(b)
        ctx.save_for_backward(cond)
        return np.where(cond, a, b)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (cond,) = ctx.saved_tensors
        ga = unbroadcast(grad * cond, ctx.a_shape) if ctx.needs_input_grad[1] else None
        gb = unbroadcast(grad * ~cond, ctx.b_shape) if ctx.needs_input_grad[2] else None
        return None, ga, gb
