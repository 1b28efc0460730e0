"""Hybrid back-propagation quadratic layers (the paper's quadratic optimizer).

A composed quadratic layer — three convolutions plus a Hadamard product —
caches each node's inputs for the backward pass; in particular the Hadamard
product keeps *both* first-order responses ``Wa X`` and ``Wb X`` alive for the
whole forward/backward round trip, which is exactly the extra intermediate
memory the paper's P6 complains about.

The hybrid scheme (paper Sec. 4.3) instead treats the whole quadratic layer
as a *single* autograd node whose backward pass is written symbolically:

.. math::

    \\partial L/\\partial W_a = (\\partial L/\\partial X^{k+1} \\odot W_b X)\\; X^T

so only the layer input ``X`` and the weights need to be cached, and the two
first-order responses are recomputed on demand during backward.  Everything
outside quadratic layers (BatchNorm, pooling, losses) still uses ordinary AD —
hence *hybrid*.

Every :class:`~repro.quadratic.QuadraticConv2d` already trains as that single
node (:class:`~repro.quadratic.layers.qconv.QuadraticConv2dFunction`), keeping
the responses its backward reads.  The hybrid convolutions below are the same
node with the recompute policy: same parameters, state-dict keys, forward bits
and gradients (up to float32 summation order), lower training memory
(measured by ``bench_fig8_hybrid_bp``).  ``HybridQuadraticLinear`` is the
dense counterpart of the ``OURS`` design, with its own symbolic node.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ...autodiff.function import Context, Function
from ...autodiff.tensor import Tensor
from ...nn import init
from ...nn.module import Module
from ...nn.parameter import Parameter
from .qconv import QuadraticConv2d

IntOrPair = Union[int, Tuple[int, int]]


class _HybridQuadraticConv2d(QuadraticConv2d):
    """``QuadraticConv2d`` of a fixed design that recomputes its responses in backward."""

    recompute = True
    design = "OURS"

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrPair = 3,
                 stride: IntOrPair = 1, padding: IntOrPair = 0, groups: int = 1,
                 bias: bool = True) -> None:
        super().__init__(in_channels, out_channels, kernel_size=kernel_size, stride=stride,
                         padding=padding, groups=groups, neuron_type=self.design, bias=bias)

    def extra_repr(self) -> str:
        return f"{super().extra_repr()}, hybrid_bp=True"


class HybridQuadraticConv2d(_HybridQuadraticConv2d):
    """Memory-efficient drop-in for ``QuadraticConv2d(neuron_type='OURS')``."""


class HybridQuadraticConv2dT4(_HybridQuadraticConv2d):
    """Memory-efficient drop-in for ``QuadraticConv2d(neuron_type='T4')``."""

    design = "T4"


class HybridQuadraticConv2dFan(_HybridQuadraticConv2d):
    """Memory-efficient drop-in for ``QuadraticConv2d(neuron_type='T2_4')`` (Fan et al.).

    The design of the paper's Fig. 5/Fig. 8 memory study; backward recomputes
    both first-order responses from ``x``, and the squared-input projection's
    gradients come from the same lowering, squared.
    """

    design = "T2_4"


# --------------------------------------------------------------------------- #
# Dense variant
# --------------------------------------------------------------------------- #

class HybridQuadraticLinearFunction(Function):
    """``out = (x Waᵀ) ∘ (x Wbᵀ) + x Wcᵀ + bias`` as a single autograd node."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, wa: np.ndarray, wb: np.ndarray,
                wc: np.ndarray, bias: Optional[np.ndarray] = None) -> np.ndarray:
        a = x @ wa.T
        b = x @ wb.T
        out = a * b + x @ wc.T
        if bias is not None:
            out += bias
        ctx.has_bias = bias is not None
        ctx.save_for_backward(x, wa, wb, wc)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, wa, wb, wc = ctx.saved_tensors
        a = x @ wa.T
        b = x @ wb.T
        grad_a = grad * b
        grad_b = grad * a
        gx = gwa = gwb = gwc = gbias = None
        if ctx.needs_input_grad[0]:
            gx = grad_a @ wa + grad_b @ wb + grad @ wc
        if ctx.needs_input_grad[1]:
            gwa = grad_a.T @ x
        if ctx.needs_input_grad[2]:
            gwb = grad_b.T @ x
        if ctx.needs_input_grad[3]:
            gwc = grad.T @ x
        if ctx.has_bias and len(ctx.needs_input_grad) > 4 and ctx.needs_input_grad[4]:
            gbias = grad.sum(axis=0)
        return gx, gwa, gwb, gwc, gbias


class HybridQuadraticLinear(Module):
    """Memory-efficient drop-in for ``QuadraticLinear(neuron_type='OURS')``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        shape = (out_features, in_features)
        self.weight_a = Parameter(init.kaiming_uniform(shape))
        self.weight_b = Parameter(init.kaiming_uniform(shape))
        self.weight_c = Parameter(init.kaiming_uniform(shape, gain=1.0))
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_features,))) if bias else None
        self.neuron_type = "OURS"

    def forward(self, x: Tensor) -> Tensor:
        args = [x, self.weight_a, self.weight_b, self.weight_c]
        if self.bias is not None:
            args.append(self.bias)
        return HybridQuadraticLinearFunction.apply(*args)

    def extra_repr(self) -> str:
        return (f"in_features={self.in_features}, out_features={self.out_features}, "
                f"hybrid_bp=True")
