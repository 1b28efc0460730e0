"""Quadratic convolution layers.

``QuadraticConv2d`` supports every non-full-rank neuron type from Table 1:
each first-order projection is an ordinary grouped convolution and the
responses are combined by Hadamard products and sums — the paper's
implementation-feasibility recipe (P4).  The whole layer trains as one
autograd node, :class:`QuadraticConv2dFunction`, whose backward is derived by
hand: one lowering of the input, stacked GEMMs for the weight and input
gradients and a single scatter.  Hybrid back-propagation (paper Sec. 4.3,
:mod:`repro.quadratic.layers.hybrid`) is the same node with a recompute
policy.  ``QuadraticConv2dT1`` implements the full-rank bilinear convolution
(Cheung & Leung / Mantini & Shah style) whose parameter count grows with the
*square* of the patch size; it exists so the memory-explosion numbers of P2
and Fig. 5 can be measured rather than assumed.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ...autodiff.function import Context, Function
from ...autodiff.tensor import cat as _cat, einsum as _einsum
from ...autodiff.ops.conv import (col2im_channel_major, conv2d_raw, conv_output_size,
                                  gemm_rows, im2col_channel_major)
from ...autodiff.tensor import Tensor
from ...nn import functional as F
from ...nn import init
from ...nn.parameter import Parameter
from ..functional import COMBINE_BACKWARDS, COMBINE_READS, FUSED_COMBINERS, REQUIRED_RESPONSES
from .base import QuadraticLayerBase

IntOrPair = Union[int, Tuple[int, int]]


def _pair(value: IntOrPair) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


class QuadraticConv2dFunction(Function):
    """A composable quadratic convolution as one autograd node.

    ``apply(x, *weights, bias, neuron_type=, stride=, padding=, groups=,
    recompute=)`` takes one weight per projection of the type's
    ``REQUIRED_RESPONSES`` (the ``id`` path has none), in that order, then the
    bias or ``None``.

    Forward runs each projection through :func:`conv2d_raw` — the arithmetic
    of ``Conv2d.forward`` — and combines the responses with
    ``FUSED_COMBINERS``, so its output is bit-identical to the composed graph
    and to the compiled plan.  It saves ``x``, the weights and the responses
    the combination's backward reads (``COMBINE_READS``); with ``recompute``
    (hybrid back-propagation) only ``x`` and the weights, and backward
    recomputes those responses.

    Backward lowers ``x`` once, channel-major, through the helpers
    ``Conv2d.backward`` also calls.  Every response gradient comes from
    ``COMBINE_BACKWARDS``; the weight gradients of the projections that share
    a lowering come from one GEMM over their stacked response gradients, and
    their contribution to the input gradient from one GEMM over their stacked
    weights.  The squared-input projection reads ``cols²`` (``im2col(x²) ==
    im2col(x)²``) and its input-gradient block is multiplied by ``2·cols``;
    one ``col2im`` scatters the sum back to image space.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, *params: np.ndarray, neuron_type: str,
                stride: Tuple[int, int], padding: Tuple[int, int], groups: int,
                recompute: bool) -> np.ndarray:
        required = REQUIRED_RESPONSES[neuron_type]
        kinds = tuple(kind for kind in required if kind != "id")
        weights, bias = params[:-1], params[-1]
        responses = {"id": x}
        for kind, weight in zip(kinds, weights):
            source = x * x if kind == "sq" else x
            responses[kind] = conv2d_raw(source, weight, stride, padding, groups)
        out = FUSED_COMBINERS[neuron_type](*(responses[kind] for kind in required))
        if bias is not None:
            out += bias.reshape(1, -1, 1, 1)
        ctx.neuron_type, ctx.kinds, ctx.recompute = neuron_type, kinds, recompute
        ctx.stride, ctx.padding, ctx.groups = stride, padding, groups
        reads = () if recompute else [responses[kind] for kind in COMBINE_READS[neuron_type]]
        ctx.save_for_backward(x, *weights, *reads)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        kinds, groups = ctx.kinds, ctx.groups
        x, *saved = ctx.saved_tensors
        weights, reads = saved[:len(kinds)], saved[len(kinds):]
        n = x.shape[0]
        f, c_g, kh, kw = weights[0].shape
        fg = f // groups
        grad = np.ascontiguousarray(grad)
        oh, ow = grad.shape[2], grad.shape[3]
        cols = im2col_channel_major(x, kh, kw, ctx.stride, ctx.padding, groups)
        wmats = {kind: weight.reshape(groups, fg, c_g * kh * kw)
                 for kind, weight in zip(kinds, weights)}
        if ctx.recompute:
            reads = [np.matmul(wmats[kind], cols).reshape(f, n, oh, ow).transpose(1, 0, 2, 3)
                     for kind in COMBINE_READS[ctx.neuron_type]]
        required = REQUIRED_RESPONSES[ctx.neuron_type]
        response_grads = dict(zip(required, COMBINE_BACKWARDS[ctx.neuron_type](grad, *reads)))

        needs = ctx.needs_input_grad                  # (x, *weights, bias)
        plain = tuple(kind for kind in kinds if kind != "sq")
        blocks = [(plain, cols)] if plain else []
        if "sq" in kinds:
            blocks.append((("sq",), cols * cols))
        weight_grads = {}
        cols_grad = None
        for block, source in blocks:
            rows = gemm_rows([response_grads[kind] for kind in block], groups)
            if any(needs[1 + kinds.index(kind)] for kind in block):
                gw = np.matmul(rows, source.transpose(0, 2, 1))
                for index, kind in enumerate(block):
                    weight_grads[kind] = gw[:, index * fg:(index + 1) * fg].reshape(f, c_g, kh, kw)
            if needs[0]:
                wstack = np.concatenate([wmats[kind] for kind in block], axis=1)
                part = np.matmul(wstack.transpose(0, 2, 1), rows)
                if block == ("sq",):
                    part *= cols
                    part *= 2.0
                cols_grad = part if cols_grad is None else np.add(cols_grad, part, out=cols_grad)

        gx = None
        if needs[0]:
            gx = col2im_channel_major(cols_grad, x.shape, kh, kw, ctx.stride, ctx.padding)
            if "id" in response_grads:
                gx += response_grads["id"]
        gbias = grad.sum(axis=(0, 2, 3)) if needs[-1] else None
        return (gx, *(weight_grads.get(kind) for kind in kinds), gbias)


class QuadraticConv2d(QuadraticLayerBase):
    """Quadratic convolution over NCHW tensors for composable neuron types.

    The supported types are T2, T3, T4, T4_ID, T2_4 (Fan et al.) and OURS —
    i.e. every design that decomposes into first-order convolutions plus
    element-wise operations.  Use :class:`QuadraticConv2dT1` for the
    full-rank T1 family.  The layer trains as one
    :class:`QuadraticConv2dFunction` node that keeps the responses its
    combination's backward reads; the hybrid-BP subclasses set
    :attr:`recompute` to keep only the input and the weights instead.

    Parameters
    ----------
    in_channels, out_channels, kernel_size, stride, padding, groups :
        As in :class:`repro.nn.Conv2d`.
    neuron_type : str
        Canonical name or alias of the quadratic design.
    bias : bool
        Learn an additive per-channel bias applied after combination.
    """

    #: Recompute the responses in backward instead of keeping them (hybrid BP).
    recompute = False

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrPair = 3,
                 stride: IntOrPair = 1, padding: IntOrPair = 0, groups: int = 1,
                 neuron_type: str = "OURS", bias: bool = True) -> None:
        super().__init__(neuron_type)
        if "bilinear" in self.required:
            raise ValueError(
                f"neuron type {self.neuron_type} needs a full-rank bilinear term; "
                "use QuadraticConv2dT1 instead"
            )
        if in_channels % groups or out_channels % groups:
            raise ValueError(
                f"channels ({in_channels}->{out_channels}) must be divisible by groups ({groups})"
            )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        self.groups = int(groups)
        kh, kw = self.kernel_size
        wshape = (out_channels, in_channels // groups, kh, kw)

        if "a" in self.required:
            self.weight_a = Parameter(init.kaiming_normal(wshape))
        if "b" in self.required:
            self.weight_b = Parameter(init.kaiming_normal(wshape))
        if "c" in self.required:
            self.weight_c = Parameter(init.kaiming_normal(wshape, gain=1.0))
        if "sq" in self.required:
            self.weight_sq = Parameter(init.kaiming_normal(wshape))
        if "id" in self.required:
            if in_channels != out_channels or self.stride != (1, 1):
                raise ValueError(
                    "T4_ID requires matching channels and stride 1 so the raw input "
                    "can be added; use neuron_type='OURS' otherwise"
                )
            if any(2 * p != k - 1 for p, k in zip(self.padding, self.kernel_size)):
                fix = (f"padding={tuple((k - 1) // 2 for k in self.kernel_size)}"
                       if all(k % 2 for k in self.kernel_size) else "an odd kernel_size")
                raise ValueError(
                    f"T4_ID adds the raw input, so its convolution must keep H×W; "
                    f"kernel_size={self.kernel_size} with padding={self.padding} does not: "
                    f"use {fix}, or neuron_type='OURS'"
                )
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        weights = [getattr(self, f"weight_{kind}") for kind in self.required if kind != "id"]
        return QuadraticConv2dFunction.apply(
            x, *weights, self.bias, neuron_type=self.neuron_type, stride=self.stride,
            padding=self.padding, groups=self.groups, recompute=self.recompute)

    def output_shape(self, input_hw: Tuple[int, int]) -> Tuple[int, int]:
        """Spatial output size for a given input size (used by the profiler)."""
        h, w = input_hw
        kh, kw = self.kernel_size
        return (
            conv_output_size(h, kh, self.stride[0], self.padding[0]),
            conv_output_size(w, kw, self.stride[1], self.padding[1]),
        )

    def extra_repr(self) -> str:
        return (f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
                f"stride={self.stride}, padding={self.padding}, type={self.neuron_type}, "
                f"bias={self.bias is not None}")


class QuadraticConv2dT1(QuadraticLayerBase):
    """Full-rank bilinear convolution: each output filter applies ``pᵀ W p`` to
    every im2col patch ``p`` of size ``C·kh·kw``.

    The weight tensor has shape ``(F, K, K)`` with ``K = C·kh·kw``, i.e. the
    parameter count is quadratic in the patch size — the O(n²) column of
    Table 1 and the reason Mantini & Shah's ResNet balloons from 0.2 M to
    128 M parameters (paper P2).  The optional ``linear_term`` adds ``Wb X``
    (Cheung & Leung's original formulation).
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrPair = 3,
                 stride: IntOrPair = 1, padding: IntOrPair = 0,
                 neuron_type: str = "T1_PURE", bias: bool = True) -> None:
        super().__init__(neuron_type)
        if "bilinear" not in self.required:
            raise ValueError(
                f"{self.neuron_type} is not a full-rank design; use QuadraticConv2d"
            )
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel_size
        patch = in_channels * kh * kw
        self.patch_size = patch
        self.weight_bilinear = Parameter(
            init.kaiming_normal((out_channels, patch, patch), gain=1.0 / max(patch, 1) ** 0.5)
        )
        if "b" in self.required:
            self.weight_b = Parameter(init.kaiming_normal((out_channels, in_channels, kh, kw)))
        if "sq" in self.required:
            self.weight_sq = Parameter(init.kaiming_normal((out_channels, in_channels, kh, kw)))
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_channels,))) if bias else None

    def project(self, x: Tensor, kind: str) -> Tensor:
        if kind == "bilinear":
            return self._bilinear(x)
        if kind == "b":
            return F.conv2d(x, self.weight_b, None, stride=self.stride, padding=self.padding)
        if kind == "sq":
            return F.conv2d(x * x, self.weight_sq, None, stride=self.stride, padding=self.padding)
        raise KeyError(f"unknown projection kind '{kind}'")

    def _bilinear(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        kh, kw = self.kernel_size
        oh = conv_output_size(h, kh, self.stride[0], self.padding[0])
        ow = conv_output_size(w, kw, self.stride[1], self.padding[1])
        # Patches as a differentiable unfold: (N, C*kh*kw, OH*OW).  The unfold
        # is assembled from GetItem slices so gradients flow back into x.
        padded = x.pad2d((self.padding[1], self.padding[1], self.padding[0], self.padding[0]))
        patches = []
        for i in range(kh):
            for j in range(kw):
                sl = padded[:, :, i:i + self.stride[0] * oh:self.stride[0],
                            j:j + self.stride[1] * ow:self.stride[1]]
                patches.append(sl.reshape(n, c, oh * ow))
        cols = _cat(patches, axis=1)                       # (N, K, L) with K = C*kh*kw
        # pᵀ W p for every filter: two einsum contractions.
        partial = _einsum("fkq,nql->nfkl", self.weight_bilinear, cols)   # (N, F, K, L)
        out = (partial * cols.unsqueeze(1)).sum(axis=2)                    # (N, F, L)
        return out.reshape(n, self.out_channels, oh, ow)

    def post_combine(self, out: Tensor) -> Tensor:
        if self.bias is not None:
            out = out + self.bias.reshape((1, self.out_channels, 1, 1))
        return out

    def extra_repr(self) -> str:
        return (f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
                f"patch={self.patch_size}, type={self.neuron_type}")
