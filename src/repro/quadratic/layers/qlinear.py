"""Quadratic fully-connected layers for every neuron type of Table 1.

A composable dense layer (T2, T3, T4, T4_ID, T2_4, OURS) trains as one
autograd node, :class:`QuadraticLinearFunction`, the dense counterpart of
:class:`~repro.quadratic.layers.qconv.QuadraticConv2dFunction`; hybrid
back-propagation (paper Sec. 4.3) is its :attr:`QuadraticLinear.recompute`
setting.  The full-rank T1 family keeps the composed autodiff graph.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ...autodiff.function import Context, Function
from ...autodiff.tensor import einsum as _einsum
from ...autodiff.tensor import Tensor
from ...nn import functional as F
from ...nn import init
from ...nn.parameter import Parameter
from ..functional import COMBINE_BACKWARDS, COMBINE_READS, FUSED_COMBINERS, REQUIRED_RESPONSES
from .base import QuadraticLayerBase


def _no_buffer(name: str, shape) -> None:
    return None


def quadratic_linear_rows(neuron_type: str, rows: np.ndarray,
                          weights_t: Dict[str, np.ndarray], bias: Optional[np.ndarray],
                          ops=np, gemm=np.matmul,
                          buffer: Callable[[str, tuple], Optional[np.ndarray]] = _no_buffer):
    """The forward of a composable dense quadratic layer over (M, in) rows.

    ``rows @ Wᵀ`` per projection (``weights_t`` maps each kind to ``Wᵀ``, in
    ``REQUIRED_RESPONSES`` order; the squared-input one projects
    ``rows²``), the type's fused combiner, then the bias add.  ``ops`` and
    ``gemm`` supply the arithmetic (NumPy, or a compute backend and its
    ``gemm``); ``buffer(name, shape)`` supplies the ``out=`` array of each
    intermediate (``"x_sq"``, one per kind, ``"out"``) or ``None`` to
    allocate.  Returns the (M, F) output and the responses by kind.  The
    autodiff node and the compiled step both call this, so eager and
    compiled outputs agree in bytes.
    """
    responses = {"id": rows}
    for kind, weight_t in weights_t.items():
        shape = (rows.shape[0], weight_t.shape[1])
        source = (ops.multiply(rows, rows, out=buffer("x_sq", rows.shape))
                  if kind == "sq" else rows)
        responses[kind] = gemm(source, weight_t, out=buffer(kind, shape))
    out = FUSED_COMBINERS[neuron_type](
        *(responses[kind] for kind in REQUIRED_RESPONSES[neuron_type]),
        out=buffer("out", shape), ops=ops)
    if bias is not None:
        ops.add(out, bias, out=out)
    return out, responses


class QuadraticLinearFunction(Function):
    """A composable dense quadratic layer as one autograd node.

    ``apply(x, *weights, bias, neuron_type=, recompute=)`` takes one weight
    per projection of the type's ``REQUIRED_RESPONSES`` (the ``id`` path has
    none), in that order, then the bias or ``None``; ``x`` may have any
    number of leading dimensions.

    Forward is :func:`quadratic_linear_rows` over ``x.reshape(-1, in)`` of a
    C-contiguous ``x`` (a flattened batch-innermost activation is a
    transposed view, which BLAS may round differently from the compiled
    step's C-contiguous rows).  It saves that ``x``, the weights and the
    responses the combination's backward reads (``COMBINE_READS``); with
    ``recompute`` (hybrid back-propagation) only ``x`` and the weights, and
    backward recomputes those responses with the forward's own GEMM.

    Backward mirrors the convolution node's: ``COMBINE_BACKWARDS`` writes
    every response gradient into stacked (M, P·F) rows; the weight gradients
    of the projections that share a source come from one GEMM over those
    rows, and their contribution to the input gradient from one GEMM over
    their stacked weights.  The squared-input block's input gradient is
    multiplied by ``2·x``, and the identity path adds ``grad``.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, *params: np.ndarray, neuron_type: str,
                recompute: bool) -> np.ndarray:
        kinds = tuple(kind for kind in REQUIRED_RESPONSES[neuron_type] if kind != "id")
        weights, bias = params[:-1], params[-1]
        x = np.ascontiguousarray(x)
        out, responses = quadratic_linear_rows(
            neuron_type, x.reshape(-1, x.shape[-1]),
            {kind: weight.T for kind, weight in zip(kinds, weights)}, bias)
        ctx.neuron_type, ctx.kinds, ctx.recompute = neuron_type, kinds, recompute
        reads = () if recompute else [responses[kind] for kind in COMBINE_READS[neuron_type]]
        ctx.save_for_backward(x, *weights, *reads)
        return out.reshape(x.shape[:-1] + out.shape[-1:])

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        kinds = ctx.kinds
        x, *saved = ctx.saved_tensors
        weights = dict(zip(kinds, saved[:len(kinds)]))
        reads = saved[len(kinds):]
        rows = x.reshape(-1, x.shape[-1])
        if ctx.recompute:
            reads = [rows @ weights[kind].T for kind in COMBINE_READS[ctx.neuron_type]]
        required = REQUIRED_RESPONSES[ctx.neuron_type]
        rows_grad = grad.reshape(rows.shape[0], -1)                   # (M, F)
        m, f = rows_grad.shape

        needs = ctx.needs_input_grad                  # (x, *weights, bias)
        plain = tuple(kind for kind in kinds if kind != "sq")
        blocks = [(plain, rows)] if plain else []
        if "sq" in kinds:
            blocks.append((("sq",), rows * rows))
        # Each block's response gradients are written in place into its
        # stacked GEMM rows (M, P·F).
        stacked, slots = {}, {}
        for block, _ in blocks:
            stacked[block] = np.empty((m, len(block), f), grad.dtype)
            slots.update((kind, stacked[block][:, index]) for index, kind in enumerate(block))
        COMBINE_BACKWARDS[ctx.neuron_type](rows_grad, *reads,
                                           out=tuple(slots.get(kind) for kind in required))

        weight_grads = {}
        x_grad = None
        for block, source in blocks:
            block_rows = stacked[block].reshape(m, len(block) * f)
            if any(needs[1 + kinds.index(kind)] for kind in block):
                gw = block_rows.T @ source
                for index, kind in enumerate(block):
                    weight_grads[kind] = gw[index * f:(index + 1) * f]
            if needs[0]:
                part = block_rows @ np.concatenate([weights[kind] for kind in block])
                if block == ("sq",):
                    part *= rows
                    part *= 2.0
                x_grad = part if x_grad is None else np.add(x_grad, part, out=x_grad)

        gx = None
        if needs[0]:
            if "id" in required:
                x_grad += rows_grad
            gx = x_grad.reshape(x.shape)
        gbias = rows_grad.sum(axis=0) if needs[-1] else None
        return (gx, *(weight_grads.get(kind) for kind in kinds), gbias)


class QuadraticLinear(QuadraticLayerBase):
    """Dense quadratic layer ``f(X)`` for any registered neuron type.

    For the paper's design (``OURS``) the layer owns three weight matrices of
    the ordinary ``(out_features, in_features)`` shape — exactly three
    first-order neurons assembled with a Hadamard product and a sum, which is
    the implementation-feasibility argument (P4).  T1-family types own an
    additional full-rank tensor of shape ``(out_features, in, in)`` whose
    quadratic cost is what P2 warns about.

    Composable types train as one :class:`QuadraticLinearFunction` node that
    keeps the responses its combination's backward reads; set
    :attr:`recompute` to keep only the input and the weights instead (hybrid
    BP).  The T1 family trains as a composed graph.

    Parameters
    ----------
    in_features, out_features : int
    neuron_type : str
        Canonical name or alias (``"OURS"``, ``"T2"``, ``"fan"``, …).
    bias : bool
        Learn an additive bias added after the combination step.
    """

    #: Recompute the responses in backward instead of keeping them (hybrid BP).
    recompute = False

    def __init__(self, in_features: int, out_features: int, neuron_type: str = "OURS",
                 bias: bool = True) -> None:
        super().__init__(neuron_type)
        self.in_features = int(in_features)
        self.out_features = int(out_features)

        shape = (out_features, in_features)
        if "a" in self.required:
            self.weight_a = Parameter(init.kaiming_uniform(shape))
        if "b" in self.required:
            self.weight_b = Parameter(init.kaiming_uniform(shape))
        if "c" in self.required:
            # The linear path starts near identity-scale so it behaves like an
            # identity mapping early in training (paper Sec. 3.2).
            self.weight_c = Parameter(init.kaiming_uniform(shape, gain=1.0))
        if "sq" in self.required:
            self.weight_sq = Parameter(init.kaiming_uniform(shape))
        if "bilinear" in self.required:
            self.weight_bilinear = Parameter(
                init.kaiming_uniform((out_features, in_features, in_features),
                                     gain=1.0 / max(in_features, 1) ** 0.5)
            )
        if "id" in self.required and in_features != out_features:
            raise ValueError(
                "T4_ID (identity mapping) requires in_features == out_features; "
                f"got {in_features} != {out_features}. Use neuron_type='OURS' for a "
                "learned linear path instead."
            )
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.spec.full_rank:
            return super().forward(x)
        weights = [getattr(self, f"weight_{kind}") for kind in self.required if kind != "id"]
        return QuadraticLinearFunction.apply(x, *weights, self.bias,
                                             neuron_type=self.neuron_type,
                                             recompute=self.recompute)

    # ----------------------------------------------------------- projections
    def project(self, x: Tensor, kind: str) -> Tensor:
        """The T1 family's responses (the composable types run the node)."""
        if kind == "b":
            return F.linear(x, self.weight_b)
        if kind == "sq":
            return F.linear(x * x, self.weight_sq)
        if kind == "bilinear":
            # Xᵀ Wa X per output unit over (M, in) rows, as the composable
            # node runs: contract once with einsum, then with a Hadamard
            # product + sum so only two-operand primitives are needed.
            rows = x.reshape(-1, self.in_features)
            partial = _einsum("oij,nj->noi", self.weight_bilinear, rows)
            out = (partial * rows.unsqueeze(1)).sum(axis=-1)
            return out.reshape(x.shape[:-1] + (self.out_features,))
        raise KeyError(f"unknown projection kind '{kind}'")

    def post_combine(self, out: Tensor) -> Tensor:
        if self.bias is not None:
            out = out + self.bias
        return out

    def extra_repr(self) -> str:
        return (f"in_features={self.in_features}, out_features={self.out_features}, "
                f"type={self.neuron_type}, bias={self.bias is not None}"
                + (", recompute=True" if self.recompute else ""))


class HybridQuadraticLinear(QuadraticLinear):
    """``QuadraticLinear(neuron_type='OURS')`` whose :attr:`recompute` defaults to True."""

    recompute = True

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__(in_features, out_features, neuron_type="OURS", bias=bias)
