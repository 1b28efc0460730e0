"""Normalisation layers.

The paper's design insight 2 (Sec. 4.2) stresses that batch normalisation is
*critical* for QDNNs because the second-order term produces extreme activation
values; every quadratic construction function in ``repro.builder`` therefore
inserts BatchNorm after each quadratic layer by default, and the ablation
benchmark ``bench_ablation_design_insights`` measures what happens without it.
"""

from __future__ import annotations

import numpy as np

from ...autodiff.tensor import Tensor
from .. import functional as F
from .. import init
from ..module import Module
from ..parameter import Parameter


class _BatchNorm(Module):
    """Shared implementation of 1-D/2-D batch normalisation."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1,
                 affine: bool = True, track_running_stats: bool = True) -> None:
        super().__init__()
        self.num_features = int(num_features)
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.affine = affine
        self.track_running_stats = track_running_stats
        if affine:
            self.weight = Parameter(init.ones((num_features,)))
            self.bias = Parameter(init.zeros((num_features,)))
        if track_running_stats:
            self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
            self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
            self.register_buffer("num_batches_tracked", np.zeros(1, dtype=np.int64))

    def forward(self, x: Tensor) -> Tensor:
        weight, bias = (self.weight, self.bias) if self.affine else (None, None)
        if not self.track_running_stats:
            return F.batch_norm(x, None, None, weight, bias, eps=self.eps)
        if self.training:
            self.num_batches_tracked[...] += 1
        return F.batch_norm(x, self.running_mean, self.running_var, weight, bias,
                            training=self.training, momentum=self.momentum, eps=self.eps)

    def _stat_shape(self, ndim: int):
        shape = [1] * ndim
        shape[1] = self.num_features
        return tuple(shape)

    def extra_repr(self) -> str:
        return (f"{self.num_features}, eps={self.eps}, momentum={self.momentum}, "
                f"affine={self.affine}")


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over (N, H, W) for each channel of an NCHW tensor."""


class BatchNorm1d(_BatchNorm):
    """Batch normalisation over the batch axis of (N, C) or (N, C, L) tensors."""


class LayerNorm(Module):
    """Layer normalisation over the trailing ``normalized_shape`` dimensions."""

    def __init__(self, normalized_shape, eps: float = 1e-5) -> None:
        super().__init__()
        if isinstance(normalized_shape, int):
            normalized_shape = (normalized_shape,)
        self.normalized_shape = tuple(normalized_shape)
        self.eps = float(eps)
        self.weight = Parameter(init.ones(self.normalized_shape))
        self.bias = Parameter(init.zeros(self.normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(x.ndim - len(self.normalized_shape), x.ndim))
        mean = x.mean(axis=axes, keepdims=True)
        var = ((x - mean) * (x - mean)).mean(axis=axes, keepdims=True)
        normed = (x - mean) * ((var + self.eps) ** -0.5)
        return normed * self.weight + self.bias

    def extra_repr(self) -> str:
        return f"normalized_shape={self.normalized_shape}, eps={self.eps}"
