"""Functional forms of common layers and losses.

These free functions operate directly on tensors; the class-based layers in
``repro.nn.layers`` and the losses in ``repro.nn.losses`` are thin stateful
wrappers around them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autodiff.ops.norm import BatchNorm as _BatchNorm
from ..autodiff.tensor import Tensor, where as _where


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #

def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU."""
    from ..autodiff.ops.elementwise import LeakyReLU

    return LeakyReLU.apply(x, negative_slope)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """``log(softmax(x))`` computed via logsumexp for stability."""
    return x - x.logsumexp(axis=axis, keepdims=True)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    c = float(np.sqrt(2.0 / np.pi))
    return 0.5 * x * (1.0 + (c * (x + 0.044715 * x * x * x)).tanh())


# --------------------------------------------------------------------------- #
# Linear / conv / pooling
# --------------------------------------------------------------------------- #

def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``y = x @ W^T + b`` with weight of shape (out_features, in_features)."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None, stride=1,
           padding=0, groups: int = 1) -> Tensor:
    """2-D convolution over an NCHW tensor."""
    return x.conv2d(weight, bias, stride=stride, padding=padding, groups=groups)


def max_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    return x.max_pool2d(kernel_size=kernel_size, stride=stride, padding=padding)


def avg_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    return x.avg_pool2d(kernel_size=kernel_size, stride=stride, padding=padding)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Global (or grid) average pooling to ``output_size × output_size``."""
    if output_size == 1:
        return x.mean(axis=(2, 3), keepdims=True)
    n, c, h, w = x.shape
    if h % output_size or w % output_size:
        raise ValueError(
            f"adaptive_avg_pool2d requires divisible sizes, got {h}x{w} -> {output_size}"
        )
    return x.avg_pool2d(kernel_size=(h // output_size, w // output_size))


def upsample_nearest(x: Tensor, scale_factor: int = 2) -> Tensor:
    return x.upsample_nearest2d(scale_factor=scale_factor)


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    return x.flatten(start_dim=start_dim)


def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: activations are scaled by ``1/(1-p)`` during training."""
    if not training or p <= 0.0:
        return x
    rng = rng if rng is not None else np.random.default_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)
    return x * Tensor(mask)


# --------------------------------------------------------------------------- #
# Normalisation
# --------------------------------------------------------------------------- #

def batch_norm(x: Tensor, running_mean: Optional[np.ndarray] = None,
               running_var: Optional[np.ndarray] = None, weight: Optional[Tensor] = None,
               bias: Optional[Tensor] = None, training: bool = False,
               momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Batch normalisation over every axis but the channel axis 1: one node.

    Normalises with the batch statistics when ``training`` is set or no
    running statistics are given, and then (training, buffers given) folds
    the batch into ``running_mean``/``running_var`` in place.  Otherwise the
    running statistics normalise.  ``weight``/``bias`` are (C,); omitted,
    the affine step multiplies by ones and adds zeros.  See
    :class:`repro.autodiff.ops.norm.BatchNorm` for the node and its backward.
    """
    channels = x.shape[1]
    if weight is None:
        weight = np.ones(channels, dtype=np.float32)
    if bias is None:
        bias = np.zeros(channels, dtype=np.float32)
    return _BatchNorm.apply(x, weight, bias, running_mean, running_var,
                            training=training or running_mean is None,
                            momentum=momentum, eps=eps)


# --------------------------------------------------------------------------- #
# Losses (functional)
# --------------------------------------------------------------------------- #

def cross_entropy(logits: Tensor, targets: np.ndarray, reduction: str = "mean",
                  label_smoothing: float = 0.0) -> Tensor:
    """Softmax cross-entropy against integer class targets."""
    targets = np.asarray(targets)
    n, num_classes = logits.shape
    logp = log_softmax(logits, axis=-1)
    one_hot = np.zeros((n, num_classes), dtype=np.float32)
    one_hot[np.arange(n), targets.astype(np.int64)] = 1.0
    if label_smoothing > 0.0:
        one_hot = one_hot * (1.0 - label_smoothing) + label_smoothing / num_classes
    nll = -(logp * Tensor(one_hot)).sum(axis=-1)
    return _reduce(nll, reduction)


def nll_loss(logp: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood for pre-computed log-probabilities."""
    targets = np.asarray(targets)
    n, num_classes = logp.shape
    one_hot = np.zeros((n, num_classes), dtype=np.float32)
    one_hot[np.arange(n), targets.astype(np.int64)] = 1.0
    nll = -(logp * Tensor(one_hot)).sum(axis=-1)
    return _reduce(nll, reduction)


def mse_loss(pred: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    target = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=np.float32))
    diff = pred - target
    return _reduce(diff * diff, reduction)


def l1_loss(pred: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean absolute error."""
    target = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=np.float32))
    return _reduce((pred - target).abs(), reduction)


def smooth_l1_loss(pred: Tensor, target: Tensor, beta: float = 1.0,
                   reduction: str = "mean") -> Tensor:
    """Huber/smooth-L1 loss used by the SSD localisation head."""
    target = target if isinstance(target, Tensor) else Tensor(np.asarray(target, dtype=np.float32))
    diff = (pred - target).abs()
    quadratic = 0.5 * diff * diff / beta
    linear = diff - 0.5 * beta
    out = _where(Tensor(diff.data < beta), quadratic, linear)
    return _reduce(out, reduction)


def binary_cross_entropy_with_logits(logits: Tensor, targets, reduction: str = "mean") -> Tensor:
    """Numerically stable BCE on raw logits (GAN discriminators)."""
    targets = targets if isinstance(targets, Tensor) else Tensor(np.asarray(targets, dtype=np.float32))
    # log(1 + exp(-|x|)) + max(x, 0) - x*t
    relu_logits = logits.relu()
    loss = relu_logits - logits * targets + (1.0 + (-logits.abs()).exp()).log()
    return _reduce(loss, reduction)


def hinge_loss_discriminator(real_logits: Tensor, fake_logits: Tensor) -> Tensor:
    """Hinge loss for the discriminator (SNGAN training objective)."""
    real_term = (1.0 - real_logits).relu().mean()
    fake_term = (1.0 + fake_logits).relu().mean()
    return real_term + fake_term


def hinge_loss_generator(fake_logits: Tensor) -> Tensor:
    """Hinge loss for the generator (SNGAN training objective)."""
    return (-fake_logits).mean()


def _reduce(value: Tensor, reduction: str) -> Tensor:
    if reduction == "mean":
        return value.mean()
    if reduction == "sum":
        return value.sum()
    if reduction == "none":
        return value
    raise ValueError(f"unknown reduction '{reduction}'")
