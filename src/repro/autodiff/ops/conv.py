"""Convolution, pooling and upsampling primitives.

The 2-D convolution is implemented with an im2col lowering: patches are
gathered into batch-innermost columns and each projection becomes one
matrix multiplication over the whole batch, which keeps all heavy lifting
inside BLAS (:func:`lower_columns`).  The NCHW :func:`im2col`/:func:`col2im`
pair serves average pooling and the fixed-point path.  Grouped
convolution is supported so that MobileNet-style depthwise convolutions
(``groups == in_channels``) — one of the three backbone families evaluated in
the paper's Table 3 — work out of the box.  Max pooling is a running
maximum over strided window views (:func:`window_max`), with no gather.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..function import Context, Function
from ..grad_mode import is_grad_enabled


def _pair(value) -> Tuple[int, int]:
    """Normalise an int-or-pair argument to a 2-tuple."""
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def im2col(x: np.ndarray, kh: int, kw: int, stride: Tuple[int, int],
           padding: Tuple[int, int], out: np.ndarray = None) -> np.ndarray:
    """Lower image patches into a column tensor.

    Parameters
    ----------
    x : array of shape (N, C, H, W)
    out : optional pre-allocated destination of shape (N, C, kh, kw, OH, OW);
        the compiled inference path passes a pooled buffer here so the
        biggest allocation of the convolution is paid only once per shape.
    Returns
    -------
    array of shape (N, C, kh, kw, OH, OW)
    """
    n, c, h, w = x.shape
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")
    cols_shape = (n, c, kh, kw, oh, ow)
    if out is not None and out.shape == cols_shape and out.dtype == x.dtype:
        cols = out
    else:
        cols = np.empty(cols_shape, dtype=x.dtype)
    for i in range(kh):
        i_max = i + sh * oh
        for j in range(kw):
            j_max = j + sw * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:sh, j:j_max:sw]
    return cols


def col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int, kw: int,
           stride: Tuple[int, int], padding: Tuple[int, int]) -> np.ndarray:
    """Scatter a column tensor back into an image, accumulating overlaps."""
    n, c, h, w = x_shape
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + sh * oh
        for j in range(kw):
            j_max = j + sw * ow
            padded[:, :, i:i_max:sh, j:j_max:sw] += cols[:, :, i, j, :, :]
    if ph or pw:
        return padded[:, :, ph:ph + h, pw:pw + w]
    return padded


# Batch-innermost lowering, the one every float convolution runs: eager
# ``Conv2d`` and the quadratic node, forward and backward, and the compiled
# steps through ``Backend.im2col``/``Backend.conv_project``.  The input is
# padded as a (C, H+2p, W+2p, N) array and each of the kh·kw taps is copied
# once into (C, kh, kw, OH, OW, N) columns, viewed as (G, C/G·kh·kw,
# OH·OW·N).  So each projection is one GEMM per group over the whole batch,
# and at stride 1 each tap copy moves OW·N contiguous floats.  Projection
# rows come out as (F, OH, OW, N); at batch 1 every one of these layouts is
# the NCHW one.
#
# Eager training keeps that order between layers: a convolution hands its
# rows on as the NCHW-shaped view ``rows.transpose(3, 0, 1, 2)``, BatchNorm
# and ReLU keep their input's order (their ufuncs allocate in it), and max
# pooling allocates in it (:func:`new_image`).  So the next lowering, and the
# backward's :func:`image_to_rows`, find (C, H, W, N) memory and copy nothing.

def lower_columns(x: np.ndarray, kh: int, kw: int, stride: Tuple[int, int],
                  padding: Tuple[int, int], groups: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Lower ``x`` (N, C, H, W) into (G, C/G·kh·kw, OH·OW·N) columns.

    ``out`` is an optional contiguous destination of that size; the compiled
    path passes a pooled buffer.
    """
    n, c, h, w = x.shape
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    source = x.transpose(1, 2, 3, 0)
    if ph or pw:
        source = np.pad(source, ((0, 0), (ph, ph), (pw, pw), (0, 0)), mode="constant")
    else:
        source = np.ascontiguousarray(source)
    cols_shape = (c, kh, kw, oh, ow, n)
    cols = np.empty(cols_shape, dtype=x.dtype) if out is None else out.reshape(cols_shape)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = source[:, i:i + sh * oh:sh, j:j + sw * ow:sw]
    return cols.reshape(groups, (c // groups) * kh * kw, oh * ow * n)


def scatter_columns(cols_grad: np.ndarray, x_shape: Tuple[int, int, int, int],
                    kh: int, kw: int, stride: Tuple[int, int],
                    padding: Tuple[int, int]) -> np.ndarray:
    """Scatter (G, K, OH·OW·N) column gradients back to an (N, C, H, W) image.

    The taps add into a zeroed (C, H+2p, W+2p, N) buffer in lowering order,
    whose interior is returned as an NCHW-shaped view, uncopied.
    """
    n, c, h, w = x_shape
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    cols = cols_grad.reshape(c, kh, kw, oh, ow, n)
    padded = np.zeros((c, h + 2 * ph, w + 2 * pw, n), dtype=cols_grad.dtype)
    for i in range(kh):
        for j in range(kw):
            padded[:, i:i + sh * oh:sh, j:j + sw * ow:sw] += cols[:, i, j]
    return padded[:, ph:ph + h, pw:pw + w].transpose(3, 0, 1, 2)


def even_spans(size: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``range(size)`` into ``min(chunks, size)`` near-equal contiguous spans."""
    chunks = max(1, min(int(chunks), int(size)))
    step, extra = divmod(size, chunks)
    spans, start = [], 0
    for i in range(chunks):
        stop = start + step + (1 if i < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def rows_to_image(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Copy (C, H, W, N) rows into the C-contiguous (N, C, H, W) image ``out``.

    The compiled plan's convolutions hand NCHW images on, so they call this;
    eager ones hand their rows on uncopied.  The copy runs over N spans of
    channels, each holding about one sample's share of the array, so a
    span's strided reads stay in cache while its N rows are written; one
    whole-array copy took 11.4 ms against 1.6 ms for 32×32×32×32 floats on a
    2-core VM.
    """
    image = rows.transpose(3, 0, 1, 2)
    for a, b in even_spans(rows.shape[0], rows.shape[3]):
        np.copyto(out[:, a:b], image[:, a:b])
    return out


def image_to_rows(image: np.ndarray) -> np.ndarray:
    """An (N, C, H, W) image as contiguous (C, H, W, N) rows.

    A view when the image already is a batch-innermost view of such rows,
    otherwise a copy.
    """
    return np.ascontiguousarray(image.transpose(1, 2, 3, 0))


def new_image(shape: Tuple[int, int, int, int], like: np.ndarray, dtype=None,
              zeroed: bool = False) -> np.ndarray:
    """A new (N, C, H, W) array of ``shape`` in the memory order of ``like``.

    Stored as (C, H, W, N) rows when ``like``'s batch axis is its innermost
    (a convolution's output, or anything computed from it element-wise),
    as NCHW otherwise.  Zero-filled with ``zeroed``.
    """
    allocate = np.zeros if zeroed else np.empty
    dtype = like.dtype if dtype is None else dtype
    if like.shape[0] > 1 and like.strides[0] < like.strides[3]:
        n, c, h, w = shape
        return allocate((c, h, w, n), dtype).transpose(3, 0, 1, 2)
    return allocate(shape, dtype)


def conv2d_rows(x: np.ndarray, w: np.ndarray, stride: Tuple[int, int],
                padding: Tuple[int, int], groups: int) -> np.ndarray:
    """Grouped 2-D convolution without bias, as (F, OH, OW, N) rows.

    The arithmetic every eager convolution runs — :class:`Conv2d` and each
    projection of a quadratic convolution: :func:`lower_columns`, then one
    ``np.matmul``, the one ``Backend.conv_project`` runs on the compiled
    path, so their outputs share bits.
    """
    n, c, h, wd = x.shape
    f, c_g, kh, kw = w.shape
    if c != c_g * groups:
        raise ValueError(
            f"Conv2d channel mismatch: input has {c} channels but weight "
            f"expects {c_g * groups} (groups={groups})"
        )
    oh = conv_output_size(h, kh, stride[0], padding[0])
    ow = conv_output_size(wd, kw, stride[1], padding[1])
    cols = lower_columns(x, kh, kw, stride, padding, groups)
    wmat = w.reshape(groups, f // groups, c_g * kh * kw)
    # (G, Fg, OH·OW·N) = (G, Fg, K) @ (G, K, OH·OW·N)
    return np.matmul(wmat, cols).reshape(f, oh, ow, n)


def _holds_both_zeros(x: np.ndarray) -> bool:
    """Whether the float array ``x`` holds a ``+0.0`` and a ``-0.0``."""
    bits = x.view(f"u{x.itemsize}")
    negative_zero = np.array(-0.0, dtype=x.dtype).view(bits.dtype)
    return bool((bits == 0).any()) and bool((bits == negative_zero).any())


def window_max(x: np.ndarray, kh: int, kw: int, stride: Tuple[int, int],
               padding: Tuple[int, int], out: Optional[np.ndarray] = None,
               with_index: bool = False):
    """Maximum of every kh×kw window of ``x`` (N, C, H, W), zero-padded.

    The one max-pool kernel: the eager :class:`MaxPool2d` node,
    ``Backend.maxpool`` and the secure max pool all call it.  It takes a
    running maximum over the kh·kw strided window views in row-major
    order.  Of equal elements the earlier one wins, ``-0.0``/``+0.0`` ties
    included, and a NaN anywhere in a window makes that window NaN.
    Comparisons only, so it is exact on integer arrays too.

    ``out`` is an optional destination of the output shape.  With
    ``with_index`` it also returns the winner index: the first window
    position ``k = i·kw + j`` whose element equals the max (``uint8`` while
    kh·kw ≤ 256; a NaN window's index is 0).  Every array it allocates,
    padding and output included, takes ``x``'s memory order
    (:func:`new_image`).
    """
    n, c, h, w = x.shape
    sh, sw = stride
    ph, pw = padding
    oh = conv_output_size(h, kh, sh, ph)
    ow = conv_output_size(w, kw, sw, pw)
    if ph or pw:
        padded = new_image((n, c, h + 2 * ph, w + 2 * pw), x, zeroed=True)
        padded[:, :, ph:ph + h, pw:pw + w] = x
        x = padded
    views = [x[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
             for i in range(kh) for j in range(kw)]
    if out is None:
        out = new_image((n, c, oh, ow), x)
    np.copyto(out, views[0])
    if x.dtype.kind == "f" and _holds_both_zeros(x):
        # np.maximum's pick between tied -0.0 and +0.0 is the platform's
        # (x86 keeps the second operand, aarch64 returns +0.0), so here a
        # later element replaces the max only where it is greater or NaN.
        for view in views[1:]:
            np.copyto(out, view, where=np.greater(view, out) | np.isnan(view))
    else:
        # Equal elements have equal bits, so np.maximum's pick cannot show.
        for view in views[1:]:
            np.maximum(view, out, out=out)
    if not with_index:
        return out
    # The winner's position is the number of leading elements below the max.
    below = np.less(views[0], out, out=np.empty_like(out, dtype=bool))
    index = below.astype(np.uint8 if len(views) <= 256 else np.intp)
    is_less = np.empty_like(below)
    for view in views[1:-1]:
        np.logical_and(below, np.less(view, out, out=is_less), out=below)
        np.add(index, below, out=index)
    return out, index


class Conv2d(Function):
    """Grouped 2-D convolution ``out = conv(x, w) + b``.

    Shapes follow PyTorch: ``x`` is (N, C, H, W), ``w`` is
    (F, C // groups, kh, kw) and ``b`` is (F,) or ``None``.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, w: np.ndarray,
                b: Optional[np.ndarray] = None, stride=1, padding=0,
                groups: int = 1) -> np.ndarray:
        stride = _pair(stride)
        padding = _pair(padding)
        rows = conv2d_rows(x, w, stride, padding, groups)
        if b is not None:
            rows += b.reshape(-1, 1, 1, 1)

        ctx.stride, ctx.padding, ctx.groups = stride, padding, groups
        ctx.has_bias = b is not None
        ctx.save_for_backward(x, w)
        return rows.transpose(3, 0, 1, 2)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, w = ctx.saved_tensors
        stride, padding, groups = ctx.stride, ctx.padding, ctx.groups
        f, c_g, kh, kw = w.shape
        rows = image_to_rows(grad).reshape(groups, f // groups, -1)   # (G, Fg, OH·OW·N)
        needs = ctx.needs_input_grad
        gx = gw = gb = None
        if needs[0]:
            wmat = w.reshape(groups, f // groups, c_g * kh * kw)
            gx = scatter_columns(np.matmul(wmat.transpose(0, 2, 1), rows),
                                 x.shape, kh, kw, stride, padding)
        if needs[1]:
            cols = lower_columns(x, kh, kw, stride, padding, groups)
            gw = np.matmul(rows, cols.transpose(0, 2, 1)).reshape(f, c_g, kh, kw)
        if ctx.has_bias and len(needs) > 2 and needs[2]:
            gb = rows.reshape(f, -1).sum(axis=1)
        return gx, gw, gb, None, None, None


class MaxPool2d(Function):
    """Max pooling with square-or-rectangular windows and zero padding.

    The forward is :func:`window_max`.  A call recorded for backward also
    keeps the winner index (one byte per output element), and the backward
    routes each output gradient to its window's first maximal element.
    """

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel_size=2, stride=None, padding=0) -> np.ndarray:
        kh, kw = _pair(kernel_size)
        stride = _pair(stride if stride is not None else kernel_size)
        padding = _pair(padding)
        if not is_grad_enabled():
            return window_max(x, kh, kw, stride, padding)
        out, index = window_max(x, kh, kw, stride, padding, with_index=True)
        ctx.kernel = (kh, kw)
        ctx.stride, ctx.padding = stride, padding
        ctx.x_shape = x.shape
        ctx.save_for_backward(index)
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (index,) = ctx.saved_tensors
        kh, kw = ctx.kernel
        (sh, sw), (ph, pw) = ctx.stride, ctx.padding
        n, c, h, w = ctx.x_shape
        grad = np.asarray(grad)
        oh, ow = grad.shape[2], grad.shape[3]
        # Each window position k takes the gradient's bits ANDed with an
        # all-ones mask where k won and all-zeros elsewhere: a non-winner
        # gets exactly +0.0 (an inf or NaN gradient stays at its winner) and
        # adding into zeros keeps the bits of a dense scatter; overlapping
        # windows add in window order.
        # Every array here takes the memory order of the pool's input,
        # which the winner index kept.
        gx = new_image((n, c, h + 2 * ph, w + 2 * pw), index, grad.dtype, zeroed=True)
        bits = np.dtype(f"i{grad.itemsize}")
        grad_bits = grad.view(bits)
        hit = np.empty_like(index, dtype=bool)
        mask = np.empty_like(index, dtype=bits)
        routed = np.empty_like(index, dtype=bits)
        for k in range(kh * kw):
            i, j = divmod(k, kw)
            np.equal(index, k, out=hit)
            np.negative(hit.view(np.int8), out=mask)       # 0 or all ones
            np.bitwise_and(grad_bits, mask, out=routed)
            gx[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += routed.view(grad.dtype)
        return (gx[:, :, ph:ph + h, pw:pw + w], None, None, None)


class AvgPool2d(Function):
    """Average pooling."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, kernel_size=2, stride=None, padding=0) -> np.ndarray:
        kh, kw = _pair(kernel_size)
        stride = _pair(stride if stride is not None else kernel_size)
        padding = _pair(padding)
        cols = im2col(x, kh, kw, stride, padding)
        out = cols.mean(axis=(2, 3))
        ctx.kernel = (kh, kw)
        ctx.stride, ctx.padding = stride, padding
        ctx.x_shape = x.shape
        return out

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        kh, kw = ctx.kernel
        n, c, h, w = ctx.x_shape
        grad = np.asarray(grad)
        oh, ow = grad.shape[2], grad.shape[3]
        cols_grad = np.broadcast_to(
            grad[:, :, None, None] / (kh * kw), (n, c, kh, kw, oh, ow)
        ).astype(grad.dtype)
        gx = col2im(cols_grad, ctx.x_shape, kh, kw, ctx.stride, ctx.padding)
        return (gx, None, None, None)


class UpsampleNearest2d(Function):
    """Nearest-neighbour upsampling by an integer scale factor (GAN generator)."""

    @staticmethod
    def forward(ctx: Context, x: np.ndarray, scale_factor: int = 2) -> np.ndarray:
        s = int(scale_factor)
        ctx.scale = s
        return x.repeat(s, axis=2).repeat(s, axis=3)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        s = ctx.scale
        grad = np.asarray(grad)
        n, c, h, w = grad.shape
        gx = grad.reshape(n, c, h // s, s, w // s, s).sum(axis=(3, 5))
        return (gx, None)
