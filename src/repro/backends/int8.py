"""Dynamic int8 quantized execution — fast *insecure* quantized inference.

The secure-inference runtime (:mod:`repro.ppml`) already executes models in
fixed point, but pays protocol costs (int64 shares, per-multiplication
truncation) for privacy.  This backend reuses the same power-of-two scaling
machinery from :mod:`repro.ppml.fixedpoint` *without* the protocol: weights
are quantized once per compile to saturating 8-bit integers, activations are
quantized dynamically per call, and the integer GEMMs run through float32
BLAS (every product of two int8 values accumulates exactly in float32 up to
the dot-product lengths these models use, and far beyond int8's own
resolution).  That makes it a preview of deployment-style quantized serving:
what accuracy survives 8-bit weights and activations, measured with the same
scale rules the secure runtime uses.

Scale selection per tensor: the largest power-of-two fractional precision
whose scaled magnitudes fit int8, ``bits = floor(log2(127 / amax))`` clamped
to the fixed-point format's ``MAX_FRAC_BITS`` — i.e. exactly
:func:`repro.ppml.fixedpoint.encode` followed by saturation to ±127 (the
tests assert this equivalence).  Matmul/projection outputs are rescaled by
``2^-(bits_x + bits_w)`` — the same resolution bookkeeping a fixed-point
multiplication's truncation performs.

Element-wise steps, pooling and the quadratic combination stay in float32:
they are cheap and keeping them exact isolates the quantization error to the
projections, mirroring how the PPML cost model attributes multiplication
cost.  ``exact = False``: outputs are approximate by design; the test suite
bounds the error by top-1 agreement with the float path.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .base import Backend, register_backend

#: Saturation bound of the signed 8-bit ring.
INT8_MAX = 127


@register_backend
class Int8Backend(Backend):
    """Dynamic int8 quantized GEMM/conv (fixed-point scales; approximate)."""

    name = "int8"
    exact = False

    def __init__(self) -> None:
        # Weight tensors are quantized once per compiled model (a fresh
        # backend instance per compile) and cached by identity; the array
        # reference in the value keeps the id() stable for the cache's life.
        self._weights: Dict[int, Tuple[np.ndarray, np.ndarray, int]] = {}

    # ------------------------------------------------------------ quantizers
    @staticmethod
    def frac_bits(amax: float) -> int:
        """Largest power-of-two precision whose scaled ``amax`` fits int8."""
        from ..ppml.fixedpoint import MAX_FRAC_BITS  # lazy: avoids import cycle

        if amax <= 0.0 or not np.isfinite(amax):
            return 0
        return int(np.clip(np.floor(np.log2(INT8_MAX / amax)),
                           -MAX_FRAC_BITS, MAX_FRAC_BITS))

    @classmethod
    def quantize(cls, array: np.ndarray) -> Tuple[np.ndarray, int]:
        """Saturating int8 quantization, returned as float32 integer values.

        Equivalent to ``fixedpoint.encode(array, bits)`` clipped to ±127 —
        but computed in float32 so the hot path never materialises an int64
        tensor.  The values are integers exactly representable in float32,
        so the follow-up BLAS runs on the quantized lattice bit-for-bit.
        """
        amax = float(np.max(np.abs(array))) if array.size else 0.0
        bits = cls.frac_bits(amax)
        q = np.rint(array * np.float32(2.0 ** bits)).astype(np.float32, copy=False)
        np.clip(q, -INT8_MAX, INT8_MAX, out=q)
        return q, bits

    def _weight(self, array: np.ndarray) -> Tuple[np.ndarray, int]:
        cached = self._weights.get(id(array))
        if cached is not None and cached[0] is array:
            return cached[1], cached[2]
        q, bits = self.quantize(np.ascontiguousarray(array, dtype=np.float32))
        self._weights[id(array)] = (array, q, bits)
        return q, bits

    # ----------------------------------------------------------------- GEMM
    def gemm(self, x: np.ndarray, weight_t: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        qw, w_bits = self._weight(weight_t)
        qx, x_bits = self.quantize(x)
        if out is None:
            out = qx @ qw
        else:
            np.matmul(qx, qw, out=out)
        return np.multiply(out, np.float32(2.0 ** -(x_bits + w_bits)), out=out)

    # ----------------------------------------------------------- convolution
    def conv_project(self, cols: np.ndarray, wmat: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
        qw, w_bits = self._weight(wmat)
        qc, c_bits = self.quantize(cols)
        np.matmul(qw, qc, out=out)
        return np.multiply(out, np.float32(2.0 ** -(c_bits + w_bits)), out=out)
