"""Multi-threaded cache-blocked GEMM / im2col backend.

NumPy releases the GIL inside its BLAS calls and inside large strided
copies, so coarse-grained threading over *independent slices* of one
operation scales with cores without any native code.  The backend blocks
each primitive into per-thread panels sized to stay cache-resident and runs
the panels on a shared :class:`~concurrent.futures.ThreadPoolExecutor`:

* ``im2col`` splits the channel axis of a batch's (C·kh·kw, OH·OW·N)
  columns — each channel's patch gather writes a disjoint slice of the
  column buffer, a pure copy, so the result is trivially bit-identical at
  any thread count.
* ``conv_project`` splits the column axis (output pixels × batch) and
  ``gemm`` the row axis into blocks.  Each block runs the *reference*
  ``np.matmul`` on its slice, so the per-element reduction order can only
  change if BLAS picks a different kernel for the smaller operand — which
  depends on shapes alone, never on values.  The first call per shape
  therefore compares the blocked route against the reference route on
  dense random probes and caches the verdict: blocked where it provably
  matches the single-threaded bits, reference fall-back everywhere else.  The ``threaded`` backend is consequently
  **exact by construction at any core count** — the worst case is "no
  speedup", never "different bits".

Thread count defaults to every core (``os.cpu_count()``); override with the
``REPRO_NUM_THREADS`` environment variable or
``ThreadedBackend(num_threads=...)``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from ..autodiff.ops.conv import even_spans
from .base import Backend, register_backend

#: Skip threading below this many output elements — executor dispatch costs
#: tens of microseconds, which swamps sub-cache-size operations.
MIN_PARALLEL_ELEMS = 1 << 14

#: Target bytes per blocked panel (operand slice + output slice), chosen to
#: sit inside a typical per-core L2 so each thread streams its panel once.
PANEL_BYTES = 512 * 1024


@register_backend
class ThreadedBackend(Backend):
    """Multi-threaded cache-blocked GEMM/im2col; probe-verified, exact."""

    name = "threaded"

    def __init__(self, num_threads: Optional[int] = None) -> None:
        if num_threads is None:
            env = os.environ.get("REPRO_NUM_THREADS", "")
            num_threads = int(env) if env.strip().isdigit() else (os.cpu_count() or 1)
        self.num_threads = max(1, int(num_threads))
        self._executor: Optional[ThreadPoolExecutor] = None
        #: (primitive, shapes, chunks) -> blocked route proved bit-identical?
        self._routes: dict = {}

    # ------------------------------------------------------------- plumbing
    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="repro-backend")
        return self._executor

    def _run(self, tasks) -> None:
        """Run thunks on the pool; re-raise the first worker exception."""
        for future in [self._pool().submit(task) for task in tasks]:
            future.result()

    def _chunks(self, axis_size: int, total_elems: int) -> int:
        """Block count for one primitive: every thread busy, panels in cache."""
        if axis_size < 2:
            return 1
        by_cache = (total_elems * 4) // PANEL_BYTES + 1
        return min(axis_size, max(self.num_threads, by_cache))

    # ----------------------------------------------------------------- GEMM
    def gemm(self, x: np.ndarray, weight_t: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        m = x.shape[0]
        work = x.size * weight_t.shape[-1]
        chunks = self._chunks(m, x.size + m * weight_t.shape[-1])
        if chunks <= 1 or work < MIN_PARALLEL_ELEMS or out is None:
            return super().gemm(x, weight_t, out=out)
        key = ("gemm", x.shape, weight_t.shape, chunks)
        blocked = self._routes.get(key)
        if blocked is None:
            blocked = self._probe_gemm(x.shape, weight_t, chunks)
            self._routes[key] = blocked
        if not blocked:
            return super().gemm(x, weight_t, out=out)
        spans = even_spans(m, chunks)
        self._run([lambda a=a, b=b: np.matmul(x[a:b], weight_t, out=out[a:b])
                   for a, b in spans])
        return out

    def _probe_gemm(self, x_shape, weight_t, chunks: int) -> bool:
        rng = np.random.default_rng(0)
        px = rng.standard_normal(x_shape).astype(np.float32)
        pw = rng.standard_normal(weight_t.shape).astype(np.float32)
        reference = px @ pw
        blocked = np.empty_like(reference)
        for a, b in even_spans(x_shape[0], chunks):
            np.matmul(px[a:b], pw, out=blocked[a:b])
        return bool(np.array_equal(reference, blocked))

    # ----------------------------------------------------------- convolution
    def im2col(self, x: np.ndarray, kh: int, kw: int, stride, padding, groups: int = 1,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        n, c = x.shape[:2]
        # Single samples (every exact-mode serving forward) stay on the
        # calling thread.
        if out is None or n < 2 or out.size < MIN_PARALLEL_ELEMS:
            return super().im2col(x, kh, kw, stride, padding, groups, out=out)
        # Disjoint channel slices of the column buffer (channels are its
        # outermost axis): a pure strided copy, bit-identical by
        # construction at any thread count.
        spans = even_spans(c, self._chunks(c, out.size))
        if len(spans) <= 1:
            return super().im2col(x, kh, kw, stride, padding, groups, out=out)
        per_channel = out.reshape(c, -1)
        parent = super().im2col
        self._run([lambda a=a, b=b: parent(x[:, a:b], kh, kw, stride, padding, 1,
                                           out=per_channel[a:b])
                   for a, b in spans])
        return out.reshape(groups, (c // groups) * kh * kw, -1)

    def conv_project(self, cols: np.ndarray, wmat: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
        if out.size * wmat.shape[-1] < MIN_PARALLEL_ELEMS:
            return super().conv_project(cols, wmat, out)
        # Block the column axis (output pixels × batch): each block runs the
        # reference np.matmul on its slice, which is exact wherever BLAS
        # picks the same kernel for the narrower operand — the probe decides.
        width = cols.shape[-1]
        chunks = self._chunks(width, cols.size + out.size)
        if chunks <= 1:
            return super().conv_project(cols, wmat, out)
        key = ("conv", wmat.shape, cols.shape, chunks)
        blocked = self._routes.get(key)
        if blocked is None:
            blocked = self._probe_conv(cols.shape, wmat.shape, chunks)
            self._routes[key] = blocked
        if not blocked:
            return super().conv_project(cols, wmat, out)
        parent = super().conv_project
        self._run([lambda a=a, b=b: parent(cols[..., a:b], wmat, out[..., a:b])
                   for a, b in even_spans(width, chunks)])
        return out

    def _probe_conv(self, cols_shape, wmat_shape, chunks: int) -> bool:
        """Blocked-vs-reference comparison on dense random probes.

        Runs the blocks *serially* — the verdict is about BLAS kernel choice
        per slice shape, which is deterministic, not about scheduling.
        """
        rng = np.random.default_rng(0)
        pc = rng.standard_normal(cols_shape).astype(np.float32)
        pw = rng.standard_normal(wmat_shape).astype(np.float32)
        out_shape = (cols_shape[0], wmat_shape[1], cols_shape[-1])
        reference = super().conv_project(pc, pw, np.empty(out_shape, np.float32))
        blocked = np.empty(out_shape, np.float32)
        for a, b in even_spans(cols_shape[-1], chunks):
            super().conv_project(pc[..., a:b], pw, blocked[..., a:b])
        return bool(np.array_equal(reference, blocked))
