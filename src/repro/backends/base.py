"""The compute-backend interface and registry of the compiled inference path.

Every numerical primitive the inference compiler emits — the GEMMs behind
dense layers, the ``im2col`` lowering and grouped projections behind
convolutions, the fused quadratic combination, pooling and the element-wise
glue — is dispatched through exactly one object: a :class:`Backend`.  The
emitters in :mod:`repro.inference.compiler` close over the backend
instead of calling NumPy directly, so swapping the execution engine of a
model is a one-word change (``compile_model(model, backend="threaded")``)
and adding an engine is a subclass plus a :func:`register_backend` call —
the same shape as neon's ``NervanaObject.be`` seam, where every layer talks
to one shared backend object.

The base class is itself the **reference implementation**: plain
single-threaded NumPy, the exact arithmetic the eager forward performs.
Subclasses override only the primitives they accelerate; anything they leave
alone keeps reference numerics, so partial backends are always correct.

Registered engines (see the sibling modules):

========== ====== ======================================================
name       exact  description
========== ====== ======================================================
numpy      yes    reference single-threaded NumPy (the eager numerics)
threaded   yes    multi-threaded cache-blocked GEMM/im2col, probe-verified
int8       no     dynamic int8 quantized execution (fixed-point scales)
========== ====== ======================================================
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ..autodiff.function import Context
from ..autodiff.ops import conv as conv_ops
from ..autodiff.ops.conv import im2col as _im2col
from ..quadratic.functional import FUSED_COMBINERS


class Backend:
    """One execution engine for compiled inference.

    The class doubles as the ``numpy`` reference backend: each method is the
    exact NumPy computation the eager forward performs, so a compiled model
    on the base backend is bit-identical to eager evaluation.  Subclasses
    override individual primitives; ``exact`` declares whether every override
    preserves reference bits (``threaded``) or trades accuracy for speed
    (``int8``).

    A fresh instance is created per :func:`~repro.inference.compile_model`
    call (instances may cache per-weight state, e.g. quantized weights), so
    backends must be cheap to construct.
    """

    #: registry key; subclasses must override.
    name = "numpy"
    #: True when every primitive reproduces the eager float32 bits.
    exact = True

    # ------------------------------------------------------------ buffers
    def make_pool(self):
        """A fresh :class:`~repro.inference.BufferPool` for scratch arrays."""
        from ..inference.buffers import BufferPool  # lazy: avoids import cycle

        return BufferPool()

    # --------------------------------------------------------- element-wise
    # NumPy-ufunc-compatible handles (``out=`` supported).  The fused
    # quadratic combiners receive the backend as their ``ops`` argument, so
    # these six names are the element-wise surface a backend can redirect.
    multiply = staticmethod(np.multiply)
    add = staticmethod(np.add)
    subtract = staticmethod(np.subtract)
    maximum = staticmethod(np.maximum)
    copyto = staticmethod(np.copyto)
    where = staticmethod(np.where)

    # ----------------------------------------------------------------- GEMM
    def gemm(self, x: np.ndarray, weight_t: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """``x @ weight_t`` (dense projection; ``weight_t`` is already W.T)."""
        if out is None:
            return x @ weight_t
        return np.matmul(x, weight_t, out=out)

    # ----------------------------------------------------------- convolution
    def im2col(self, x: np.ndarray, kh: int, kw: int,
               stride: Tuple[int, int], padding: Tuple[int, int],
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Lower input patches to columns (strided copies, no arithmetic)."""
        return _im2col(x, kh, kw, stride, padding, out=out)

    def conv_project(self, cols: np.ndarray, wmat: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
        """One grouped-conv projection on pre-lowered columns.

        ``(G, Fg, K) @ (N, G, K, OH·OW) -> (N, G, Fg, OH·OW)``: the one
        ``np.matmul`` the eager convolution (``conv2d_raw``) runs, so the
        compiled projection shares its bits.
        """
        return np.matmul(wmat, cols, out=out)

    # ------------------------------------------------------ quadratic combine
    def combine(self, neuron_type: str, responses: Sequence[np.ndarray],
                out: Optional[np.ndarray] = None) -> np.ndarray:
        """Fuse first-order responses into the quadratic neuron output.

        Delegates to the fused ``out=`` kernels of
        :mod:`repro.quadratic.functional`, handing itself over as the
        element-wise ``ops`` provider so subclasses that redirect
        ``multiply``/``add``/``copyto`` automatically redirect the combine.
        """
        return FUSED_COMBINERS[neuron_type](*responses, out=out, ops=self)

    # --------------------------------------------------------------- pooling
    def maxpool(self, x: np.ndarray, kernel_size, stride, padding) -> np.ndarray:
        """General max pooling (the autodiff op's forward; bit-identical).

        Under ``inference_mode`` the op's ``save_for_backward`` is a no-op,
        so this is pure forward arithmetic.
        """
        return conv_ops.MaxPool2d.forward(Context(), x, kernel_size=kernel_size,
                                          stride=stride, padding=padding)

    def avgpool(self, x: np.ndarray, kernel_size, stride=None,
                padding=0) -> np.ndarray:
        """General average pooling (the autodiff op's forward)."""
        return conv_ops.AvgPool2d.forward(Context(), x, kernel_size=kernel_size,
                                          stride=stride, padding=padding)

    # ------------------------------------------------------------ measurement
    def measure_rates(self, budget_ms: float = 60.0, refresh: bool = False):
        """Measured sustained per-kernel throughput of this engine on this host.

        Runs the :mod:`repro.backends.rates` micro-probes (GEMM, conv
        lowering, element-wise glue, dispatch/IPC/copy overheads) and
        returns a :class:`~repro.backends.rates.KernelRates` record — the
        empirical half of the capacity model (:mod:`repro.capacity`), which
        prices a model's per-layer work counts with these slopes.  Results
        are cached per (backend, host) in-process and on disk, so only the
        first call per host pays the ~6 x ``budget_ms`` probe cost.
        """
        from .rates import measure_backend_rates  # lazy: keep base import-light

        return measure_backend_rates(self, budget_ms=budget_ms, refresh=refresh)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, exact={self.exact})"


#: backend name -> Backend subclass.  Populated by :func:`register_backend`;
#: ``repro list backends``, the CLI flags and :class:`repro.serve.ServeConfig`
#: validation are all generated from this single table.
BACKENDS: Dict[str, Type[Backend]] = {}


def register_backend(cls: Type[Backend]) -> Type[Backend]:
    """Class decorator adding a :class:`Backend` subclass to the registry."""
    if not cls.name or cls.name != cls.name.lower():
        raise ValueError(f"backend name must be a non-empty lowercase string, "
                         f"got {cls.name!r}")
    BACKENDS[cls.name] = cls
    return cls


def backend_names() -> Tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(BACKENDS)


def backend_description(name: str) -> str:
    """First docstring line of a registered backend (for tables/help text)."""
    doc = BACKENDS[name].__doc__ or ""
    return next(iter(doc.strip().splitlines()), "")


def get_backend(backend: Union[str, Backend, None] = None) -> Backend:
    """Resolve a backend argument to a fresh :class:`Backend` instance.

    ``None`` means the reference ``numpy`` backend; strings are looked up
    case-insensitively in :data:`BACKENDS`; instances pass through untouched
    (callers that pre-configured one, e.g. a thread count, keep it).
    """
    if isinstance(backend, Backend):
        return backend
    name = "numpy" if backend is None else str(backend).strip().lower()
    cls = BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown backend '{backend}'; registered backends: "
            f"{', '.join(backend_names())}")
    return cls()
