"""``repro.backends`` — pluggable compute backends for compiled inference.

One :class:`Backend` object supplies every numerical primitive the compiled
inference path executes (GEMM, ``im2col``, grouped conv projections, the
fused quadratic combination, pooling, element-wise glue and scratch-buffer
allocation).  The compiler's emitters dispatch through it instead of calling
NumPy directly, so execution engines are swappable per compile:

>>> from repro.inference import compile_model
>>> compiled = compile_model(model, backend="threaded")   # all cores, exact

Registered engines live in :data:`BACKENDS`; ``repro list backends`` prints
the table.  Every engine reproduces the reference bits.  New engines
subclass :class:`Backend`, override the primitives they accelerate and
self-register:

>>> from repro.backends import Backend, register_backend
>>> @register_backend
... class MyBackend(Backend):
...     '''My accelerated engine.'''
...     name = "mybackend"
"""

from .base import (
    BACKENDS,
    Backend,
    backend_description,
    backend_names,
    get_backend,
    register_backend,
)
from .rates import KernelRates, measure_backend_rates
# Imported in registration order: the reference engine lists first wherever
# the registry is printed (CLI tables, help text, error messages).
from .numpy_backend import NumpyBackend
from .threaded import ThreadedBackend

__all__ = [
    "BACKENDS",
    "Backend",
    "NumpyBackend",
    "ThreadedBackend",
    "KernelRates",
    "measure_backend_rates",
    "backend_description",
    "backend_names",
    "get_backend",
    "register_backend",
]
