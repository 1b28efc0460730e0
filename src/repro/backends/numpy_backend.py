"""The reference backend: single-threaded NumPy, the eager numerics.

All primitives are inherited from :class:`repro.backends.Backend` — the base
class *is* the reference implementation (every method performs the exact
arithmetic of the eager forward, operation for operation).  This module only
gives it a registry entry, so ``compile_model(model, backend="numpy")`` and
the default ``backend=None`` mean the same thing and both appear in
``repro list backends``.
"""

from __future__ import annotations

from .base import Backend, register_backend


@register_backend
class NumpyBackend(Backend):
    """Reference single-threaded NumPy execution (bit-identical to eager)."""

    name = "numpy"
