"""Differentiable operation base class.

Every primitive operation in the autodiff engine is a subclass of
:class:`Function`.  A ``Function`` mirrors ``torch.autograd.Function``:

* ``forward(ctx, *arrays, **kwargs)`` computes the result from raw NumPy
  arrays and may stash whatever it needs for the backward pass through
  ``ctx.save_for_backward``.
* ``backward(ctx, grad_output)`` receives the gradient of the loss with
  respect to the output (a NumPy array) and returns one gradient per tensor
  input, aligned positionally, using ``None`` for inputs that do not require
  gradients.

``Function.apply`` is the user-facing entry point: it unwraps tensor inputs,
runs ``forward``, wraps the result in a new :class:`~repro.autodiff.tensor.Tensor`
and, when gradient mode is active, records the node in the dynamic graph.

This module is the key substrate piece behind QuadraLib's hybrid
back-propagation (paper Sec. 4.3): a quadratic convolution is a single
``Function`` with a hand-derived backward rather than a graph of small nodes
(one convolution per projection plus the Hadamard product), and what that node
saves for backward is a policy — the responses its backward reads by default,
only the layer input and weights under hybrid BP, which recomputes the rest.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from . import hooks
from .grad_mode import is_grad_enabled


def _nbytes(arrays: Sequence[np.ndarray]) -> int:
    """Total byte size of a collection of arrays (non-arrays count as zero)."""
    total = 0
    for a in arrays:
        if isinstance(a, np.ndarray):
            total += a.nbytes
    return total


class Context:
    """Per-node storage connecting a forward call with its backward call.

    A context holds three things:

    * ``parents`` — the input :class:`Tensor` objects, used by the engine to
      route gradients further down the graph;
    * ``saved_tensors`` — the NumPy arrays the operation stashed during the
      forward pass (reported to the memory profiler through
      :mod:`repro.autodiff.hooks`);
    * arbitrary attributes assigned by ``forward`` (e.g. ``ctx.stride = 2``).
    """

    __slots__ = ("parents", "needs_input_grad", "_saved", "_saved_nbytes",
                 "op_name", "__dict__")

    def __init__(self, op_name: str = "") -> None:
        self.parents: Tuple[Any, ...] = ()
        self.needs_input_grad: Tuple[bool, ...] = ()
        self._saved: Tuple[np.ndarray, ...] = ()
        self._saved_nbytes: int = 0
        self.op_name = op_name

    # -- saved-tensor management -------------------------------------------------
    def save_for_backward(self, *arrays: np.ndarray) -> None:
        """Cache arrays needed by ``backward`` and report their footprint.

        When gradient mode is disabled nothing is cached at all (inference
        never calls backward), which keeps ``no_grad`` evaluation memory-flat —
        the behaviour the memory profiler relies on.
        """
        if not is_grad_enabled():
            return
        self._saved = arrays
        self._saved_nbytes = _nbytes(arrays)
        if self._saved_nbytes and hooks.has_observers():
            hooks.notify("save", self._saved_nbytes, self.op_name)

    @property
    def saved_tensors(self) -> Tuple[np.ndarray, ...]:
        """Arrays cached during the forward pass."""
        return self._saved

    def release_saved(self) -> None:
        """Drop cached arrays after backward consumed them (frees memory)."""
        if self._saved_nbytes and hooks.has_observers():
            hooks.notify("release", self._saved_nbytes, self.op_name)
        self._saved = ()
        self._saved_nbytes = 0

    @property
    def saved_nbytes(self) -> int:
        """Bytes currently cached for the backward pass of this node."""
        return self._saved_nbytes

    # -- engine interface ---------------------------------------------------------
    def backward(self, grad_output: np.ndarray):  # pragma: no cover - overridden
        raise NotImplementedError


class _FunctionContext(Context):
    """Context flavour whose backward dispatches to the owning Function class."""

    __slots__ = ("fn_cls",)

    def __init__(self, fn_cls: type) -> None:
        super().__init__(op_name=fn_cls.__name__)
        self.fn_cls = fn_cls

    def backward(self, grad_output: np.ndarray):
        return self.fn_cls.backward(self, grad_output)


class Function:
    """Base class for differentiable primitives (see module docstring)."""

    @staticmethod
    def forward(ctx: Context, *args, **kwargs) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad_output: np.ndarray):
        raise NotImplementedError

    @classmethod
    def apply(cls, *args, **kwargs):
        """Run the op on tensors/arrays/scalars and record it in the graph."""
        from .tensor import Tensor  # deferred to avoid a circular import

        ctx = _FunctionContext(cls)

        if not is_grad_enabled():
            # Inference fast path: nothing will ever call backward, so skip
            # the parent bookkeeping and the requires_grad propagation scan
            # entirely.  save_for_backward is already a no-op in this mode.
            raw = [a.data if isinstance(a, Tensor) else a for a in args]
            return Tensor(cls.forward(ctx, *raw, **kwargs), _copy=False)

        raw_args: List[Any] = []
        tensor_inputs: List[Optional["Tensor"]] = []
        for a in args:
            if isinstance(a, Tensor):
                raw_args.append(a.data)
                tensor_inputs.append(a)
            else:
                raw_args.append(a)
                tensor_inputs.append(None)

        out_data = cls.forward(ctx, *raw_args, **kwargs)

        requires_grad = any(
            t is not None and t.requires_grad for t in tensor_inputs
        )

        out = Tensor(out_data, requires_grad=requires_grad, _copy=False)
        if requires_grad:
            ctx.parents = tuple(tensor_inputs)
            ctx.needs_input_grad = tuple(
                t is not None and t.requires_grad for t in tensor_inputs
            )
            out._ctx = ctx
        else:
            # Nothing will ever call backward on this node; free eagerly.
            ctx.release_saved()
        return out


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after NumPy broadcasting.

    Broadcasting in the forward pass implicitly replicates values; the
    corresponding backward operation sums gradients over the replicated axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)
