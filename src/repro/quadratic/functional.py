"""Functional forms of the quadratic neuron computations.

Every quadratic neuron in the library is evaluated in two stages, and this
module is the single place where that split is defined:

* **Projection** — first-order responses of the input, computed with the
  standard linear/conv primitives a layer owns: ``Wa X``, ``Wb X``, ``Wc X``,
  the squared-input projection ``W X²``, the raw identity path ``X`` and (for
  the T1 family only) the full-rank bilinear term ``Xᵀ W X``.  Projections
  live in the layer classes (:mod:`repro.quadratic.layers`), because they
  depend on the layer kind (dense vs convolutional).
* **Combination** — the cheap element-wise step that assembles those
  responses into the neuron output: Hadamard products and sums.  Combinations
  live here, as one ``combine_*`` function per neuron type, because they are
  identical for dense and convolutional layers.

Keeping the combination separate from the projection is what makes the
paper's implementation-feasibility point concrete (P4): every quadratic
design except T1 can be assembled from first-order layers plus element-wise
operations that any DNN library already provides.

Two parallel families are exposed:

* ``combine_*`` / ``COMBINERS`` operate on autodiff :class:`Tensor` values and
  participate in the gradient graph — the training path of the dense and
  full-rank layers.
* ``fused_combine_*`` / ``FUSED_COMBINERS`` operate on raw NumPy arrays and
  fuse the Hadamard-product-plus-sum into ``multiply``/``add`` calls with
  ``out=`` buffers — the inference path used by :mod:`repro.inference`,
  where no graph is recorded and intermediate allocations can be recycled
  across calls.  The element-wise primitives are resolved through the
  ``ops`` argument (default: NumPy itself) so a compute backend
  (:mod:`repro.backends`) can redirect them by passing itself — the fused
  kernels dispatch through the backend rather than hard-wiring NumPy.  The
  single-node quadratic convolution
  (:class:`~repro.quadratic.layers.qconv.QuadraticConv2dFunction`) combines
  its forward with them too, so training and inference share the bits.

``COMBINE_BACKWARDS`` / ``COMBINE_READS`` give the gradient of each composable
combination with respect to its responses, and which responses it reads: the
backward of that node, and what it keeps for it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..autodiff.tensor import Tensor


def combine_t2(square_response: Tensor) -> Tensor:
    """T2 (Goyal et al.): ``Wa X²`` — the projection of the squared input,
    already projected, so the combination is the identity."""
    return square_response


def combine_t3(response_a: Tensor) -> Tensor:
    """T3 (Bu & Karpatne): ``(Wa X)²`` — square of a first-order response."""
    return response_a * response_a


def combine_t4(response_a: Tensor, response_b: Tensor) -> Tensor:
    """T4 (Bu & Karpatne): ``(Wa X) ∘ (Wb X)`` — Hadamard product of two
    first-order responses."""
    return response_a * response_b


def combine_t4_identity(response_a: Tensor, response_b: Tensor, identity: Tensor) -> Tensor:
    """T4 + identity mapping: ``(Wa X) ∘ (Wb X) + X`` (Table 2 baseline)."""
    return response_a * response_b + identity


def combine_t2_4(response_a: Tensor, response_b: Tensor, square_response: Tensor) -> Tensor:
    """T2&4 (Fan et al., 2018): ``(Wa X) ∘ (Wb X) + Wc X²``."""
    return response_a * response_b + square_response


def combine_ours(response_a: Tensor, response_b: Tensor, linear_response: Tensor) -> Tensor:
    """The paper's neuron (Eq. 2): ``(Wa X) ∘ (Wb X) + Wc X``.

    The linear term both adds approximation capability (extra polynomial
    orders, Sec. 3.2 Eq. 3) and acts as an identity-style path that keeps
    gradients alive in deep plain networks (Sec. 3.2 Eq. 4).
    """
    return response_a * response_b + linear_response


def combine_t1(bilinear_response: Tensor, linear_response: Optional[Tensor] = None) -> Tensor:
    """T1 (Cheung & Leung): ``Xᵀ Wa X + Wb X`` — the full-rank bilinear term
    plus an optional linear term (omit it for the pure ``Xᵀ Wa X`` variant)."""
    if linear_response is None:
        return bilinear_response
    return bilinear_response + linear_response


def combine_t1_2(bilinear_response: Tensor, square_response: Tensor) -> Tensor:
    """T1&2 (Milenkovic et al., 1996): ``Xᵀ Wa X + Wb X²``."""
    return bilinear_response + square_response


#: Which first-order responses each neuron type needs.  Keys are canonical
#: type names; values are the projection kinds, in the order the ``combine_*``
#: function expects them.  ``"a"``/``"b"``/``"c"`` are plain projections of X,
#: ``"sq"`` is a projection of X², ``"bilinear"`` is the full-rank Xᵀ W X term
#: and ``"id"`` is the un-projected input.
REQUIRED_RESPONSES: Dict[str, tuple] = {
    "T1": ("bilinear", "b"),
    "T1_PURE": ("bilinear",),
    "T2": ("sq",),
    "T3": ("a",),
    "T4": ("a", "b"),
    "T4_ID": ("a", "b", "id"),
    "T1_2": ("bilinear", "sq"),
    "T2_4": ("a", "b", "sq"),
    "OURS": ("a", "b", "c"),
}

#: Combination function per canonical type name (autodiff / training path).
COMBINERS: Dict[str, Callable[..., Tensor]] = {
    "T1": combine_t1,
    "T1_PURE": combine_t1,
    "T2": combine_t2,
    "T3": combine_t3,
    "T4": combine_t4,
    "T4_ID": combine_t4_identity,
    "T1_2": combine_t1_2,
    "T2_4": combine_t2_4,
    "OURS": combine_ours,
}


# --------------------------------------------------------------------------- #
# Fused raw-ndarray combiners (inference path)
# --------------------------------------------------------------------------- #
#
# Each fused combiner computes exactly the same arithmetic as its Tensor
# counterpart above — same operations, same order, so compiled inference
# outputs are bit-identical to the eager forward — but writes through an
# ``out=`` buffer so the quadratic combination performs no allocation at all
# when the caller recycles buffers across calls (repro.inference.BufferPool).
# ``ops`` supplies the element-wise primitives (``multiply``/``add``/
# ``copyto`` with NumPy ufunc signatures); compute backends pass themselves.

def fused_combine_t2(sq: np.ndarray, out: Optional[np.ndarray] = None,
                     ops=np) -> np.ndarray:
    """T2: the combination is the identity; copy only when a buffer is given."""
    if out is None:
        return sq
    ops.copyto(out, sq)
    return out


def fused_combine_t3(a: np.ndarray, out: Optional[np.ndarray] = None,
                     ops=np) -> np.ndarray:
    """T3: ``a²`` in one ``multiply`` pass."""
    return ops.multiply(a, a, out=out)


def fused_combine_t4(a: np.ndarray, b: np.ndarray,
                     out: Optional[np.ndarray] = None, ops=np) -> np.ndarray:
    """T4: ``a ∘ b`` in one ``multiply`` pass."""
    return ops.multiply(a, b, out=out)


def fused_combine_t4_identity(a: np.ndarray, b: np.ndarray, identity: np.ndarray,
                              out: Optional[np.ndarray] = None, ops=np) -> np.ndarray:
    """T4_ID: ``a ∘ b + X`` — one multiply, one add, zero temporaries."""
    out = ops.multiply(a, b, out=out)
    return ops.add(out, identity, out=out)


def fused_combine_t2_4(a: np.ndarray, b: np.ndarray, sq: np.ndarray,
                       out: Optional[np.ndarray] = None, ops=np) -> np.ndarray:
    """T2&4: ``a ∘ b + Wc X²`` — one multiply, one add."""
    out = ops.multiply(a, b, out=out)
    return ops.add(out, sq, out=out)


def fused_combine_ours(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                       out: Optional[np.ndarray] = None, ops=np) -> np.ndarray:
    """The paper's neuron: ``a ∘ b + c`` — one multiply, one add."""
    out = ops.multiply(a, b, out=out)
    return ops.add(out, c, out=out)


def fused_combine_t1(bilinear: np.ndarray, linear: Optional[np.ndarray] = None,
                     out: Optional[np.ndarray] = None, ops=np) -> np.ndarray:
    """T1: bilinear term plus optional linear term."""
    if linear is None:
        if out is None:
            return bilinear
        ops.copyto(out, bilinear)
        return out
    return ops.add(bilinear, linear, out=out)


def fused_combine_t1_2(bilinear: np.ndarray, sq: np.ndarray,
                       out: Optional[np.ndarray] = None, ops=np) -> np.ndarray:
    """T1&2: ``Xᵀ Wa X + Wb X²`` — a single add."""
    return ops.add(bilinear, sq, out=out)


#: Fused combination function per canonical type name (inference path).
#: Signatures mirror ``COMBINERS`` with trailing optional ``out=`` buffer and
#: ``ops=`` element-wise provider (NumPy or a :class:`repro.backends.Backend`).
FUSED_COMBINERS: Dict[str, Callable[..., np.ndarray]] = {
    "T1": fused_combine_t1,
    "T1_PURE": fused_combine_t1,
    "T2": fused_combine_t2,
    "T3": fused_combine_t3,
    "T4": fused_combine_t4,
    "T4_ID": fused_combine_t4_identity,
    "T1_2": fused_combine_t1_2,
    "T2_4": fused_combine_t2_4,
    "OURS": fused_combine_ours,
}


# --------------------------------------------------------------------------- #
# Combination backward (single-node quadratic convolution)
# --------------------------------------------------------------------------- #
#
# ``COMBINE_BACKWARDS[type](grad, *read)`` returns the gradient of the loss
# with respect to each response of ``REQUIRED_RESPONSES[type]``, in order,
# given the gradient with respect to the combined output.  ``read`` are the
# responses named by ``COMBINE_READS[type]`` — the only ones the combination's
# backward needs, hence the only ones a single-node layer has to keep (or, under
# hybrid back-propagation, recompute).  The products are the ones the composed
# ``Mul``/``Add`` graph computes.

def combine_backward_t2(grad: np.ndarray) -> tuple:
    """T2: the identity combination passes the gradient through."""
    return (grad,)


def combine_backward_t3(grad: np.ndarray, a: np.ndarray) -> tuple:
    """T3: ``∂(a ∘ a)/∂a``, summed as the composed graph sums its two operands."""
    half = grad * a
    return (half + half,)


def combine_backward_t4(grad: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """T4: ``∂(a ∘ b)`` — each factor's gradient is the other factor times ``grad``."""
    return grad * b, grad * a


def combine_backward_t4_plus(grad: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple:
    """T4_ID, T2&4 and OURS: ``a ∘ b`` plus a third response that passes ``grad`` through."""
    return grad * b, grad * a, grad


#: Responses each combination's backward reads, per composable type name.
COMBINE_READS: Dict[str, tuple] = {
    "T2": (),
    "T3": ("a",),
    "T4": ("a", "b"),
    "T4_ID": ("a", "b"),
    "T2_4": ("a", "b"),
    "OURS": ("a", "b"),
}

#: Gradient of each combination with respect to its responses (raw arrays).
COMBINE_BACKWARDS: Dict[str, Callable[..., tuple]] = {
    "T2": combine_backward_t2,
    "T3": combine_backward_t3,
    "T4": combine_backward_t4,
    "T4_ID": combine_backward_t4_plus,
    "T2_4": combine_backward_t4_plus,
    "OURS": combine_backward_t4_plus,
}
