r"""Higher-order polynomial layers (Π-nets / PolyNet style).

Table 5 of the paper compares the quadratic SNGAN against *PolyNet* (Chrysos
et al., 2020), whose Π-net blocks build polynomials of arbitrary order through
a coupled CP-decomposition recursion.  This module implements that family so
the comparison baseline exists in the library and so QuadraLib users can
explore orders beyond two:

.. math::

    x_1 &= U_1 z \\
    x_n &= (U_n z) \circ x_{n-1} + x_{n-1}, \qquad n = 2 \dots N \\
    f(z) &= x_N + b

where every :math:`U_n` is an ordinary first-order projection (dense matrix or
convolution) of the *input* :math:`z` and :math:`\circ` is the Hadamard
product.  The composition is a degree-:math:`N` polynomial in :math:`z`.

Relation to the paper's neuron: at order 2 the recursion gives
``(U_2 z) ∘ (U_1 z) + U_1 z`` — exactly Eq. 2 with the weight of the Hadamard
factor tied to the weight of the linear term (``Wb = Wc``).  The untied
quadratic layer (:class:`~repro.quadratic.QuadraticConv2d` with type
``OURS``) is therefore the more expressive order-2 special case, while this
module provides the general-order extension.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from ..autodiff.tensor import Tensor
from ..nn import init
from ..nn.containers import ModuleList
from ..nn.layers.conv import Conv2d
from ..nn.layers.linear import Linear
from ..nn.module import Module
from ..nn.parameter import Parameter

IntOrPair = Union[int, Tuple[int, int]]


class _PolynomialBase(Module):
    """Shared recursion over per-order projections of the input."""

    def __init__(self, order: int) -> None:
        super().__init__()
        if order < 1:
            raise ValueError(f"polynomial order must be at least 1, got {order}")
        self.order = int(order)
        self.projections = ModuleList()

    def _project(self, index: int, z: Tensor) -> Tensor:
        return self.projections[index](z)

    def _combine(self, z: Tensor) -> Tensor:
        out = self._project(0, z)
        for n in range(1, self.order):
            out = self._project(n, z) * out + out
        return out

    def extra_repr(self) -> str:
        return f"order={self.order}"


class PolyLinear(_PolynomialBase):
    """Dense Π-net layer: a degree-``order`` polynomial of the input vector.

    Parameters
    ----------
    in_features, out_features : int
        Input and output dimensionality (all intermediate recursion states
        live in the output space, as in the CCP formulation).
    order : int
        Polynomial degree; ``order=1`` reduces to an ordinary linear layer.
    bias : bool
        Learn an additive bias applied after the recursion.
    """

    def __init__(self, in_features: int, out_features: int, order: int = 2,
                 bias: bool = True) -> None:
        super().__init__(order)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        for _ in range(self.order):
            self.projections.append(Linear(in_features, out_features, bias=False))
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, z: Tensor) -> Tensor:
        out = self._combine(z)
        if self.bias is not None:
            out = out + self.bias
        return out

    def extra_repr(self) -> str:
        return (f"{self.in_features}, {self.out_features}, order={self.order}, "
                f"bias={self.bias is not None}")


class PolyConv2d(_PolynomialBase):
    """Convolutional Π-net layer over NCHW tensors.

    Every order owns one first-order convolution of the input; all orders use
    the same kernel size / stride / padding so the recursion states share a
    spatial resolution.  ``order=1`` reduces to an ordinary convolution,
    ``order=2`` is the weight-tied variant of the paper's quadratic neuron.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: IntOrPair = 3,
                 stride: IntOrPair = 1, padding: IntOrPair = 0, order: int = 2,
                 groups: int = 1, bias: bool = True) -> None:
        super().__init__(order)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = int(groups)
        for _ in range(self.order):
            self.projections.append(Conv2d(in_channels, out_channels, kernel_size,
                                           stride=stride, padding=padding, groups=groups,
                                           bias=False))
        self.bias: Optional[Parameter] = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, z: Tensor) -> Tensor:
        out = self._combine(z)
        if self.bias is not None:
            out = out + self.bias.reshape((1, self.out_channels, 1, 1))
        return out

    def extra_repr(self) -> str:
        return (f"{self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
                f"order={self.order}, bias={self.bias is not None}")


def polynomial_layer(in_features: int, out_features: int, order: int = 2,
                     kernel_size: Optional[int] = None, stride: int = 1, padding: int = 0,
                     groups: int = 1, bias: bool = True) -> Module:
    """Factory mirroring :func:`repro.quadratic.quadratic_layer` for Π-net layers.

    A convolutional layer is built when ``kernel_size`` is given, a dense one
    otherwise.
    """
    if kernel_size is None:
        return PolyLinear(in_features, out_features, order=order, bias=bias)
    return PolyConv2d(in_features, out_features, kernel_size=kernel_size, stride=stride,
                      padding=padding, order=order, groups=groups, bias=bias)
