"""Primitive differentiable operations grouped by family."""

from . import conv, elementwise, matmul, norm, reduce, shape

__all__ = ["conv", "elementwise", "matmul", "norm", "reduce", "shape"]
