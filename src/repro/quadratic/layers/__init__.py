"""Quadratic layer modules."""

from .base import QuadraticLayerBase
from .qconv import (HybridQuadraticConv2d, QuadraticConv2d, QuadraticConv2dFunction,
                    QuadraticConv2dT1)
from .qlinear import HybridQuadraticLinear, QuadraticLinear, QuadraticLinearFunction

__all__ = [
    "QuadraticLayerBase",
    "QuadraticLinear",
    "QuadraticLinearFunction",
    "QuadraticConv2d",
    "QuadraticConv2dT1",
    "QuadraticConv2dFunction",
    "HybridQuadraticConv2d",
    "HybridQuadraticLinear",
]
