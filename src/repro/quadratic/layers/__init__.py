"""Quadratic layer modules."""

from .base import QuadraticLayerBase
from .hybrid import (
    HybridQuadraticConv2d,
    HybridQuadraticConv2dFan,
    HybridQuadraticConv2dT4,
    HybridQuadraticLinear,
    HybridQuadraticLinearFunction,
)
from .qconv import QuadraticConv2d, QuadraticConv2dFunction, QuadraticConv2dT1
from .qlinear import QuadraticLinear

__all__ = [
    "QuadraticLayerBase",
    "QuadraticLinear",
    "QuadraticConv2d",
    "QuadraticConv2dT1",
    "QuadraticConv2dFunction",
    "HybridQuadraticConv2d",
    "HybridQuadraticConv2dT4",
    "HybridQuadraticConv2dFan",
    "HybridQuadraticLinear",
    "HybridQuadraticLinearFunction",
]
