"""``repro.quadratic`` — the paper's core contribution.

Quadratic neuron taxonomy (Table 1), quadratic dense/convolution layers for
every design, the new ``(Wa X) ∘ (Wb X) + Wc X`` neuron, hybrid
back-propagation as a per-layer ``recompute`` setting, the analytical
complexity model and gradient-flow analysis utilities.

Typical usage mirrors the paper's ``import QuadraNeuron as qua`` example::

    from repro import quadratic as qua
    layer = qua.typenew(64, 128, kernel_size=3, padding=1)   # our neuron
    legacy = qua.type2(64, 128, kernel_size=3, padding=1)     # Goyal et al.
"""

from . import complexity, gradients
from .factory import (
    ours,
    quadratic_layer,
    type1,
    type2,
    type3,
    type4,
    type4_identity,
    type_fan,
    typenew,
)
from .functional import COMBINERS, REQUIRED_RESPONSES
from .gradients import GradientFlowProbe, theoretical_attenuation, vanishing_depth
from .layers import (
    HybridQuadraticConv2d,
    HybridQuadraticLinear,
    QuadraticConv2d,
    QuadraticConv2dT1,
    QuadraticLayerBase,
    QuadraticLinear,
)
from .neuron_types import ALIASES, NEURON_TYPES, NeuronSpec, available_types, resolve_type
from .polynomial import PolyConv2d, PolyLinear, polynomial_layer

__all__ = [
    "NeuronSpec",
    "NEURON_TYPES",
    "ALIASES",
    "resolve_type",
    "available_types",
    "QuadraticLayerBase",
    "QuadraticLinear",
    "QuadraticConv2d",
    "QuadraticConv2dT1",
    "HybridQuadraticConv2d",
    "HybridQuadraticLinear",
    "quadratic_layer",
    "type1",
    "type2",
    "type3",
    "type4",
    "type4_identity",
    "type_fan",
    "typenew",
    "ours",
    "PolyLinear",
    "PolyConv2d",
    "polynomial_layer",
    "complexity",
    "gradients",
    "GradientFlowProbe",
    "theoretical_attenuation",
    "vanishing_depth",
    "COMBINERS",
    "REQUIRED_RESPONSES",
]
