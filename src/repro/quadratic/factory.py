"""Factory helpers mirroring the paper's ``qua.type#()`` construction API.

The paper's code example builds models with calls like ``qua.type1(...)`` or
``qua.typenew(...)``.  This module exposes exactly that surface: every call
returns a ready-to-use layer module for the requested neuron type, choosing
the dense or convolutional implementation from the arguments.
"""

from __future__ import annotations

from typing import Optional

from ..nn.module import Module
from .functional import COMBINE_READS
from .layers.qconv import QuadraticConv2d, QuadraticConv2dT1
from .layers.qlinear import QuadraticLinear
from .neuron_types import ALIASES, available_types, resolve_type


def quadratic_layer(neuron_type: str, in_features: int, out_features: int,
                    kernel_size: Optional[int] = None, stride: int = 1, padding: int = 0,
                    groups: int = 1, bias: bool = True,
                    hybrid_bp: bool = False) -> Module:
    """Create a quadratic layer of any registered type.

    If ``kernel_size`` is given a convolutional layer is built, otherwise a
    dense one.  ``hybrid_bp=True`` sets the layer's ``recompute`` (hybrid
    back-propagation: backward recomputes the responses instead of keeping
    them) on every composable design; the full-rank T1 family trains as a
    composed graph and ignores it.

    Raises
    ------
    ValueError
        If ``neuron_type`` is not a registered design or alias; the message
        lists every registered neuron type.
    """
    try:
        spec = resolve_type(neuron_type)
    except KeyError:
        # Regenerated from the registries on every raise, so newly registered
        # designs / aliases can never go missing here.
        raise ValueError(
            f"unknown neuron type {neuron_type!r} for quadratic_layer(); "
            f"registered neuron types: {', '.join(available_types())} "
            f"(aliases: {', '.join(sorted(ALIASES))}; hybrid_bp recomputes the "
            f"responses of: {', '.join(sorted(COMBINE_READS))})"
        ) from None
    if kernel_size is None:
        layer = QuadraticLinear(in_features, out_features, neuron_type=spec.name, bias=bias)
    elif spec.full_rank:
        return QuadraticConv2dT1(in_features, out_features, kernel_size=kernel_size,
                                 stride=stride, padding=padding, neuron_type=spec.name,
                                 bias=bias)
    else:
        layer = QuadraticConv2d(in_features, out_features, kernel_size=kernel_size,
                                stride=stride, padding=padding, groups=groups,
                                neuron_type=spec.name, bias=bias)
    if hybrid_bp and not spec.full_rank:
        layer.recompute = True
    return layer


def _make_factory(type_name: str):
    def factory(in_features: int, out_features: int, **kwargs) -> Module:
        return quadratic_layer(type_name, in_features, out_features, **kwargs)

    factory.__name__ = f"type_{type_name.lower()}"
    factory.__doc__ = (
        f"Create a quadratic layer with the {type_name} neuron design "
        f"({resolve_type(type_name).formula}). See :func:`quadratic_layer`."
    )
    return factory


#: ``qua.type#()``-style constructors, matching the paper's API naming.
type1 = _make_factory("T1")
type2 = _make_factory("T2")
type3 = _make_factory("T3")
type4 = _make_factory("T4")
type4_identity = _make_factory("T4_ID")
type_fan = _make_factory("T2_4")
typenew = _make_factory("OURS")
ours = typenew
