"""Parameter and MAC counting by module traversal.

Produces the ``#Param`` column of Table 3 and feeds the RI layer-performance
indicator (Eq. 5) with the per-layer parameter and computation ratios it
needs.  Counting is shape-aware: a probe input is pushed through the model
with forward hooks attached
(:func:`repro.inference.lowering.probe_leaves`), so output resolutions (and
hence conv MACs) are exact rather than estimated, and each leaf is priced by
its layer kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..nn.module import Module


@dataclass
class LayerProfile:
    """Parameter count and MACs of a single leaf layer."""

    name: str
    layer_type: str
    parameters: int
    macs: int
    output_shape: Tuple[int, ...] = ()
    #: the layer's kind (:data:`repro.inference.lowering.KINDS`), if any.
    kind: Optional[str] = None


@dataclass
class ModelProfile:
    """Aggregate profile of a model."""

    layers: List[LayerProfile] = field(default_factory=list)

    @property
    def total_parameters(self) -> int:
        return sum(l.parameters for l in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    def by_name(self, name: str) -> LayerProfile:
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"no layer named '{name}' in profile")


def _weights(module: Module) -> List[np.ndarray]:
    return [p for n, p in module._parameters.items() if n.startswith("weight")]


def _conv_macs(out_shape: Tuple[int, ...], weight_shape: Tuple[int, ...],
               n_weight_sets: int = 1, elementwise: int = 0) -> int:
    # out_shape: (N, F, OH, OW); weight_shape: (F, C/g, kh, kw)
    n, f, oh, ow = out_shape
    _, c_g, kh, kw = weight_shape
    per_position = c_g * kh * kw
    return n * (n_weight_sets * f * per_position + elementwise * f) * oh * ow


def _rows(out_shape: Tuple[int, ...]) -> int:
    return int(np.prod(out_shape[:-1]))


#: layer kind -> MACs of one leaf at its output shape.  Other leaves with
#: parameters (BatchNorm and friends) cost one MAC per output element.
_MACS = {
    "conv": lambda m, out: _conv_macs(out, m.weight.shape),
    # Every first-order projection, plus the element-wise combine.
    "quadratic_conv": lambda m, out: _conv_macs(out, _weights(m)[0].shape,
                                                len(_weights(m)), elementwise=2),
    "bilinear_conv": lambda m, out: int(np.prod(out)) * m.patch_size * m.patch_size,
    "linear": lambda m, out: m.in_features * m.out_features * _rows(out),
    "quadratic_linear": lambda m, out: (len(_weights(m)) * m.in_features
                                        * m.out_features * _rows(out)),
}


def profile_model(model: Module, input_shape: Tuple[int, int, int],
                  batch_size: int = 1) -> ModelProfile:
    """Profile parameters and MACs of every leaf layer with a probe forward pass.

    Every count scales with ``batch_size``.
    """
    # Imported here: the lowering knows the zoo's blocks, and the zoo builds
    # through the builder, whose layer indicator imports this module.
    from ..inference.lowering import probe_leaves

    return profile_leaves(probe_leaves(model, input_shape, batch_size), batch_size)


def profile_leaves(leaves, batch_size: int = 1) -> ModelProfile:
    """The profile of already-probed leaves
    (:func:`repro.inference.lowering.probe_leaves`), for callers that need
    the probe for more than MACs."""
    profile = ModelProfile()
    for leaf in leaves:
        module = leaf.module
        out_shape = leaf.calls[-1][1] if leaf.calls else (batch_size,)
        params = sum(p.size for p in module._parameters.values() if p is not None)
        count = _MACS.get(leaf.kind)
        if count is not None:
            macs = count(module, out_shape)
        elif params:
            macs = int(np.prod(out_shape))
        else:
            continue
        profile.layers.append(LayerProfile(leaf.name, type(module).__name__, params,
                                           macs, out_shape, leaf.kind))
    return profile


def count_parameters(model: Module) -> int:
    """Trainable parameter count (the paper's #Param column)."""
    return model.num_parameters()
