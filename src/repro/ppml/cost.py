"""Operation counting and PPML cost estimation for whole models.

The analysis walks a model once with a probe input
(:func:`repro.inference.lowering.probe_leaves`), records the shapes of every
leaf layer's calls, and counts each layer by its kind into the three online
primitives a hybrid PPML protocol distinguishes:

* ``macs`` — multiply-accumulates inside linear / convolution layers
  (pre-processed or HE-evaluated, cheap per-op),
* ``relu_ops`` — non-linear comparisons (ReLU, LeakyReLU, max-pooling),
  evaluated with garbled circuits in hybrid protocols and impossible in
  HE-only protocols,
* ``mult_ops`` — secure element-wise multiplications (square activations and
  the Hadamard products inside quadratic layers), one Beaver triple each.

Combining the counts with a :class:`~repro.ppml.protocols.Protocol` gives the
per-layer and total online cost, which is the quantity the paper's PPML
motivation is about: converting ReLU networks to quadratic ones moves the
dominant cost from the ``relu_ops`` column to the much cheaper ``mult_ops``
column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..autodiff.ops.conv import _pair
from ..inference.lowering import probe_leaves
from ..nn.module import Module
from ..quadratic.functional import REQUIRED_RESPONSES
from ..utils.logging import format_table
from .protocols import Protocol, ProtocolCost, resolve_protocol


@dataclass
class LayerOperations:
    """Online-operation counts of one leaf layer."""

    name: str
    layer_type: str
    macs: int = 0
    relu_ops: int = 0
    mult_ops: int = 0
    output_shape: Tuple[int, ...] = ()
    #: forward invocations the counts cover — modules shared across call
    #: sites (e.g. the one ReLU a residual block applies twice) accumulate.
    calls: int = 1

    @property
    def is_nonlinear(self) -> bool:
        return self.relu_ops > 0 or self.mult_ops > 0


@dataclass
class LayerCost:
    """Per-layer online cost under one protocol."""

    operations: LayerOperations
    linear: ProtocolCost
    relu: ProtocolCost
    mult: ProtocolCost

    @property
    def total(self) -> ProtocolCost:
        return self.linear + self.relu + self.mult


@dataclass
class CostReport:
    """Total online cost of a model under one protocol."""

    protocol: Protocol
    layers: List[LayerCost] = field(default_factory=list)

    @property
    def total(self) -> ProtocolCost:
        total = ProtocolCost()
        for layer in self.layers:
            total += layer.total
        return total

    @property
    def relu_total(self) -> ProtocolCost:
        total = ProtocolCost()
        for layer in self.layers:
            total += layer.relu
        return total

    @property
    def mult_total(self) -> ProtocolCost:
        total = ProtocolCost()
        for layer in self.layers:
            total += layer.mult
        return total

    @property
    def relu_count(self) -> int:
        return sum(layer.operations.relu_ops for layer in self.layers)

    @property
    def mult_count(self) -> int:
        return sum(layer.operations.mult_ops for layer in self.layers)

    @property
    def multiplicative_depth(self) -> int:
        """Number of layers contributing secure multiplications (HE depth proxy)."""
        return sum(1 for layer in self.layers if layer.operations.mult_ops > 0)

    @property
    def runnable(self) -> bool:
        """Whether the model can be evaluated under the protocol at all."""
        if not self.total.finite():
            return False
        limit = self.protocol.multiplicative_depth_limit
        if limit and self.multiplicative_depth > limit:
            return False
        return True

    def relu_share(self) -> float:
        """Fraction of the total online latency spent in ReLU evaluations."""
        total = self.total.microseconds
        if not np.isfinite(total) or total == 0:
            return float("nan") if not np.isfinite(total) else 0.0
        return self.relu_total.microseconds / total


# --------------------------------------------------------------------------- #
# Operation counting
# --------------------------------------------------------------------------- #

def _elements(shape: Tuple[int, ...]) -> int:
    return int(np.prod(shape)) if shape else 0


def _conv_macs(out_shape: Tuple[int, ...], weight_shape: Tuple[int, ...]) -> int:
    n, f, oh, ow = out_shape
    _, c_g, kh, kw = weight_shape
    return n * f * c_g * kh * kw * oh * ow


def _quadratic_mult_ops(neuron_type: str, out_elements: int, in_elements: int) -> int:
    """Secure multiplications one quadratic layer needs, by neuron design.

    Designs with a Hadamard/self product (``"a"`` in the required responses)
    pay one Beaver triple per *output* element for the combination; designs
    with a squared-input projection (``"sq"``) additionally pay one per
    *input* element to form ``X²`` before the linear phase.  This is exactly
    what the secure runtime executes, so measured traces match these counts.
    """
    required = REQUIRED_RESPONSES[neuron_type]
    mult_ops = 0
    if "a" in required:
        mult_ops += out_elements
    if "sq" in required:
        mult_ops += in_elements
    return mult_ops


def _weights(module: Module) -> list:
    return [p for name, p in module._parameters.items() if name.startswith("weight")]


def _quadratic_conv(module, in_shape, out_shape) -> Dict[str, int]:
    weights = _weights(module)
    return {"macs": len(weights) * _conv_macs(out_shape, weights[0].shape),
            "mult_ops": _quadratic_mult_ops(module.neuron_type, _elements(out_shape),
                                            _elements(in_shape))}


def _bilinear_conv(module, in_shape, out_shape) -> Dict[str, int]:
    n, f, oh, ow = out_shape
    patch = module.patch_size
    return {"macs": n * f * patch * patch * oh * ow, "mult_ops": _elements(out_shape)}


def _quadratic_linear(module, in_shape, out_shape) -> Dict[str, int]:
    batch = _elements(out_shape[:-1])
    return {"macs": len(_weights(module)) * module.in_features * module.out_features * batch,
            "mult_ops": _quadratic_mult_ops(module.neuron_type, _elements(out_shape),
                                            _elements(in_shape))}


def _maxpool(module, in_shape, out_shape) -> Dict[str, int]:
    kh, kw = _pair(module.kernel_size)
    return {"relu_ops": _elements(out_shape) * max(kh * kw - 1, 1)}


def _comparisons(module, in_shape, out_shape) -> Dict[str, int]:
    # One garbled comparison per element.  Smooth non-polynomial activations
    # are at least as expensive in every published protocol; count them so.
    return {"relu_ops": _elements(out_shape)}


def _per_element_mac(module, in_shape, out_shape) -> Dict[str, int]:
    # Average pools: window sums are linear, the division by the (public)
    # window size is one scalar multiplication per output element.  At
    # inference BatchNorm folds into an affine map; LayerNorm costs one MAC
    # per element online.
    return {"macs": _elements(out_shape)}


#: layer kind -> counts of one call, from its input and output shapes.
#: Kinds missing here (softmax, shape plumbing, ...) are cost-free.
_COUNTERS = {
    "conv": lambda m, i, o: {"macs": _conv_macs(o, m.weight.shape)},
    "linear": lambda m, i, o: {"macs": m.in_features * m.out_features
                               * _elements(o[:-1])},
    "quadratic_conv": _quadratic_conv,
    "bilinear_conv": _bilinear_conv,
    "quadratic_linear": _quadratic_linear,
    "square": lambda m, i, o: {"mult_ops": _elements(o)},
    "relu": _comparisons,
    "leaky_relu": _comparisons,
    "gelu": _comparisons,
    "sigmoid": _comparisons,
    "tanh": _comparisons,
    "maxpool": _maxpool,
    "avgpool": _per_element_mac,
    "adaptive_avgpool": _per_element_mac,
    "global_avgpool": _per_element_mac,
    "batchnorm": _per_element_mac,
    "layernorm": _per_element_mac,
}


def count_operations(model: Module, input_shape: Tuple[int, int, int],
                     batch_size: int = 1) -> List[LayerOperations]:
    """Per-leaf-layer operation counts from a probe forward pass.

    Parameters
    ----------
    model : Module
        The network to analyse (not modified; evaluated in inference mode).
    input_shape : tuple
        Shape of one input sample, e.g. ``(3, 32, 32)``.
    batch_size : int
        Probe batch size; PPML protocols evaluate one query at a time, so the
        default of 1 matches the usual reporting convention.  Every count
        (MACs included) scales linearly with the batch, matching what the
        secure runtime measures on a batched execution.

    Each leaf is counted once per *invocation*: a module shared across call
    sites (a residual block's ReLU fires twice per forward) costs the
    protocol once per application, not once per Python object.
    """
    operations: List[LayerOperations] = []
    for leaf in probe_leaves(model, input_shape, batch_size):
        counter = _COUNTERS.get(leaf.kind)
        if counter is None or not leaf.calls:
            continue
        merged = LayerOperations(leaf.name, type(leaf.module).__name__, calls=0)
        for in_shape, out_shape in leaf.calls:
            counts = counter(leaf.module, in_shape, out_shape)
            merged.macs += counts.get("macs", 0)
            merged.relu_ops += counts.get("relu_ops", 0)
            merged.mult_ops += counts.get("mult_ops", 0)
            merged.output_shape = out_shape
            merged.calls += 1
        operations.append(merged)
    return operations


# --------------------------------------------------------------------------- #
# Cost estimation
# --------------------------------------------------------------------------- #

def estimate_cost(operations: Sequence[LayerOperations],
                  protocol: Union[str, Protocol]) -> CostReport:
    """Online cost of pre-counted operations under one protocol."""
    proto = resolve_protocol(protocol)
    report = CostReport(protocol=proto)
    for ops in operations:
        report.layers.append(LayerCost(
            operations=ops,
            linear=proto.linear_cost(ops.macs),
            relu=proto.relu_cost(ops.relu_ops),
            mult=proto.mult_cost(ops.mult_ops),
        ))
    return report


def analyse_model(model: Module, input_shape: Tuple[int, int, int],
                  protocol: Union[str, Protocol] = "delphi",
                  batch_size: int = 1) -> CostReport:
    """Count operations and estimate the online cost in one call."""
    operations = count_operations(model, input_shape, batch_size=batch_size)
    return estimate_cost(operations, protocol)


def compare_protocols(model: Module, input_shape: Tuple[int, int, int],
                      protocols: Optional[Sequence[Union[str, Protocol]]] = None,
                      batch_size: int = 1) -> Dict[str, CostReport]:
    """Cost reports for the same model under several protocols (counted once)."""
    from .protocols import PROTOCOLS

    operations = count_operations(model, input_shape, batch_size=batch_size)
    selected = protocols if protocols is not None else list(PROTOCOLS)
    reports: Dict[str, CostReport] = {}
    for proto in selected:
        resolved = resolve_protocol(proto)
        reports[resolved.name] = estimate_cost(operations, resolved)
    return reports


def format_cost_report(report: CostReport, per_layer: bool = False) -> str:
    """Render a cost report as a fixed-width table (totals, optionally per layer)."""
    def fmt(value: float, unit: str) -> str:
        return "not runnable" if not np.isfinite(value) else f"{value:.3f} {unit}"

    rows = []
    if per_layer:
        for layer in report.layers:
            rows.append([
                layer.operations.name,
                layer.operations.layer_type,
                layer.operations.macs,
                layer.operations.relu_ops,
                layer.operations.mult_ops,
                fmt(layer.total.megabytes, "MB"),
                fmt(layer.total.milliseconds, "ms"),
            ])
    rows.append([
        "TOTAL",
        report.protocol.name,
        sum(l.operations.macs for l in report.layers),
        report.relu_count,
        report.mult_count,
        fmt(report.total.megabytes, "MB"),
        fmt(report.total.milliseconds, "ms"),
    ])
    return format_table(
        ["layer", "type", "MACs", "ReLU ops", "secure mults", "online comm", "online latency"],
        rows,
        title=f"PPML online cost under {report.protocol.name} ({report.protocol.reference})",
    )
