"""One lowering of a module tree, shared by every interpreter.

The paper's implementation argument (P4) is that every composable quadratic
neuron is first-order projections plus one element-wise combine.  This
module makes the two decisions every consumer of a model needs, once:

* **What kind a module is.**  :data:`KINDS` names each layer class once and
  :func:`kind_of` resolves a module through its MRO, so a subclass inherits
  its base's kind.  Hybrid back-propagation is a quadratic layer's
  ``recompute`` setting: it changes backward only, never the kind.
* **How a module tree flattens into execution order.**  :func:`lower` walks
  ``Sequential`` bodies, ``inference_plan()`` stages and the zoo's composite
  blocks, applies the graph optimizer's per-chain rewrites
  (:func:`~repro.inference.optimizer.optimize_plan`) when asked, and returns
  a flat list of kind-tagged :class:`Op` s.  A residual block is one op
  carrying its main and shortcut sub-plans; a module with forward hooks is
  one ``"hooked"`` op carrying the sub-plan it would otherwise lower to.

The float compiler (:func:`repro.inference.compile_model`) and the secure
compiler (:func:`repro.ppml.secure_compile`) are two ``{kind: emitter}``
tables over that list.  The static counters
(:func:`repro.profiler.profile_model`, :func:`repro.ppml.count_operations`,
:func:`repro.capacity.request_work`) dispatch on the same kinds over
:func:`probe_leaves` — one eval-mode forward recording every leaf's shapes —
because they accept any module, including ones the compilers only run
eagerly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autodiff import no_grad
from ..autodiff.tensor import Tensor
from ..models.mobilenet import DepthwiseSeparableBlock
from ..models.resnet import BasicBlock
from ..nn.containers import Sequential
from ..nn.layers.activations import (
    GELU,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Square,
    Tanh,
)
from ..nn.layers.conv import Conv2d, DepthwiseSeparableConv2d
from ..nn.layers.linear import Linear
from ..nn.layers.misc import Dropout, Flatten, UpsampleNearest2d, ZeroPad2d
from ..nn.layers.normalization import LayerNorm, _BatchNorm
from ..nn.layers.pooling import AdaptiveAvgPool2d, AvgPool2d, GlobalAvgPool2d, MaxPool2d
from ..nn.module import Module
from ..quadratic.layers.qconv import QuadraticConv2d, QuadraticConv2dT1
from ..quadratic.layers.qlinear import QuadraticLinear
from .optimizer import FrozenBatchNorm, OptimizationReport, optimize_plan

#: layer class -> kind.  Kinds in :data:`EXPANDED_KINDS` never reach an
#: interpreter: :func:`lower` replaces them by their members (or by nothing).
KINDS: Dict[type, str] = {
    # containers and composite blocks
    Sequential: "sequential",
    DepthwiseSeparableConv2d: "separable_conv",
    DepthwiseSeparableBlock: "separable_block",
    BasicBlock: "residual",
    # first-order layers
    Conv2d: "conv",
    Linear: "linear",
    _BatchNorm: "batchnorm",
    FrozenBatchNorm: "frozen_batchnorm",
    LayerNorm: "layernorm",
    # quadratic layers: first-order projections plus one element-wise combine
    QuadraticConv2d: "quadratic_conv",
    QuadraticLinear: "quadratic_linear",
    QuadraticConv2dT1: "bilinear_conv",
    # activations
    ReLU: "relu",
    LeakyReLU: "leaky_relu",
    Sigmoid: "sigmoid",
    Tanh: "tanh",
    GELU: "gelu",
    Softmax: "softmax",
    Square: "square",
    # shape plumbing (Dropout is the identity in evaluation mode)
    Identity: "noop",
    Dropout: "noop",
    Flatten: "flatten",
    ZeroPad2d: "zeropad",
    UpsampleNearest2d: "upsample",
    # pooling
    MaxPool2d: "maxpool",
    AvgPool2d: "avgpool",
    AdaptiveAvgPool2d: "adaptive_avgpool",
    GlobalAvgPool2d: "global_avgpool",
}

#: composite kinds -> the members they run, in order.
_CHAINS = {
    "sequential": list,
    "separable_conv": lambda m: [m.depthwise, m.pointwise],
    "separable_block": lambda m: [m.depthwise, m.bn1, m.relu, m.pointwise, m.bn2, m.relu],
}

#: kinds :func:`lower` expands into members or drops.
EXPANDED_KINDS = frozenset(_CHAINS) | {"noop"}


def kind_of(module: Module) -> Optional[str]:
    """The kind of ``module`` (first hit along its MRO), ``None`` if unknown."""
    for klass in type(module).__mro__:
        kind = KINDS.get(klass)
        if kind is not None:
            return kind
    return None


@dataclass(frozen=True)
class Op:
    """One step of a lowered plan.

    ``kind`` is ``"eager"`` for a module no table names.  ``plans`` holds
    the sub-plans of composite ops: ``(main, shortcut, after)`` for
    ``"residual"`` (``after`` runs on the sum) and ``(body,)`` for
    ``"hooked"``.
    """

    kind: str
    module: Module
    name: str
    plans: Tuple[List["Op"], ...] = ()


class _Lowering:
    """One walk of a module tree: dotted names, optimizer level and report."""

    def __init__(self, names: Dict[int, str], level: str,
                 report: Optional[OptimizationReport]) -> None:
        self.names = names
        self.level = level
        self.report = report

    def chain(self, modules: Sequence[Module]) -> List[Op]:
        optimized, _ = optimize_plan(modules, self.level, self.report)
        return [op for module in optimized for op in self.module(module)]

    def module(self, module: Module) -> List[Op]:
        name = self.names.get(id(module), type(module).__name__)
        if module._forward_hooks:
            # Hooks observe eager activations: float runs this module eagerly
            # so they fire, the secure path interprets the body.  The
            # optimizer never rewrites inside a hooked module.
            body = _Lowering(self.names, "none", None).expand(module, name)
            return [Op("hooked", module, name, (body,))]
        return self.expand(module, name)

    def expand(self, module: Module, name: str) -> List[Op]:
        kind = kind_of(module)
        if kind in _CHAINS:
            return self.chain(_CHAINS[kind](module))
        plan = getattr(module, "inference_plan", None)
        if callable(plan):
            return self.chain(plan())
        if kind == "residual":
            main = [module.conv1, module.bn1, module.relu, module.conv2, module.bn2]
            return [Op(kind, module, name, (self.chain(main), self.module(module.shortcut),
                                            self.module(module.relu)))]
        if kind == "noop":
            return []
        return [Op(kind or "eager", module, name)]


def lower(model: Module, level: str = "none",
          report: Optional[OptimizationReport] = None) -> List[Op]:
    """Flatten ``model`` into execution order as kind-tagged ops.

    ``level`` is the graph-optimizer level applied to every chain
    (``"none"`` keeps the modules as they are); its rewrites are counted in
    ``report``.  Op names are the modules' dotted names in ``model`` (the
    class name for modules the optimizer created).
    """
    names = {id(module): name for name, module in model.named_modules()}
    return _Lowering(names, level, report).module(model)


@dataclass(frozen=True)
class Leaf:
    """One leaf module as :func:`probe_leaves` saw it."""

    name: str
    module: Module
    kind: Optional[str]
    #: ``(input shape, output shape)`` of every call, in call order: a module
    #: shared across call sites (a residual block's ReLU) lists each one.
    calls: List[Tuple[Tuple[int, ...], Tuple[int, ...]]]


def probe_leaves(model: Module, input_shape: Sequence[int],
                 batch_size: int = 1) -> List[Leaf]:
    """Every leaf module of ``model`` (once, under its first name) with the
    shapes of each of its calls.

    Runs one evaluation-mode, gradient-free forward of a zero batch of
    ``batch_size`` samples of ``input_shape`` with forward hooks on every
    leaf; the model's training flag is restored afterwards.
    """
    leaves: Dict[int, Tuple[str, Module]] = {}
    for name, module in model.named_modules():
        if not module._modules:
            leaves.setdefault(id(module), (name, module))
    calls: Dict[int, list] = {key: [] for key in leaves}

    def make_hook(record: list):
        def hook(_module, inputs, output):
            if isinstance(output, Tensor):
                in_shape = (inputs[0].shape
                            if inputs and isinstance(inputs[0], Tensor) else ())
                record.append((in_shape, output.shape))
        return hook

    removers = [module.register_forward_hook(make_hook(calls[key]))
                for key, (_, module) in leaves.items()]
    probe = Tensor(np.zeros((batch_size,) + tuple(input_shape), dtype=np.float32))
    was_training = model.training
    model.train(False)
    try:
        with no_grad():
            model(probe)
    finally:
        model.train(was_training)
        for remove in removers:
            remove()
    return [Leaf(name, module, kind_of(module), calls[key])
            for key, (name, module) in leaves.items()]
