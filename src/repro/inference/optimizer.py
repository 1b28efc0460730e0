"""Graph-level optimizer over inference plans.

:func:`repro.inference.lowering.lower` flattens a module tree chain by
chain (``inference_plan()`` stages, ``Sequential`` bodies, residual-block
innards).  Before a chain is flattened into ops, :func:`optimize_plan`
rewrites it at the *module* level — where layer adjacency is still visible
— with four passes:

1. **Dead-layer elimination** — ``Identity``, evaluation-mode ``Dropout``,
   all-zero ``ZeroPad2d`` and scale-1 ``UpsampleNearest2d`` disappear from
   the plan (exact).
2. **Padding folding** — a symmetric ``ZeroPad2d`` feeding a convolution
   folds into the convolution's own ``padding``, so the padded copy of the
   feature map is never materialised.  Exact: ``im2col`` zero-pads
   identically, patch for patch.
3. **Constant folding** — a running-statistics BatchNorm recomputes
   ``(var + eps) ** -0.5`` and four reshapes on *every call*; the optimizer
   replaces it with a :class:`FrozenBatchNorm` carrying the precomputed
   arrays.  Exact (same operations, same order on identical values), but it
   bakes the statistics in: recompile after mutating running stats in place.
4. **BatchNorm-into-conv folding** (``level="full"`` only) — a
   ``Conv2d -> BatchNorm2d`` pair collapses into one convolution with
   rescaled weights.  One fewer pass over the feature map, but the float
   rescaling perturbs the last bits, so the pass stays behind the opt-in
   level — compiled-equals-eager holds to ~1e-6, not bit-for-bit.

Modules carrying forward hooks are never rewritten (hooks observe eager
activations), and a BatchNorm without running statistics is left alone — it
genuinely depends on its input.  Every rewrite is recorded in an
:class:`OptimizationReport` that ``compile_model`` attaches to the
:class:`~repro.inference.CompiledModel`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

from ..nn.containers import Sequential
from ..nn.layers.conv import Conv2d
from ..nn.layers.normalization import BatchNorm2d, _BatchNorm
from ..nn.module import Module

#: Optimization levels accepted by ``compile_model(optimize=...)``.
#: ``True`` maps to ``"default"`` and ``False`` to ``"none"``.
OPT_LEVELS = ("none", "default", "full")

#: Layer kinds with a ``padding`` attribute an upstream ZeroPad2d can fold into.
_PADDABLE_KINDS = ("conv", "quadratic_conv")


def normalize_level(optimize: Union[str, bool, None]) -> str:
    """Map the ``optimize`` argument to one of :data:`OPT_LEVELS`."""
    if optimize is None or optimize is True:
        return "default"
    if optimize is False:
        return "none"
    level = str(optimize).strip().lower()
    if level not in OPT_LEVELS:
        raise ValueError(
            f"unknown optimization level '{optimize}'; choose one of "
            f"{', '.join(OPT_LEVELS)} (or True/False)")
    return level


@dataclass
class OptimizationReport:
    """What the graph optimizer did to one compiled model."""

    level: str = "default"
    #: Identity / eval-mode Dropout / zero pads / scale-1 upsamples removed.
    dead_layers_eliminated: int = 0
    #: ZeroPad2d layers folded into a downstream convolution's padding.
    paddings_folded: int = 0
    #: BatchNorms whose statistics were constant-folded (FrozenBatchNorm).
    constants_folded: int = 0
    #: Conv2d->BatchNorm2d pairs collapsed into one conv (level "full").
    batchnorms_folded: int = 0
    #: human-readable one-liners, in rewrite order (for --json / debugging).
    notes: List[str] = field(default_factory=list)

    @property
    def total_rewrites(self) -> int:
        return (self.dead_layers_eliminated + self.paddings_folded
                + self.constants_folded + self.batchnorms_folded)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "level": self.level,
            "dead_layers_eliminated": self.dead_layers_eliminated,
            "paddings_folded": self.paddings_folded,
            "constants_folded": self.constants_folded,
            "batchnorms_folded": self.batchnorms_folded,
        }


class FrozenBatchNorm(Module):
    """A BatchNorm with its per-call constants precomputed at compile time.

    Holds copies of the running statistics with ``inv_std`` already raised
    to the ``-0.5`` — the quantities the BatchNorm emitter recomputes
    on every forward.  The compiled step applies them in the exact operation
    order of the live step (subtract, multiply, multiply, add), so freezing
    is bit-exact; only the *liveness* changes (in-place edits to the source
    module's statistics after compilation are no longer observed).

    Compile-time construct: it only ever appears inside optimized plans, so
    its eager ``forward`` is intentionally unimplemented.
    """

    def __init__(self, bn: _BatchNorm) -> None:
        super().__init__()
        self.num_features = bn.num_features
        self.mean = np.array(bn.running_mean, dtype=np.float32)
        # Same element-wise computation the per-call rule performs.
        self.inv_std = (np.asarray(bn.running_var, dtype=np.float32)
                        + np.asarray(bn.eps, dtype=np.float32)) ** -0.5
        self.gamma = (np.array(bn.weight.data, dtype=np.float32)
                      if bn.affine else None)
        self.beta = (np.array(bn.bias.data, dtype=np.float32)
                     if bn.affine else None)

    def stat_shape(self, ndim: int) -> Tuple[int, ...]:
        shape = [1] * ndim
        shape[1] = self.num_features
        return tuple(shape)

    def forward(self, x):  # pragma: no cover - compile-time construct
        raise RuntimeError(
            "FrozenBatchNorm exists only inside optimized inference plans; "
            "compile the model (repro.inference.compile_model) to execute it")


def _has_hooks(module: Module) -> bool:
    return bool(module._forward_hooks)


def _kind(module: Module):
    from .lowering import kind_of  # lazy: the lowering drives this module

    return kind_of(module)


def _is_dead(module: Module) -> bool:
    if _has_hooks(module):
        return False
    kind = _kind(module)
    return (kind == "noop"
            or (kind == "zeropad" and not any(module.padding))
            or (kind == "upsample" and module.scale_factor == 1))


def _flatten(modules: Sequence[Module]) -> List[Module]:
    """Expand hook-free Sequentials so adjacent layers become visible."""
    flat: List[Module] = []
    for module in modules:
        if isinstance(module, Sequential) and not _has_hooks(module):
            flat.extend(_flatten(list(module)))
        else:
            flat.append(module)
    return flat


def _fold_padding(modules: List[Module], report: OptimizationReport) -> List[Module]:
    out: List[Module] = []
    index = 0
    while index < len(modules):
        module = modules[index]
        nxt = modules[index + 1] if index + 1 < len(modules) else None
        if (_kind(module) == "zeropad" and not _has_hooks(module)
                and _kind(nxt) in _PADDABLE_KINDS and not _has_hooks(nxt)):
            left, right, top, bottom = module.padding
            if left == right and top == bottom:
                # A shallow copy shares the weight arrays (in-place updates
                # stay visible) but owns its geometry attributes.
                clone = copy.copy(nxt)
                ph, pw = nxt.padding
                object.__setattr__(clone, "padding", (ph + top, pw + left))
                out.append(clone)
                report.paddings_folded += 1
                report.notes.append(
                    f"folded ZeroPad2d{module.padding} into "
                    f"{type(nxt).__name__}.padding -> {clone.padding}")
                index += 2
                continue
        out.append(module)
        index += 1
    return out


def _foldable_bn(module: Module) -> bool:
    return (isinstance(module, _BatchNorm) and not _has_hooks(module)
            and module.track_running_stats)


def _fold_bn_into_conv(modules: List[Module],
                       report: OptimizationReport) -> List[Module]:
    out: List[Module] = []
    index = 0
    while index < len(modules):
        module = modules[index]
        nxt = modules[index + 1] if index + 1 < len(modules) else None
        if (type(module) is Conv2d and not _has_hooks(module)
                and isinstance(nxt, BatchNorm2d) and _foldable_bn(nxt)):
            out.append(_folded_conv(module, nxt))
            report.batchnorms_folded += 1
            report.notes.append(
                f"folded BatchNorm2d({nxt.num_features}) into Conv2d"
                f"({module.in_channels}, {module.out_channels})")
            index += 2
            continue
        out.append(module)
        index += 1
    return out


def _folded_conv(conv: Conv2d, bn: BatchNorm2d) -> Conv2d:
    """One convolution computing ``bn(conv(x))`` (float-rescaled weights)."""
    var = np.asarray(bn.running_var, dtype=np.float32)
    mean = np.asarray(bn.running_mean, dtype=np.float32)
    gamma = (np.asarray(bn.weight.data, dtype=np.float32) if bn.affine
             else np.ones_like(var))
    beta = (np.asarray(bn.bias.data, dtype=np.float32) if bn.affine
            else np.zeros_like(var))
    scale = gamma / np.sqrt(var + np.float32(bn.eps))
    folded = Conv2d(conv.in_channels, conv.out_channels, conv.kernel_size,
                    stride=conv.stride, padding=conv.padding,
                    groups=conv.groups, bias=True)
    folded.weight.data[...] = conv.weight.data * scale[:, None, None, None]
    conv_bias = (conv.bias.data if conv.bias is not None
                 else np.zeros_like(mean))
    folded.bias.data[...] = (conv_bias - mean) * scale + beta
    folded.train(False)
    return folded


def _freeze_batchnorms(modules: List[Module],
                       report: OptimizationReport) -> List[Module]:
    out: List[Module] = []
    for module in modules:
        if _foldable_bn(module):
            out.append(FrozenBatchNorm(module))
            report.constants_folded += 1
            report.notes.append(
                f"constant-folded {type(module).__name__}({module.num_features}) "
                f"statistics")
        else:
            out.append(module)
    return out


def optimize_plan(modules: Sequence[Module], level: str = "default",
                  report: OptimizationReport = None) -> Tuple[List[Module], OptimizationReport]:
    """Rewrite one chain of an inference plan at the given level.

    Returns the rewritten module list plus the (possibly shared) report.
    ``level="none"`` returns the input untouched.
    """
    if report is None:
        report = OptimizationReport(level=level)
    if level == "none":
        return list(modules), report
    plan = _flatten(modules)
    survivors = [m for m in plan if not _is_dead(m)]
    report.dead_layers_eliminated += len(plan) - len(survivors)
    for dropped in (m for m in plan if _is_dead(m)):
        report.notes.append(f"eliminated dead layer {type(dropped).__name__}")
    plan = _fold_padding(survivors, report)
    if level == "full":
        plan = _fold_bn_into_conv(plan, report)
    plan = _freeze_batchnorms(plan, report)
    return plan, report
