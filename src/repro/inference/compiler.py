"""Compile a :class:`~repro.nn.module.Module` tree into flat NumPy callables.

Eager evaluation pays autodiff bookkeeping on every operation even under
``no_grad``: tensor wrappers, ``Function`` dispatch, context objects.  The
paper's implementation-feasibility argument (P4) says a quadratic neuron is
just first-order projections plus element-wise combinations — so at inference
time the whole model collapses into a short list of closed-over NumPy
functions with no graph at all.

:func:`compile_model` takes the model's one lowering
(:func:`repro.inference.lowering.lower`: a flat list of kind-tagged ops) and
runs every op through this module's ``{kind: emitter}`` table:

* **emitters** — each emits a closure that reproduces the layer's eager
  arithmetic *operation for operation* (same primitives, same order), so
  compiled outputs match the eager forward bit-for-bit while skipping every
  Tensor allocation.  Quadratic layers get the fused treatment: the
  ``im2col`` lowering is computed **once** and shared by all weight
  projections (eager pays it once per projection), and the combination step
  runs through the fused ``out=`` kernels of :mod:`repro.quadratic.functional`.
* **fallback** — an op no emitter handles (an unknown module, a hooked one,
  the full-rank T1 family) keeps its eager forward, wrapped to accept and
  return raw arrays.  Compilation therefore never changes semantics, it only
  accelerates the parts it can prove equivalent.

Two orthogonal axes configure a compile:

* ``backend`` — the execution engine.  Every numerical primitive an emitter
  uses (GEMM, ``im2col``, grouped projections, the fused quadratic
  combination, pooling, element-wise glue) dispatches through one
  :class:`repro.backends.Backend` object, so
  ``compile_model(model, backend="threaded")`` runs the same step list on
  all cores and ``backend="int8"`` runs it quantized.  The default
  ``numpy`` backend is the reference arithmetic.
* ``optimize`` — the graph level.  The lowering rewrites each chain with
  :func:`repro.inference.optimizer.optimize_plan` (dead-layer elimination,
  padding folding, BatchNorm constant folding; BN-into-conv at ``"full"``),
  and a :class:`~repro.inference.buffers.LifetimePlanner` assigns pooled
  buffers from shared lifetime arenas instead of per-step namespaces.
  ``optimize="none"`` reproduces the unoptimized layout.

Intermediate results are written into buffers rented from a
:class:`~repro.inference.buffers.BufferPool`, so steady-state serving reuses
the same scratch memory call after call.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..autodiff.grad_mode import inference_mode
from ..autodiff.ops.conv import conv_output_size
from ..autodiff.tensor import Tensor
from ..backends import Backend, get_backend
from ..nn.layers.normalization import _BatchNorm
from ..nn.module import Module
from ..quadratic.functional import REQUIRED_RESPONSES
from .buffers import BufferPool, LifetimePlanner
from .lowering import Op, lower
from .optimizer import OptimizationReport, normalize_level

#: One compiled step: a raw-array transformation with no graph side effects.
Step = Callable[[np.ndarray], np.ndarray]


class CompiledModel:
    """A model lowered to a flat list of NumPy callables.

    Calling it runs the steps in order inside
    :func:`~repro.autodiff.inference_mode` and returns a fresh output array
    (intermediates may live in pooled buffers that the next call overwrites).
    The source model is untouched; weight arrays are shared, not copied, so a
    compiled model sees in-place parameter updates but must be re-compiled
    after structural changes.

    ``backend`` is the :class:`repro.backends.Backend` instance the steps
    dispatch through; ``optimization`` is the
    :class:`~repro.inference.optimizer.OptimizationReport` of the graph
    rewrites applied at compile time.
    """

    def __init__(self, model: Module, steps: List[Step], pool: BufferPool,
                 fallback_modules: List[Module],
                 batch_dependent_modules: Optional[List[Module]] = None,
                 backend: Optional[Backend] = None,
                 optimization: Optional[OptimizationReport] = None) -> None:
        self.model = model
        self.pool = pool
        self.fallback_modules = fallback_modules
        #: modules whose output depends on which samples share the batch
        #: (BatchNorm without running statistics) — micro-batching such a
        #: model makes predictions traffic-dependent.
        self.batch_dependent_modules = batch_dependent_modules or []
        self.backend = backend if backend is not None else get_backend(None)
        self.optimization = (optimization if optimization is not None
                             else OptimizationReport(level="none"))
        self._steps = steps

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    @property
    def backend_name(self) -> str:
        return self.backend.name

    def __call__(self, x: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """Run the compiled forward on a batched input array.

        ``out``, when given, receives the result in place (shapes must
        match) and is returned — the allocation-free path serving workers
        use to write straight into a response ring slot or a pooled arena
        buffer instead of a fresh heap array per call.
        """
        if isinstance(x, Tensor):
            x = x.data
        result = np.asarray(x, dtype=np.float32)
        with inference_mode():
            for step in self._steps:
                result = step(result)
        # The last step may return a pooled buffer the next call overwrites;
        # the caller gets a fresh copy — or their own ``out`` storage.
        if out is None:
            return np.array(result, copy=True)
        if out.shape != result.shape:
            raise ValueError(
                f"out has shape {out.shape}, forward produced {result.shape}")
        np.copyto(out, result, casting="same_kind")
        return out

    def warmup(self, sample_shape: Tuple[int, ...],
               batch_sizes: Sequence[int] = (1,)) -> "CompiledModel":
        """Pre-run zero batches so no live request pays first-call costs.

        The first forward at a new batch size allocates the pooled buffers
        (and, on the ``threaded`` backend, settles its per-shape blocking
        probes); a serving deployment can pay that up front for every
        micro-batch size it expects (``range(1, max_batch_size + 1)`` for a
        :class:`~repro.inference.BatchedPredictor`).
        """
        for batch_size in batch_sizes:
            self(np.zeros((int(batch_size),) + tuple(sample_shape), dtype=np.float32))
        return self

    def __repr__(self) -> str:
        return (f"CompiledModel({type(self.model).__name__}, steps={self.num_steps}, "
                f"backend={self.backend.name!r}, "
                f"fallbacks={len(self.fallback_modules)})")




class _FloatBuild:
    """Emission state: the pool, backend, buffer planner and step counter."""

    def __init__(self, pool: BufferPool, backend: Backend, level: str) -> None:
        self.pool = pool
        self.backend = backend
        self.planner = LifetimePlanner(enabled=(level != "none"))
        self.fallbacks: List[Module] = []
        self.batch_dependent: List[Module] = []
        self._step_index = 0

    def next_key(self) -> int:
        """A unique id per emitted step, namespacing its pooled buffers."""
        self._step_index += 1
        return self._step_index

    def emit(self, ops: Sequence[Op]) -> List[Step]:
        return [_EMITTERS.get(op.kind, _compile_eager)(op, self) for op in ops]

    def fallback(self, module: Module) -> Step:
        """Wrap an eager module so it slots into the compiled pipeline.

        The compiled forward promises evaluation semantics, so the module
        (and its subtree) is switched to eval for the duration of the call —
        otherwise a training-mode fallback would fire dropout and mutate
        BatchNorm running statistics mid-inference.
        """
        self.fallbacks.append(module)
        self.batch_dependent.extend(
            m for m in module.modules()
            if isinstance(m, _BatchNorm) and not m.track_running_stats)

        def run_eager(x: np.ndarray) -> np.ndarray:
            was_training = module.training
            if was_training:
                module.train(False)
            try:
                out = module(Tensor(x, _copy=False))
            finally:
                if was_training:
                    module.train(True)
            return out.data if isinstance(out, Tensor) else np.asarray(out)

        return run_eager


def compile_model(model: Module, pool: Optional[BufferPool] = None,
                  mode: str = "float", backend: Union[str, Backend, None] = None,
                  optimize: Union[str, bool, None] = None, **ppml_options):
    """Lower ``model`` to a compiled forward path for gradient-free serving.

    ``mode`` selects the interpreter of the model's lowering:

    * ``"float"`` (default) — the :class:`CompiledModel` NumPy fast path.
      The compiled forward uses evaluation semantics regardless of the
      model's ``training`` flag: dropout is removed and batch normalisation
      uses its running statistics (models that track none fall back to batch
      statistics, exactly like their eager ``eval()`` forward).

      ``backend`` picks the execution engine by registry name
      (:data:`repro.backends.BACKENDS`: ``"numpy"``, ``"threaded"``,
      ``"int8"``), a pre-configured :class:`~repro.backends.Backend`
      instance, or ``None`` for the reference engine.  ``optimize`` sets the
      graph-optimizer level (``"none"``/``"default"``/``"full"``, or
      ``True``/``False``; ``None`` means ``"default"``).
    * ``"ppml"`` — the secure-inference path: the same lowering, emitted as
      *fixed-point* closures by :func:`repro.ppml.secure_compile`, returning
      a :class:`repro.ppml.SecureCompiledModel` that executes under
      hybrid-protocol semantics and records a per-layer protocol trace.
      Extra keyword arguments (``protocol``, ``frac_bits``, ``truncation``,
      ``seed``) become the :class:`repro.ppml.SecureConfig`.
    """
    if mode == "ppml":
        if backend is not None:
            raise ValueError(
                "backend selection applies to mode='float'; the secure path "
                "has its own fixed-point execution engine")
        if optimize not in (None, False, "none"):
            raise ValueError(
                "graph optimization applies to mode='float'; mode='ppml' "
                "performs its own fixed-point lowering")
        from ..ppml.runtime import SecureConfig, secure_compile

        return secure_compile(model, config=SecureConfig(**ppml_options), pool=pool)
    if mode != "float":
        raise ValueError(f"unknown compile mode '{mode}'; choose 'float' or 'ppml'")
    if ppml_options:
        raise TypeError(
            f"keyword arguments {sorted(ppml_options)} are only valid with mode='ppml'")
    engine = get_backend(backend)
    level = normalize_level(optimize)
    report = OptimizationReport(level=level)
    build = _FloatBuild(pool if pool is not None else engine.make_pool(),
                        engine, level)
    steps = build.emit(lower(model, level, report))
    return CompiledModel(model, steps, build.pool, build.fallbacks,
                         build.batch_dependent, backend=engine,
                         optimization=report)


def _compile_eager(op: Op, build: _FloatBuild) -> Step:
    # Unknown and hooked modules, and the full-rank T1 family.
    return build.fallback(op.module)


# --------------------------------------------------------------------------- #
# First-order layers
# --------------------------------------------------------------------------- #

def _compile_linear(op: Op, build: _FloatBuild) -> Step:
    module = op.module
    be = build.backend
    pool = build.pool
    weight_t = module.weight.data.T          # view; tracks in-place updates
    bias = module.bias.data if module.bias is not None else None
    out_key = build.planner.activation(build.next_key())

    def linear_step(x: np.ndarray) -> np.ndarray:
        out_shape = x.shape[:-1] + (weight_t.shape[-1],)
        out = be.gemm(x, weight_t, out=pool.get(out_key, out_shape))
        if bias is not None:
            be.add(out, bias, out=out)
        return out

    return linear_step


def _compile_conv2d(op: Op, build: _FloatBuild) -> Step:
    module = op.module
    be = build.backend
    pool = build.pool
    stride, padding, groups = module.stride, module.padding, module.groups
    f, c_g, kh, kw = module.weight.shape
    wmat = module.weight.data.reshape(groups, f // groups, c_g * kh * kw)
    bias = (module.bias.data.reshape(1, f, 1, 1)
            if module.bias is not None else None)
    key = build.next_key()
    cols_key = build.planner.scratch(key, "cols")
    out_key = build.planner.activation(key)

    def conv_step(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        oh = conv_output_size(h, kh, stride[0], padding[0])
        ow = conv_output_size(w, kw, stride[1], padding[1])
        cols_buf = pool.get(cols_key, (n, c, kh, kw, oh, ow))
        cols = be.im2col(x, kh, kw, stride, padding, out=cols_buf)
        cols = cols.reshape(n, groups, c_g * kh * kw, oh * ow)
        out = be.conv_project(cols, wmat,
                              pool.get(out_key, (n, groups, f // groups, oh * ow)))
        out = out.reshape(n, f, oh, ow)
        if bias is not None:
            be.add(out, bias, out=out)
        return out

    return conv_step


def _compile_batchnorm(op: Op, build: _FloatBuild) -> Step:
    module = op.module
    be = build.backend
    pool = build.pool
    out_key = build.planner.activation(build.next_key())
    eps = np.asarray(module.eps, dtype=np.float32)
    if not module.track_running_stats:
        # Eval-mode batch statistics: the output of any one sample depends on
        # its batch mates, so micro-batching this model is lossy.
        build.batch_dependent.append(module)

    def batchnorm_step(x: np.ndarray) -> np.ndarray:
        shape = module._stat_shape(x.ndim)
        if module.track_running_stats:
            mean = module.running_mean.reshape(shape)
            var = module.running_var.reshape(shape)
        else:
            axes = module._stat_axes(x)
            mean = x.mean(axis=axes, keepdims=True)
            delta = x - mean
            var = np.multiply(delta, delta, out=delta).mean(axis=axes, keepdims=True)
        inv_std = (var + eps) ** -0.5
        out = pool.get(out_key, x.shape)
        be.subtract(x, mean, out=out)
        be.multiply(out, inv_std, out=out)
        if module.affine:
            be.multiply(out, module.weight.data.reshape(shape), out=out)
            be.add(out, module.bias.data.reshape(shape), out=out)
        return out

    return batchnorm_step


def _compile_frozen_batchnorm(op: Op, build: _FloatBuild) -> Step:
    """The constant-folded BatchNorm: same four ops on precomputed arrays."""
    module = op.module
    be = build.backend
    pool = build.pool
    out_key = build.planner.activation(build.next_key())
    reshaped: Dict[int, tuple] = {}

    def frozen_batchnorm_step(x: np.ndarray) -> np.ndarray:
        consts = reshaped.get(x.ndim)
        if consts is None:
            shape = module.stat_shape(x.ndim)
            consts = (module.mean.reshape(shape), module.inv_std.reshape(shape),
                      module.gamma.reshape(shape) if module.gamma is not None else None,
                      module.beta.reshape(shape) if module.beta is not None else None)
            reshaped[x.ndim] = consts
        mean, inv_std, gamma, beta = consts
        out = pool.get(out_key, x.shape)
        be.subtract(x, mean, out=out)
        be.multiply(out, inv_std, out=out)
        if gamma is not None:
            be.multiply(out, gamma, out=out)
            be.add(out, beta, out=out)
        return out

    return frozen_batchnorm_step


def _compile_layernorm(op: Op, build: _FloatBuild) -> Step:
    module = op.module
    eps = np.asarray(module.eps, dtype=np.float32)
    normalized_ndim = len(module.normalized_shape)

    def layernorm_step(x: np.ndarray) -> np.ndarray:
        axes = tuple(range(x.ndim - normalized_ndim, x.ndim))
        mean = x.mean(axis=axes, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=axes, keepdims=True)
        normed = centered * ((var + eps) ** -0.5)
        return normed * module.weight.data + module.bias.data

    return layernorm_step


# --------------------------------------------------------------------------- #
# Activations and shape plumbing
# --------------------------------------------------------------------------- #

def _compile_relu(op: Op, build: _FloatBuild) -> Step:
    be = build.backend
    pool = build.pool
    out_key = build.planner.activation(build.next_key())

    def relu_step(x: np.ndarray) -> np.ndarray:
        return be.maximum(x, np.float32(0.0), out=pool.get(out_key, x.shape))

    return relu_step


def _compile_leaky_relu(op: Op, build: _FloatBuild) -> Step:
    slope = op.module.negative_slope

    def leaky_relu_step(x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, x, slope * x)

    return leaky_relu_step


def _compile_sigmoid(op: Op, build: _FloatBuild) -> Step:
    def sigmoid_step(x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-x))

    return sigmoid_step


def _compile_tanh(op: Op, build: _FloatBuild) -> Step:
    def tanh_step(x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    return tanh_step


def _compile_gelu(op: Op, build: _FloatBuild) -> Step:
    c = float(np.sqrt(2.0 / np.pi))

    def gelu_step(x: np.ndarray) -> np.ndarray:
        return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x * x * x)))

    return gelu_step


def _compile_softmax(op: Op, build: _FloatBuild) -> Step:
    axis = op.module.axis

    def softmax_step(x: np.ndarray) -> np.ndarray:
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)

    return softmax_step


def _compile_square(op: Op, build: _FloatBuild) -> Step:
    be = build.backend
    pool = build.pool
    out_key = build.planner.activation(build.next_key())
    scale, linear = op.module.scale, op.module.linear

    def square_step(x: np.ndarray) -> np.ndarray:
        out = pool.get(out_key, x.shape)
        be.multiply(x, x, out=out)
        be.multiply(out, np.float32(scale), out=out)
        if linear:
            be.add(out, x * np.float32(linear), out=out)
        return out

    return square_step


def _compile_flatten(op: Op, build: _FloatBuild) -> Step:
    start_dim = op.module.start_dim

    def flatten_step(x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[:start_dim] + (-1,))

    return flatten_step


def _compile_zeropad(op: Op, build: _FloatBuild) -> Step:
    left, right, top, bottom = op.module.padding

    def zeropad_step(x: np.ndarray) -> np.ndarray:
        pad_width = [(0, 0)] * (x.ndim - 2) + [(top, bottom), (left, right)]
        return np.pad(x, pad_width, mode="constant")

    return zeropad_step


def _compile_upsample(op: Op, build: _FloatBuild) -> Step:
    scale = op.module.scale_factor

    def upsample_step(x: np.ndarray) -> np.ndarray:
        return x.repeat(scale, axis=2).repeat(scale, axis=3)

    return upsample_step


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #

def _compile_maxpool(op: Op, build: _FloatBuild) -> Step:
    be = build.backend
    module = op.module
    kernel_size, stride, padding = module.kernel_size, module.stride, module.padding

    def maxpool_step(x: np.ndarray) -> np.ndarray:
        # The backend's pooling primitive (the reference is the autodiff op's
        # forward, bit-identical to eager evaluation).  A reshape-and-max
        # route for non-overlapping windows is not: NumPy's max keeps the
        # later of tied -0.0/+0.0 where eager argmax keeps the first.
        return be.maxpool(x, kernel_size, stride, padding)

    return maxpool_step


def _compile_avgpool(op: Op, build: _FloatBuild) -> Step:
    be = build.backend
    module = op.module
    kernel_size, stride, padding = module.kernel_size, module.stride, module.padding

    def avgpool_step(x: np.ndarray) -> np.ndarray:
        return be.avgpool(x, kernel_size, stride, padding)

    return avgpool_step


def _compile_adaptive_avgpool(op: Op, build: _FloatBuild) -> Step:
    be = build.backend
    output_size = op.module.output_size

    def adaptive_avgpool_step(x: np.ndarray) -> np.ndarray:
        if output_size == 1:
            return x.mean(axis=(2, 3), keepdims=True)
        n, c, h, w = x.shape
        if h % output_size or w % output_size:
            # Same guard (and message) as the eager functional form.
            raise ValueError(
                f"adaptive_avg_pool2d requires divisible sizes, got {h}x{w} -> {output_size}"
            )
        return be.avgpool(x, (h // output_size, w // output_size))

    return adaptive_avgpool_step


def _compile_global_avgpool(op: Op, build: _FloatBuild) -> Step:
    def global_avgpool_step(x: np.ndarray) -> np.ndarray:
        return x.mean(axis=(2, 3))

    return global_avgpool_step


# --------------------------------------------------------------------------- #
# Quadratic layers — the fused kernels
# --------------------------------------------------------------------------- #

def _compile_quadratic_conv(op: Op, build: _FloatBuild) -> Step:
    """Fused quadratic convolution: one im2col shared by every projection.

    Eager evaluation lowers the input to columns once per weight set (three
    times for the paper's neuron); the compiled step lowers once, applies all
    projections to the shared columns and combines them with the fused
    element-wise kernels — identical arithmetic, a third of the memory
    traffic, zero graph nodes.
    """
    module = op.module
    be = build.backend
    pool = build.pool
    required = REQUIRED_RESPONSES[module.neuron_type]
    stride, padding, groups = module.stride, module.padding, module.groups
    kh, kw = module.kernel_size
    f = module.out_channels
    c_g = module.in_channels // groups
    patch = c_g * kh * kw
    wmats = {
        kind: getattr(module, f"weight_{kind}").data.reshape(groups, f // groups, patch)
        for kind in required if kind != "id"
    }
    bias = (module.bias.data.reshape(1, f, 1, 1)
            if module.bias is not None else None)
    key = build.next_key()
    cols_key = build.planner.scratch(key, "cols")
    sq_cols_key = build.planner.scratch(key, "sq_cols")
    proj_keys = {kind: build.planner.scratch(key, f"proj_{kind}")
                 for kind in wmats}
    out_key = build.planner.activation(key)
    neuron_type = module.neuron_type

    def quadratic_conv_step(x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        oh = conv_output_size(h, kh, stride[0], padding[0])
        ow = conv_output_size(w, kw, stride[1], padding[1])
        out_shape = (n, groups, f // groups, oh * ow)
        cols_buf = pool.get(cols_key, (n, c, kh, kw, oh, ow))
        cols = be.im2col(x, kh, kw, stride, padding, out=cols_buf)
        cols = cols.reshape(n, groups, patch, oh * ow)
        responses = []
        for kind in required:
            if kind == "id":
                responses.append(x)
                continue
            if kind == "sq":
                # im2col(x²) == im2col(x)² element-wise (zero padding squares
                # to zero), so the squared projection shares the lowering too.
                source = be.multiply(cols, cols, out=pool.get(sq_cols_key, cols.shape))
            else:
                source = cols
            projected = be.conv_project(source, wmats[kind],
                                        pool.get(proj_keys[kind], out_shape))
            responses.append(projected.reshape(n, f, oh, ow))
        out = be.combine(neuron_type, responses,
                         out=pool.get(out_key, (n, f, oh, ow)))
        if bias is not None:
            be.add(out, bias, out=out)
        return out

    return quadratic_conv_step


def _compile_quadratic_linear(op: Op, build: _FloatBuild) -> Step:
    """Fused dense quadratic layer (all composable types; T1 falls back)."""
    module = op.module
    required = REQUIRED_RESPONSES[module.neuron_type]
    if "bilinear" in required:
        # The full-rank T1 family keeps its eager forward.
        return build.fallback(module)
    be = build.backend
    pool = build.pool
    weights_t = {
        kind: getattr(module, f"weight_{kind}").data.T
        for kind in required if kind != "id"
    }
    bias = module.bias.data if module.bias is not None else None
    key = build.next_key()
    sq_key = build.planner.scratch(key, "x_sq")
    proj_keys = {kind: build.planner.scratch(key, f"qlin_{kind}")
                 for kind in weights_t}
    out_key = build.planner.activation(key)
    neuron_type = module.neuron_type
    out_features = module.out_features

    def quadratic_linear_step(x: np.ndarray) -> np.ndarray:
        proj_shape = (x.shape[0], out_features)
        responses = []
        for kind in required:
            if kind == "id":
                responses.append(x)
            elif kind == "sq":
                squared = be.multiply(x, x, out=pool.get(sq_key, x.shape))
                responses.append(be.gemm(squared, weights_t["sq"],
                                         out=pool.get(proj_keys["sq"], proj_shape)))
            else:
                responses.append(be.gemm(x, weights_t[kind],
                                         out=pool.get(proj_keys[kind], proj_shape)))
        out = be.combine(neuron_type, responses,
                         out=pool.get(out_key, proj_shape))
        if bias is not None:
            be.add(out, bias, out=out)
        return out

    return quadratic_linear_step


# --------------------------------------------------------------------------- #
# Residual blocks
# --------------------------------------------------------------------------- #

def _compile_residual(op: Op, build: _FloatBuild) -> Step:
    main_plan, shortcut_plan, after_plan = op.plans
    # The block's input stays live across the whole inner chain (it feeds
    # the shortcut and the residual add), which breaks the straight-line
    # liveness the activation arenas rely on — pin the region so its
    # steps keep private buffers.
    with build.planner.pinned():
        main = build.emit(main_plan)
        shortcut = build.emit(shortcut_plan)
    after = build.emit(after_plan)

    def basic_block_step(x: np.ndarray) -> np.ndarray:
        out = x
        for step in main:
            out = step(out)
        residual = x
        for step in shortcut:
            residual = step(residual)
        out = out + residual
        for step in after:
            out = step(out)
        return out

    return basic_block_step


#: op kind -> emitter(op, build) -> step.  Kinds missing here run eagerly.
_EMITTERS: Dict[str, Callable[[Op, _FloatBuild], Step]] = {
    "linear": _compile_linear,
    "conv": _compile_conv2d,
    "batchnorm": _compile_batchnorm,
    "frozen_batchnorm": _compile_frozen_batchnorm,
    "layernorm": _compile_layernorm,
    "relu": _compile_relu,
    "leaky_relu": _compile_leaky_relu,
    "sigmoid": _compile_sigmoid,
    "tanh": _compile_tanh,
    "gelu": _compile_gelu,
    "softmax": _compile_softmax,
    "square": _compile_square,
    "flatten": _compile_flatten,
    "zeropad": _compile_zeropad,
    "upsample": _compile_upsample,
    "maxpool": _compile_maxpool,
    "avgpool": _compile_avgpool,
    "adaptive_avgpool": _compile_adaptive_avgpool,
    "global_avgpool": _compile_global_avgpool,
    "quadratic_conv": _compile_quadratic_conv,
    "quadratic_linear": _compile_quadratic_linear,
    "residual": _compile_residual,
}
