"""The secure-inference runtime: execute models under hybrid-protocol semantics.

:mod:`repro.ppml.cost` predicts what a privacy-preserving deployment would
pay; this module *runs* the model the way a hybrid protocol would and
measures it.  :func:`secure_compile` takes the model's one lowering
(:func:`repro.inference.lowering.lower`, the same kind-tagged op list the
float compiler interprets) and runs every op through this module's
``{kind: emitter}`` table, which emits a flat list of *fixed-point* steps
sharing one :class:`~repro.inference.buffers.BufferPool` for scratch space:

* every activation is an ``int64`` array at scale ``2^f``
  (:mod:`repro.ppml.fixedpoint`), truncated after each multiplication with
  nearest or stochastic rounding, which is exactly the arithmetic a
  secret-sharing protocol performs;
* every step appends a :class:`~repro.ppml.trace.LayerTrace` recording the
  MACs, Beaver-triple multiplications and garbled-circuit comparisons it
  actually executed, and its communication-round structure;
* the resulting :class:`~repro.ppml.trace.ProtocolTrace` converts into
  online latency/communication through the same
  :class:`~repro.ppml.protocols.Protocol` constants as the static analysis,
  plus one network round trip per round.

What the simulation does and does not model
-------------------------------------------
The runtime reproduces the *numerics* (fixed-point quantization and
truncation) and the *operation/round counts* of a hybrid protocol.  It does
not perform cryptography: secret shares, garbled circuits and Beaver triples
are costed, not computed — plaintext stands in for shares, which leaves the
values (and therefore the measured counts and fixed-point error) identical
to a real deployment while running at simulation speed.

Two conventions keep measured counts comparable with the static analysis:

* Multiplications by *public* constants (batch-norm scales, pooling
  divisors, ``Square(scale=...)``) are local in every secret-sharing
  protocol — they cost a truncation but no Beaver triple, so they appear in
  ``truncations`` and ``macs``, never in ``mult_ops``.
* Smooth activations (GELU/sigmoid/tanh) and the final ``Softmax`` follow
  the static model's convention: the former are garbled-circuit evaluations
  (one comparison-equivalent per element), the latter is client-side
  post-processing and free.

Unsupported layers (full-rank T1 bilinear layers, ``LayerNorm``, batch
normalisation without running statistics) raise :class:`SecureExecutionError`
with the offending layer's name — the secure path never silently falls back
to float execution, because that would fabricate trace entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..autodiff.ops.conv import _pair, conv_output_size, im2col, window_max
from ..inference.buffers import BufferPool
from ..inference.lowering import EXPANDED_KINDS, KINDS, Op, lower
from ..nn.module import Module
from ..quadratic.functional import REQUIRED_RESPONSES
from .fixedpoint import FixedPointFormat, decode, encode, truncate
from .protocols import Protocol, resolve_protocol
from .trace import LayerTrace, ProtocolTrace, SecureCostEstimate

#: Communication rounds charged per traced step, by primitive kind.
ROUNDS_LINEAR = 1      #: share reconstruction after a pre-processed linear layer
ROUNDS_MULT = 1        #: one Beaver-triple reconstruction
ROUNDS_GARBLED = 2     #: garbled-circuit transfer + evaluation exchange


class SecureExecutionError(RuntimeError):
    """A model contains a layer the secure runtime cannot execute faithfully."""


@dataclass(frozen=True)
class SecureConfig:
    """Configuration of one secure execution.

    Attributes
    ----------
    protocol :
        Protocol name or instance used for trace costing (execution itself is
        protocol-independent — every hybrid protocol computes the same
        fixed-point values).
    frac_bits, truncation :
        The fixed-point number format (see
        :class:`~repro.ppml.fixedpoint.FixedPointFormat`).
    seed :
        Seed of the stochastic-truncation noise stream (each call derives a
        fresh, deterministic substream).
    """

    protocol: Union[str, Protocol] = "delphi"
    frac_bits: int = 12
    truncation: str = "nearest"
    seed: int = 0

    def fixed_point(self) -> FixedPointFormat:
        """The validated number format of this configuration."""
        return FixedPointFormat(frac_bits=self.frac_bits, truncation=self.truncation)


class _SecureContext:
    """Per-call execution state: number format, noise stream, trace, buffers."""

    def __init__(self, fmt: FixedPointFormat, rng: np.random.Generator,
                 pool: BufferPool) -> None:
        self.fmt = fmt
        self.rng = rng
        self.pool = pool
        self.layers: List[LayerTrace] = []

    def truncate(self, q: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Rescale after a multiplication (``2f → f``) in the configured mode."""
        return truncate(q, self.fmt.frac_bits, mode=self.fmt.truncation,
                        rng=self.rng, out=out)

    def record(self, name: str, layer_type: str, output_shape: Tuple[int, ...],
               macs: int = 0, relu_ops: int = 0, mult_ops: int = 0,
               truncations: int = 0, rounds: int = 0) -> None:
        self.layers.append(LayerTrace(
            name=name, layer_type=layer_type, macs=int(macs), relu_ops=int(relu_ops),
            mult_ops=int(mult_ops), truncations=int(truncations), rounds=int(rounds),
            output_shape=tuple(int(s) for s in output_shape)))


#: One secure step: int64 scale-f activations in, int64 scale-f activations out.
SecureStep = Callable[[np.ndarray, _SecureContext], np.ndarray]


class _SecureBuild:
    """Emission state: the number format, the buffer pool and step counter."""

    def __init__(self, fmt: FixedPointFormat, pool: BufferPool) -> None:
        self.fmt = fmt
        self.pool = pool
        self._step_index = 0

    def next_key(self) -> Tuple[str, int]:
        """A unique id per emitted step, namespacing its pooled buffers.

        The ``"ppml"`` prefix keeps secure buffers disjoint from any float
        steps sharing the same :class:`BufferPool`.
        """
        self._step_index += 1
        return ("ppml", self._step_index)

    def encode_weight(self, array: np.ndarray) -> np.ndarray:
        """Quantize a parameter to the runtime's scale (snapshot at compile time)."""
        return encode(array, self.fmt.frac_bits)

    def encode_bias(self, array: np.ndarray) -> np.ndarray:
        """Quantize an additive term at scale ``2f`` so it joins pre-truncation
        accumulators without its own rounding step."""
        return encode(array, 2 * self.fmt.frac_bits)

    def emit(self, ops: Sequence[Op]) -> List[SecureStep]:
        steps: List[SecureStep] = []
        for op in ops:
            if op.kind == "hooked":
                # Hooks observe eager float activations; a secure forward
                # has none to show them, so it runs the module's body.
                steps.extend(self.emit(op.plans[0]))
                continue
            emitter = _SECURE_EMITTERS.get(op.kind)
            if emitter is None:
                supported = sorted(cls.__name__ for cls, kind in KINDS.items()
                                   if kind in _SECURE_EMITTERS or kind in EXPANDED_KINDS)
                raise SecureExecutionError(
                    f"no secure lowering for {type(op.module).__name__} "
                    f"(layer '{op.name}'); the secure runtime supports: "
                    f"{', '.join(supported)}")
            steps.append(emitter(op, self))
        return steps


class SecureCompiledModel:
    """A model lowered to fixed-point hybrid-protocol steps.

    Calling it takes a *float* batch, encodes it at scale ``2^f``, runs every
    step in the integer domain and returns the decoded float output.  The
    executed :class:`~repro.ppml.trace.ProtocolTrace` of the most recent call
    is available as :attr:`last_trace` (or use :meth:`run` to get output and
    trace together).

    Weights are quantized once at compile time — re-run
    :func:`secure_compile` after updating parameters.
    """

    def __init__(self, model: Module, steps: List[SecureStep], pool: BufferPool,
                 config: SecureConfig) -> None:
        self.model = model
        self.pool = pool
        self.config = config
        self.protocol = resolve_protocol(config.protocol)
        self.fmt = config.fixed_point()
        self.last_trace: Optional[ProtocolTrace] = None
        self._steps = steps
        self._calls = 0

    @property
    def num_steps(self) -> int:
        return len(self._steps)

    def run(self, x: np.ndarray) -> Tuple[np.ndarray, ProtocolTrace]:
        """Execute one secure forward pass; returns ``(float output, trace)``."""
        data = getattr(x, "data", x)
        q = encode(np.asarray(data, dtype=np.float32), self.fmt.frac_bits)
        # A deterministic noise substream per call: run k of a model is
        # reproducible regardless of what ran before it.
        rng = np.random.default_rng((self.config.seed, self._calls))
        self._calls += 1
        ctx = _SecureContext(self.fmt, rng, self.pool)
        for step in self._steps:
            q = step(q, ctx)
        trace = ProtocolTrace(frac_bits=self.fmt.frac_bits, layers=ctx.layers,
                              protocol=self.protocol)
        self.last_trace = trace
        return decode(np.array(q, copy=True), self.fmt.frac_bits), trace

    def __call__(self, x: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
        """Run :meth:`run` and return the decoded output only.

        ``out``, when given, receives the result in place (shapes must
        match) and is returned — the contract of
        :meth:`repro.inference.CompiledModel.__call__`, so a serving worker
        drives float and secure models through one executor.
        """
        result, _ = self.run(x)
        if out is None:
            return result
        if out.shape != result.shape:
            raise ValueError(
                f"out has shape {out.shape}, forward produced {result.shape}")
        np.copyto(out, result, casting="same_kind")
        return out

    def estimate(self, protocol: Union[str, Protocol, None] = None) -> SecureCostEstimate:
        """Online-cost estimate of the most recent call's trace."""
        if self.last_trace is None:
            raise RuntimeError("no trace yet — run the model first")
        return self.last_trace.estimate(protocol)

    def __repr__(self) -> str:
        return (f"SecureCompiledModel({type(self.model).__name__}, "
                f"steps={self.num_steps}, frac_bits={self.fmt.frac_bits}, "
                f"protocol={self.protocol.name})")


def secure_compile(model: Module, config: Optional[SecureConfig] = None,
                   pool: Optional[BufferPool] = None) -> SecureCompiledModel:
    """Lower ``model`` to the fixed-point secure-inference path.

    The model is compiled with evaluation semantics (dropout removed, batch
    normalisation folded to its running statistics).  Raises
    :class:`SecureExecutionError` for layers a hybrid protocol cannot
    execute (or that this runtime does not model); see the module docstring.
    """
    cfg = config if config is not None else SecureConfig()
    build = _SecureBuild(cfg.fixed_point(), pool if pool is not None else BufferPool())
    steps = build.emit(lower(model))
    return SecureCompiledModel(model, steps, build.pool, cfg)


@dataclass
class SecureStats:
    """Cumulative protocol accounting of one :class:`SecurePredictor`.

    The secure counterpart of :class:`repro.inference.PredictorStats`:
    ``requests``/``batches`` count the traffic; the remaining fields
    accumulate the measured :meth:`~repro.ppml.trace.ProtocolTrace.totals`
    of every executed forward — the per-request protocol accounting that
    secure serving surfaces in ``GET /stats``.
    """

    requests: int = 0
    batches: int = 0
    macs: int = 0
    mult_ops: int = 0
    relu_ops: int = 0
    truncations: int = 0
    rounds: int = 0

    def record(self, trace: ProtocolTrace, requests: int) -> None:
        """Fold one executed trace (covering ``requests`` queries) in."""
        totals = trace.totals()
        self.requests += int(requests)
        self.batches += 1
        self.macs += int(totals["macs"])
        self.mult_ops += int(totals["mult_ops"])
        self.relu_ops += int(totals["relu_ops"])
        self.truncations += int(totals["truncations"])
        self.rounds += int(totals["rounds"])

    def to_dict(self) -> Dict[str, int]:
        """All counters as one JSON-ready dict."""
        return {"requests": self.requests, "batches": self.batches,
                "macs": self.macs, "mult_ops": self.mult_ops,
                "relu_ops": self.relu_ops, "truncations": self.truncations,
                "rounds": self.rounds}


class SecurePredictor:
    """Single-sample front end over a :class:`SecureCompiledModel`.

    The secure analogue of :class:`repro.inference.BatchedPredictor` —
    without micro-batching, because PPML protocols answer one client query
    at a time (which is also the static analysis' counting convention).
    Both predictors implement the :class:`repro.inference.Predictor`
    protocol (``predict`` / ``predict_batch`` / ``stats`` / ``close`` and
    context-manager use), which is what lets the serving worker host either
    behind one code path.
    """

    def __init__(self, model: Module, protocol: Union[str, Protocol] = "delphi",
                 frac_bits: int = 12, truncation: str = "nearest", seed: int = 0,
                 pool: Optional[BufferPool] = None) -> None:
        self.model = model
        self.seed = int(seed)
        self.stats = SecureStats()
        self.compiled = secure_compile(
            model, SecureConfig(protocol=protocol, frac_bits=frac_bits,
                                truncation=truncation, seed=seed), pool=pool)
        self._variants: Dict[Tuple[str, int, str], SecureCompiledModel] = {
            self._variant_key(self.compiled.config): self.compiled}
        self._closed = False

    @staticmethod
    def _variant_key(config: SecureConfig) -> Tuple[str, int, str]:
        return (resolve_protocol(config.protocol).name, config.frac_bits,
                config.truncation)

    @property
    def last_trace(self) -> Optional[ProtocolTrace]:
        """Trace of the most recent query."""
        return self.compiled.last_trace

    @property
    def protocol(self) -> Protocol:
        """Protocol the default compilation is costed under."""
        return self.compiled.protocol

    def variant(self, protocol: Union[str, Protocol, None] = None,
                frac_bits: Optional[int] = None,
                truncation: Optional[str] = None) -> SecureCompiledModel:
        """The compiled model for a per-request (protocol, frac_bits,
        truncation) override, compiled lazily and cached.

        Variants share this predictor's model, seed and
        :class:`~repro.inference.buffers.BufferPool`; omitted fields fall
        back to the defaults given at construction.  This is what lets one
        serving worker answer requests in several secure configurations
        without re-building the model.
        """
        base = self.compiled.config
        config = SecureConfig(
            protocol=base.protocol if protocol is None else protocol,
            frac_bits=base.frac_bits if frac_bits is None else int(frac_bits),
            truncation=base.truncation if truncation is None else str(truncation),
            seed=self.seed)
        key = self._variant_key(config)
        compiled = self._variants.get(key)
        if compiled is None:
            compiled = secure_compile(self.model, config, pool=self.compiled.pool)
            self._variants[key] = compiled
        return compiled

    def predict(self, sample: np.ndarray,
                timeout: Optional[float] = None) -> np.ndarray:
        """Answer one client query (a single un-batched sample).

        ``timeout`` exists for :class:`repro.inference.Predictor` parity and
        is ignored: secure execution is synchronous in-process, so there is
        no queue to time out of.
        """
        del timeout
        data = getattr(sample, "data", sample)
        out, trace = self.compiled.run(np.asarray(data)[None, ...])
        self.stats.record(trace, 1)
        return out[0]

    def predict_batch(self, batch: np.ndarray) -> np.ndarray:
        """Run a batch in one pass (trace counts then cover the whole batch)."""
        out, trace = self.compiled.run(batch)
        self.stats.record(trace, int(np.asarray(getattr(batch, "data", batch)).shape[0]))
        return out

    def estimate(self, protocol: Union[str, Protocol, None] = None) -> SecureCostEstimate:
        """Online cost of the most recent query under ``protocol``."""
        return self.compiled.estimate(protocol)

    def close(self, timeout: float = 5.0) -> None:
        """Release the predictor.  Idempotent; ``timeout`` exists for
        :class:`repro.inference.Predictor` parity (nothing here blocks)."""
        del timeout
        self._closed = True

    def __enter__(self) -> "SecurePredictor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Shared emission helpers
# --------------------------------------------------------------------------- #

def _int_project(cols: np.ndarray, wq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One grouped projection on pre-lowered integer columns (scale ``2f``)."""
    return np.matmul(wq, cols, out=out)


def _conv_macs(n: int, groups: int, f_g: int, patch: int, positions: int) -> int:
    return n * groups * f_g * patch * positions


def _refuse_bilinear(op: Op, build: _SecureBuild) -> SecureStep:
    raise SecureExecutionError(
        f"full-rank bilinear (T1-family) layers are not supported by the "
        f"secure runtime (layer '{op.name}'): the X^T W X term has no cheap "
        f"secret-shared evaluation — convert to a composable design first")


# --------------------------------------------------------------------------- #
# First-order layers
# --------------------------------------------------------------------------- #

def _secure_linear(op: Op, build: _SecureBuild) -> SecureStep:
    module, name = op.module, op.name
    wq_t = build.encode_weight(module.weight.data.T)
    bias_q = (build.encode_bias(module.bias.data)
              if module.bias is not None else None)
    in_features, out_features = module.in_features, module.out_features

    def linear_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        acc = q @ wq_t                       # scale 2f
        if bias_q is not None:
            np.add(acc, bias_q, out=acc)
        out = ctx.truncate(acc, out=acc)
        batch = int(np.prod(out.shape[:-1]))
        ctx.record(name, "Linear", out.shape,
                   macs=batch * in_features * out_features,
                   truncations=out.size, rounds=ROUNDS_LINEAR)
        return out

    return linear_step


def _secure_conv2d(op: Op, build: _SecureBuild) -> SecureStep:
    module, name = op.module, op.name
    stride, padding, groups = module.stride, module.padding, module.groups
    f, c_g, kh, kw = module.weight.shape
    wq = build.encode_weight(module.weight.data).reshape(groups, f // groups,
                                                         c_g * kh * kw)
    bias_q = (build.encode_bias(module.bias.data).reshape(1, f, 1, 1)
              if module.bias is not None else None)
    key = build.next_key()

    def conv_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        n, c, h, w = q.shape
        oh = conv_output_size(h, kh, stride[0], padding[0])
        ow = conv_output_size(w, kw, stride[1], padding[1])
        cols_buf = ctx.pool.get((key, "cols"), (n, c, kh, kw, oh, ow), dtype=np.int64)
        cols = im2col(q, kh, kw, stride, padding, out=cols_buf)
        cols = cols.reshape(n, groups, c_g * kh * kw, oh * ow)
        acc = _int_project(cols, wq,
                           ctx.pool.get((key, "out"), (n, groups, f // groups, oh * ow),
                                        dtype=np.int64))
        acc = acc.reshape(n, f, oh, ow)
        if bias_q is not None:
            np.add(acc, bias_q, out=acc)
        out = ctx.truncate(acc, out=acc)
        ctx.record(name, "Conv2d", out.shape,
                   macs=_conv_macs(n, groups, f // groups, c_g * kh * kw, oh * ow),
                   truncations=out.size, rounds=ROUNDS_LINEAR)
        return out

    return conv_step


def _secure_batchnorm(op: Op, build: _SecureBuild) -> SecureStep:
    module, name = op.module, op.name
    if not module.track_running_stats:
        raise SecureExecutionError(
            f"batch normalisation without running statistics (layer '{name}') "
            f"depends on batch-mate values; a PPML deployment folds BatchNorm "
            f"into an affine transform of its running statistics")
    # Fold to the affine form out = x * scale + shift, like any deployment.
    inv_std = 1.0 / np.sqrt(module.running_var + module.eps)
    scale = inv_std * (module.weight.data if module.affine else 1.0)
    shift = -module.running_mean * scale + (module.bias.data if module.affine else 0.0)
    scale_q = build.encode_weight(scale)
    shift_q = build.encode_bias(shift)
    type_name = type(module).__name__

    def batchnorm_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        stat_shape = module._stat_shape(q.ndim)
        acc = q * scale_q.reshape(stat_shape)          # public per-channel mult
        np.add(acc, shift_q.reshape(stat_shape), out=acc)
        out = ctx.truncate(acc, out=acc)
        ctx.record(name, type_name, out.shape, macs=out.size,
                   truncations=out.size, rounds=0)
        return out

    return batchnorm_step


def _secure_layernorm(op: Op, build: _SecureBuild) -> SecureStep:
    raise SecureExecutionError(
        f"LayerNorm (layer '{op.name}') needs a secure inverse "
        f"square root, which no supported protocol provides as a cheap "
        f"primitive; fold or remove it before secure compilation")


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #

def _secure_relu(op: Op, build: _SecureBuild) -> SecureStep:
    name = op.name

    def relu_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        out = np.maximum(q, 0)            # exact comparison on fixed point
        ctx.record(name, "ReLU", out.shape, relu_ops=out.size, rounds=ROUNDS_GARBLED)
        return out

    return relu_step


def _secure_leaky_relu(op: Op, build: _SecureBuild) -> SecureStep:
    name = op.name
    slope_q = int(encode(np.asarray(op.module.negative_slope), build.fmt.frac_bits))

    def leaky_relu_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        negative = ctx.truncate(q * slope_q)        # public-constant multiply
        out = np.where(q > 0, q, negative)
        ctx.record(name, "LeakyReLU", out.shape, relu_ops=out.size,
                   truncations=out.size, rounds=ROUNDS_GARBLED)
        return out

    return leaky_relu_step


def _garbled_function(fn, type_label: str):
    """Emitter for smooth activations evaluated inside a garbled circuit.

    A garbled circuit can evaluate an arbitrary fixed-point function table;
    the cost model (like the static one) charges one comparison-equivalent
    per element.  The simulation evaluates the function on the decoded
    values and re-encodes — the value a circuit for the same fixed-point
    format would output, up to its final rounding.
    """

    def emitter(op: Op, build: _SecureBuild) -> SecureStep:
        name = op.name

        def garbled_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
            out = encode(fn(decode(q, ctx.fmt.frac_bits)), ctx.fmt.frac_bits)
            ctx.record(name, type_label, out.shape, relu_ops=out.size,
                       rounds=ROUNDS_GARBLED)
            return out

        return garbled_step

    return emitter


def _secure_softmax(op: Op, build: _SecureBuild) -> SecureStep:
    name = op.name
    axis = op.module.axis

    def softmax_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        # The client decrypts the logits and normalises locally — standard in
        # every PPML deployment, and why the static model prices Softmax at
        # zero.  Recorded (with zero ops) so the trace stays complete.
        x = decode(q, ctx.fmt.frac_bits)
        shifted = x - x.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = encode(e / e.sum(axis=axis, keepdims=True), ctx.fmt.frac_bits)
        ctx.record(name, "Softmax", out.shape, rounds=0)
        return out

    return softmax_step


def _secure_square(op: Op, build: _SecureBuild) -> SecureStep:
    module, name = op.module, op.name
    frac_bits = build.fmt.frac_bits
    scale_q = int(encode(np.asarray(module.scale), frac_bits))
    linear_q = int(encode(np.asarray(module.linear), frac_bits))
    plain_square = module.scale == 1.0 and not module.linear

    def square_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        squared = ctx.truncate(q * q)                  # the one Beaver triple
        truncations = q.size
        if plain_square:
            out = squared
        else:
            out = ctx.truncate(squared * scale_q)      # public-constant mults
            truncations += q.size
            if module.linear:
                np.add(out, ctx.truncate(q * linear_q), out=out)
                truncations += q.size
        ctx.record(name, "Square", out.shape, mult_ops=q.size,
                   truncations=truncations, rounds=ROUNDS_MULT)
        return out

    return square_step


def _secure_flatten(op: Op, build: _SecureBuild) -> SecureStep:
    start_dim = op.module.start_dim

    def flatten_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        return q.reshape(q.shape[:start_dim] + (-1,))

    return flatten_step


def _secure_zeropad(op: Op, build: _SecureBuild) -> SecureStep:
    left, right, top, bottom = op.module.padding

    def zeropad_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        pad_width = [(0, 0)] * (q.ndim - 2) + [(top, bottom), (left, right)]
        return np.pad(q, pad_width, mode="constant")

    return zeropad_step


def _secure_upsample(op: Op, build: _SecureBuild) -> SecureStep:
    scale = op.module.scale_factor

    def upsample_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        return q.repeat(scale, axis=2).repeat(scale, axis=3)

    return upsample_step


# --------------------------------------------------------------------------- #
# Pooling
# --------------------------------------------------------------------------- #

def _pool_geometry(module) -> Tuple[int, int, Tuple[int, int], Tuple[int, int]]:
    kh, kw = _pair(module.kernel_size)
    stride = _pair(module.stride if module.stride is not None else module.kernel_size)
    return kh, kw, stride, _pair(module.padding)


def _secure_maxpool(op: Op, build: _SecureBuild) -> SecureStep:
    name = op.name
    kh, kw, stride, padding = _pool_geometry(op.module)

    def maxpool_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        # The float path's zero-padded window max, evaluated with exact
        # integer comparisons (kh*kw-1 per output element).
        out = window_max(q, kh, kw, stride, padding)
        ctx.record(name, "MaxPool2d", out.shape,
                   relu_ops=out.size * max(kh * kw - 1, 1), rounds=ROUNDS_GARBLED)
        return out

    return maxpool_step


def _window_average(q: np.ndarray, kh: int, kw: int, stride, padding,
                    key, ctx: _SecureContext, name: str,
                    type_name: str) -> np.ndarray:
    """Shared secure average pooling: free window sums, one public divisor mult."""
    n, c, h, w = q.shape
    oh = conv_output_size(h, kh, stride[0], padding[0])
    ow = conv_output_size(w, kw, stride[1], padding[1])
    cols_buf = ctx.pool.get((key, "cols"), (n, c, kh, kw, oh, ow), dtype=np.int64)
    cols = im2col(q, kh, kw, stride, padding, out=cols_buf)
    sums = cols.reshape(n, c, kh * kw, oh, ow).sum(axis=2)      # additions: free
    inv_q = int(encode(np.asarray(1.0 / (kh * kw)), ctx.fmt.frac_bits))
    out = ctx.truncate(sums * inv_q)
    ctx.record(name, type_name, out.shape, macs=out.size,
               truncations=out.size, rounds=0)
    return out


def _secure_avgpool(op: Op, build: _SecureBuild) -> SecureStep:
    name = op.name
    kh, kw, stride, padding = _pool_geometry(op.module)
    key = build.next_key()

    def avgpool_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        return _window_average(q, kh, kw, stride, padding, key, ctx, name, "AvgPool2d")

    return avgpool_step


def _secure_adaptive_avgpool(op: Op, build: _SecureBuild) -> SecureStep:
    name = op.name
    output_size = op.module.output_size
    key = build.next_key()

    def adaptive_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        n, c, h, w = q.shape
        if output_size != 1 and (h % output_size or w % output_size):
            raise ValueError(
                f"adaptive_avg_pool2d requires divisible sizes, got {h}x{w} -> {output_size}"
            )
        kh = h if output_size == 1 else h // output_size
        kw = w if output_size == 1 else w // output_size
        return _window_average(q, kh, kw, (kh, kw), (0, 0), key, ctx, name,
                               "AdaptiveAvgPool2d")

    return adaptive_step


def _secure_global_avgpool(op: Op, build: _SecureBuild) -> SecureStep:
    name = op.name

    def global_avgpool_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        n, c, h, w = q.shape
        sums = q.sum(axis=(2, 3))                                # additions: free
        inv_q = int(encode(np.asarray(1.0 / (h * w)), ctx.fmt.frac_bits))
        out = ctx.truncate(sums * inv_q)
        ctx.record(name, "GlobalAvgPool2d", out.shape, macs=out.size,
                   truncations=out.size, rounds=0)
        return out

    return global_avgpool_step


# --------------------------------------------------------------------------- #
# Quadratic layers
# --------------------------------------------------------------------------- #

def _combine_projections(required, proj: Dict[str, np.ndarray],
                         bias_q2: Optional[np.ndarray],
                         ctx: _SecureContext) -> Tuple[np.ndarray, int]:
    """Assemble scale-``f`` projections into the neuron output (one truncation).

    The Hadamard product is the layer's one Beaver-triple batch (scale
    ``2f``); linear-path terms and the bias are shifted up to ``2f`` and
    added before the single truncation, exactly as an MPC implementation
    accumulates them.  Returns ``(output, secure_mults_performed)``.
    """
    frac_bits = ctx.fmt.frac_bits
    mults = 0
    if "a" in required and "b" in required:
        acc = proj["a"] * proj["b"]
        mults = acc.size
    elif "a" in required:                     # T3: (Wa X)^2
        acc = proj["a"] * proj["a"]
        mults = acc.size
    else:                                     # T2: the projection is the output
        acc = proj["sq"] << np.int64(frac_bits)
    for kind in ("c", "sq", "id"):
        if kind in required and not (kind == "sq" and "a" not in required):
            acc = acc + (proj[kind] << np.int64(frac_bits))
    if bias_q2 is not None:
        acc = acc + bias_q2
    return ctx.truncate(acc, out=acc), mults


def _secure_quadratic_conv(op: Op, build: _SecureBuild) -> SecureStep:
    """Fused fixed-point quadratic convolution (one shared im2col, like the
    float compiler) with per-projection truncation and one combine truncation."""
    module, name = op.module, op.name
    type_name = type(module).__name__
    required = REQUIRED_RESPONSES[module.neuron_type]
    stride, padding, groups = module.stride, module.padding, module.groups
    kh, kw = module.kernel_size
    f = module.out_channels
    c_g = module.in_channels // groups
    patch = c_g * kh * kw
    wqs = {
        kind: build.encode_weight(
            getattr(module, f"weight_{kind}").data).reshape(groups, f // groups, patch)
        for kind in required if kind != "id"
    }
    bias_q2 = (build.encode_bias(module.bias.data).reshape(1, f, 1, 1)
               if module.bias is not None else None)
    key = build.next_key()

    def quadratic_conv_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        n, c, h, w = q.shape
        oh = conv_output_size(h, kh, stride[0], padding[0])
        ow = conv_output_size(w, kw, stride[1], padding[1])
        positions = oh * ow
        out_shape = (n, groups, f // groups, positions)
        cols_buf = ctx.pool.get((key, "cols"), (n, c, kh, kw, oh, ow), dtype=np.int64)
        cols = im2col(q, kh, kw, stride, padding, out=cols_buf)
        cols = cols.reshape(n, groups, patch, positions)
        macs = 0
        mult_ops = 0
        truncations = 0
        proj: Dict[str, np.ndarray] = {}
        sq_cols = None
        for kind in required:
            if kind == "id":
                proj["id"] = q
                continue
            if kind == "sq":
                # One Beaver triple per *input* element: square the input
                # once, share its lowering (im2col of x² == im2col(x)²,
                # because zero padding squares to zero).
                sq_in = ctx.truncate(q * q)
                mult_ops += q.size
                truncations += q.size
                sq_buf = ctx.pool.get((key, "sq_cols"), (n, c, kh, kw, oh, ow),
                                      dtype=np.int64)
                sq_cols = im2col(sq_in, kh, kw, stride, padding, out=sq_buf)
                source = sq_cols.reshape(n, groups, patch, positions)
            else:
                source = cols
            projected = _int_project(source, wqs[kind],
                                     ctx.pool.get((key, kind), out_shape, dtype=np.int64))
            macs += _conv_macs(n, groups, f // groups, patch, positions)
            projected = ctx.truncate(projected, out=projected)
            truncations += projected.size
            proj[kind] = projected.reshape(n, f, oh, ow)
        out, combine_mults = _combine_projections(required, proj, bias_q2, ctx)
        mult_ops += combine_mults
        truncations += out.size
        ctx.record(name, type_name, out.shape, macs=macs, mult_ops=mult_ops,
                   truncations=truncations,
                   rounds=ROUNDS_LINEAR + (ROUNDS_MULT if mult_ops else 0))
        return out

    return quadratic_conv_step


def _secure_quadratic_linear(op: Op, build: _SecureBuild) -> SecureStep:
    """Fixed-point dense quadratic layer (composable designs; T1 unsupported)."""
    module, name = op.module, op.name
    type_name = type(module).__name__
    required = REQUIRED_RESPONSES[module.neuron_type]
    if "bilinear" in required:
        return _refuse_bilinear(op, build)
    wqs_t = {
        kind: build.encode_weight(getattr(module, f"weight_{kind}").data.T)
        for kind in required if kind != "id"
    }
    bias_q2 = build.encode_bias(module.bias.data) if module.bias is not None else None
    in_features, out_features = module.in_features, module.out_features

    def quadratic_linear_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        batch = int(np.prod(q.shape[:-1]))
        macs = 0
        mult_ops = 0
        truncations = 0
        proj: Dict[str, np.ndarray] = {}
        for kind in required:
            if kind == "id":
                proj["id"] = q
                continue
            if kind == "sq":
                source = ctx.truncate(q * q)
                mult_ops += q.size
                truncations += q.size
            else:
                source = q
            projected = ctx.truncate(source @ wqs_t[kind])
            macs += batch * in_features * out_features
            truncations += projected.size
            proj[kind] = projected
        out, combine_mults = _combine_projections(required, proj, bias_q2, ctx)
        mult_ops += combine_mults
        truncations += out.size
        ctx.record(name, type_name, out.shape, macs=macs, mult_ops=mult_ops,
                   truncations=truncations,
                   rounds=ROUNDS_LINEAR + (ROUNDS_MULT if mult_ops else 0))
        return out

    return quadratic_linear_step


# --------------------------------------------------------------------------- #
# Residual blocks
# --------------------------------------------------------------------------- #

def _secure_residual(op: Op, build: _SecureBuild) -> SecureStep:
    main, shortcut, after = (build.emit(plan) for plan in op.plans)

    def basic_block_step(q: np.ndarray, ctx: _SecureContext) -> np.ndarray:
        out = q
        for step in main:
            out = step(out, ctx)
        residual = q
        for step in shortcut:
            residual = step(residual, ctx)
        out = out + residual                # share addition: free, exact
        for step in after:
            out = step(out, ctx)
        return out

    return basic_block_step


#: op kind -> emitter(op, build) -> secure step.  Kinds missing here refuse.
_SECURE_EMITTERS: Dict[str, Callable[[Op, _SecureBuild], SecureStep]] = {
    "linear": _secure_linear,
    "conv": _secure_conv2d,
    "batchnorm": _secure_batchnorm,
    "layernorm": _secure_layernorm,
    "relu": _secure_relu,
    "leaky_relu": _secure_leaky_relu,
    "sigmoid": _garbled_function(lambda x: 1.0 / (1.0 + np.exp(-x)), "Sigmoid"),
    "tanh": _garbled_function(np.tanh, "Tanh"),
    "gelu": _garbled_function(
        lambda x: 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                           * (x + 0.044715 * x * x * x))), "GELU"),
    "softmax": _secure_softmax,
    "square": _secure_square,
    "flatten": _secure_flatten,
    "zeropad": _secure_zeropad,
    "upsample": _secure_upsample,
    "maxpool": _secure_maxpool,
    "avgpool": _secure_avgpool,
    "adaptive_avgpool": _secure_adaptive_avgpool,
    "global_avgpool": _secure_global_avgpool,
    "quadratic_conv": _secure_quadratic_conv,
    "quadratic_linear": _secure_quadratic_linear,
    "bilinear_conv": _refuse_bilinear,
    "residual": _secure_residual,
}
