"""What one request costs, in kernel-class work counts.

The planner prices work the way the compiled inference path executes it:
one probe forward (:func:`repro.inference.lowering.probe_leaves`) records
every leaf's shapes, the profiler turns them into exact per-layer MACs, and
this module buckets those MACs by the *kernel class* that will execute each
layer kind, because a GEMM MAC and an im2col-conv MAC sustain very different
rates on the same host:

``conv_macs``
    layers lowered through ``Backend.im2col`` + ``Backend.conv_project``
    (``Conv2d`` and every quadratic conv variant — their extra first-order
    responses and element-wise combines are already folded into the
    profiler's MAC counts).
``gemm_macs``
    layers lowered to ``Backend.gemm`` (``Linear`` and the quadratic linear
    variants).
``elementwise_ops``
    everything else the profiler counted (BatchNorm-style per-element
    work), priced at the element-wise glue rate.
``pool_window_elems``
    windowed-reduction work (max/avg pooling): output elements times the
    window each one reduces over.  Pooling has no parameters and almost no
    MACs, so the profiler skips it — but the windowed kernels run far
    below element-wise rates (strided window views defeat vectorization),
    and on small backbones they are a *plurality* of inference time.  The
    same probe forward collects them here.

Secure serving adds a second ledger: the per-request
:class:`~repro.ppml.offline.OfflineBudget` (Beaver triples, garbled labels)
and the protocol's online structure (communication rounds, GC/mult wire
costs) from a measured :class:`~repro.ppml.ProtocolTrace` — the same trace
the worker pool's warm-up forward produces to size its triple pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..autodiff.ops.conv import _pair

__all__ = ["RequestWork", "SecureWork", "request_work", "secure_work"]

#: layer kind -> kernel class; every other kind the profiler prices is
#: element-wise work.
_KERNEL_CLASSES = {
    "conv": "conv",
    "quadratic_conv": "conv",
    "bilinear_conv": "conv",
    "linear": "gemm",
    "quadratic_linear": "gemm",
}


def _kernel_window(module, in_shape, out_shape) -> int:
    return int(np.prod(_pair(module.kernel_size)))


def _whole_input(module, in_shape, out_shape) -> int:
    return max(1, int(np.prod(in_shape)) // max(1, int(np.prod(out_shape))))


#: pooling kind -> input elements each output element reads.  Fixed-window
#: pools read their kernel; global/adaptive pools read all of their input.
_POOL_WINDOWS = {
    "maxpool": _kernel_window,
    "avgpool": _kernel_window,
    "adaptive_avgpool": _whole_input,
    "global_avgpool": _whole_input,
}


@dataclass(frozen=True)
class RequestWork:
    """Per-request (batch-of-1) work counts of one model."""

    conv_macs: int
    gemm_macs: int
    elementwise_ops: int
    input_bytes: int
    output_bytes: int
    layers: int
    pool_window_elems: int = 0

    @property
    def total_macs(self) -> int:
        return self.conv_macs + self.gemm_macs

    @property
    def transport_bytes(self) -> int:
        """Payload bytes one request moves through the data plane (in + out)."""
        return self.input_bytes + self.output_bytes

    def to_dict(self) -> Dict[str, int]:
        return {
            "conv_macs": self.conv_macs,
            "gemm_macs": self.gemm_macs,
            "elementwise_ops": self.elementwise_ops,
            "total_macs": self.total_macs,
            "pool_window_elems": self.pool_window_elems,
            "input_bytes": self.input_bytes,
            "output_bytes": self.output_bytes,
            "layers": self.layers,
        }


@dataclass(frozen=True)
class SecureWork:
    """Per-request secure-serving structure from one measured trace."""

    rounds: int
    mult_ops: int
    relu_ops: int
    truncations: int
    online_ms: float            # trace priced under its protocol (incl. RTTs)
    round_trip_us: float
    triples_per_request: int
    labels_per_request: int

    def to_dict(self) -> Dict[str, float]:
        return {
            "rounds": self.rounds,
            "mult_ops": self.mult_ops,
            "relu_ops": self.relu_ops,
            "truncations": self.truncations,
            "online_ms": self.online_ms,
            "round_trip_us": self.round_trip_us,
            "triples_per_request": self.triples_per_request,
            "labels_per_request": self.labels_per_request,
        }


def request_work(model, input_shape: Sequence[int],
                 num_classes: Optional[int] = None) -> RequestWork:
    """Profile ``model`` at batch 1 and bucket its work by kernel class.

    ``input_shape`` is the per-sample shape (no batch dimension).  The
    output payload size is taken from ``num_classes`` when given, else from
    the probe forward's final layer profile.
    """
    from ..inference.lowering import probe_leaves
    from ..profiler.flops import profile_leaves

    shape = tuple(int(dim) for dim in input_shape)
    leaves = probe_leaves(model, shape, batch_size=1)
    profile = profile_leaves(leaves)
    counters = {"conv": 0, "gemm": 0, "elementwise": 0}
    last_shape: Tuple[int, ...] = (1,)
    for layer in profile.layers:
        counters[_KERNEL_CLASSES.get(layer.kind, "elementwise")] += layer.macs
        if layer.output_shape:
            last_shape = layer.output_shape
    if num_classes is not None:
        output_elements = int(num_classes)
    else:
        output_elements = int(np.prod(last_shape))
    itemsize = np.dtype(np.float32).itemsize
    return RequestWork(
        conv_macs=int(counters["conv"]),
        gemm_macs=int(counters["gemm"]),
        elementwise_ops=int(counters["elementwise"]),
        input_bytes=int(np.prod(shape)) * itemsize,
        output_bytes=output_elements * itemsize,
        layers=len(profile.layers),
        pool_window_elems=sum(
            int(np.prod(out_shape)) * _POOL_WINDOWS[leaf.kind](leaf.module, in_shape, out_shape)
            for leaf in leaves if leaf.kind in _POOL_WINDOWS
            for in_shape, out_shape in leaf.calls),
    )


def secure_work(trace) -> SecureWork:
    """Distill one :class:`~repro.ppml.ProtocolTrace` into planner inputs."""
    from ..ppml.offline import OfflineBudget

    estimate = trace.estimate()
    budget = OfflineBudget.from_trace(trace)
    return SecureWork(
        rounds=int(trace.total_rounds),
        mult_ops=int(trace.total_mult_ops),
        relu_ops=int(trace.total_relu_ops),
        truncations=int(trace.total_truncations),
        online_ms=float(estimate.online_milliseconds),
        round_trip_us=float(estimate.protocol.round_trip_us),
        triples_per_request=budget.triples,
        labels_per_request=budget.labels,
    )
