"""Measured per-kernel throughput of a compute backend, cached per host.

The capacity model (:mod:`repro.capacity`) predicts serving throughput and
latency from *first principles*: per-layer work counts priced by what this
host's kernels actually sustain.  The work counts come from the model
(:func:`repro.profiler.profile_model` over ``inference_plan()``); the rates
come from here — short micro-probes of the three kernel classes every
compiled model is built from, plus two serving-overhead probes:

``gemm_macs_per_s``
    dense projections (``Backend.gemm``): one square-ish float32 matmul,
    sized to live in cache but dominate its own dispatch cost.
``conv_macs_per_s``
    convolutions: a three-stage *pyramid* of quadratic conv steps (shared
    ``Backend.im2col`` lowering, three ``Backend.conv_project`` weight
    sets — one ``np.matmul`` each, the eager arithmetic — and a fused
    combine) whose spatial extent shrinks stage by stage the
    way the backbones' does.  Pricing the pyramid instead of one wide
    tile matters: most of a backbone's MACs live in late layers whose
    tiny matrices run far below peak BLAS efficiency, so a single
    cache-friendly tile would overstate the sustainable rate ~2x.
``elementwise_ops_per_s``
    the element-wise glue (frozen BatchNorm, bias adds, activations): a
    broadcast scale+shift over one layer-sized activation map, so the
    rate carries the per-call and striding overheads the real glue pays.
``pool_window_elems_per_s``
    windowed reductions (``Backend.maxpool``): output elements x window
    per second over the same shrinking pyramid of shapes.  Pooling moves
    almost no FLOPs but its strided window views defeat vectorization —
    on small backbones it rivals the convolutions for wall clock, which
    is exactly why it gets its own probe instead of the element-wise rate
    (two orders of magnitude too optimistic).
``dispatch_us``
    per-call fixed overhead of one tiny kernel dispatch — the floor a
    compiled step pays regardless of its arithmetic.
``ipc_us``
    one queue round trip between two threads (``SimpleQueue`` put + get of
    a small control tuple) — the unit of parent↔worker control traffic.
``copy_bytes_per_s``
    large-array ``np.copyto`` bandwidth — what moving a request payload
    into (and a response out of) a shared-memory ring slot costs.

Probes are deliberately small (default budget ~60 ms each) because a rate
is a *slope*, not a benchmark: medians over repeated timed calls are stable
enough for capacity planning at the ±35 % band the benches validate.

Measuring even ~0.4 s per backend adds up across tests and CLI calls, so
results are cached twice: in-process per ``(backend, host)`` and on disk in
``~/.cache/repro/kernel_rates.json`` (override with ``REPRO_RATES_CACHE``;
set it to ``off`` to disable the disk layer).  The host key folds in the
platform, CPU count and NumPy version, so a cache file copied between
machines — or a container resized under the same image — never serves
stale slopes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

#: schema version of the on-disk cache; bump when probe definitions change
#: (3: ``conv_project`` became one ``np.matmul``, so older conv rates are stale).
CACHE_VERSION = 3

#: in-process cache: (backend name, host key) -> KernelRates.
_MEMORY_CACHE: Dict[Tuple[str, str], "KernelRates"] = {}


def host_key() -> str:
    """One string identifying the hardware/software the rates were measured on."""
    return "|".join([
        platform.machine(),
        platform.system(),
        f"cpus={os.cpu_count() or 1}",
        f"numpy={np.__version__}",
        f"py={platform.python_version_tuple()[0]}.{platform.python_version_tuple()[1]}",
    ])


@dataclass(frozen=True)
class KernelRates:
    """Measured sustained rates of one backend on one host."""

    backend: str
    host: str
    gemm_macs_per_s: float
    conv_macs_per_s: float
    elementwise_ops_per_s: float
    pool_window_elems_per_s: float
    dispatch_us: float
    ipc_us: float
    copy_bytes_per_s: float
    measured_at: float = 0.0

    def validate(self) -> None:
        for name in ("gemm_macs_per_s", "conv_macs_per_s",
                     "elementwise_ops_per_s", "pool_window_elems_per_s",
                     "copy_bytes_per_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("dispatch_us", "ipc_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KernelRates":
        known = {field.name for field in dataclasses.fields(cls)}
        rates = cls(**{key: value for key, value in data.items() if key in known})
        rates.validate()
        return rates


# --------------------------------------------------------------------------- #
# Probes
# --------------------------------------------------------------------------- #

def _median_seconds(fn, budget_s: float, min_repeats: int = 3) -> float:
    """Median wall-clock seconds of repeated ``fn()`` calls within a budget."""
    timings = []
    deadline = time.perf_counter() + budget_s
    while len(timings) < min_repeats or time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
        if len(timings) >= 64:          # plenty for a median
            break
    timings.sort()
    return timings[len(timings) // 2]


def _probe_gemm(backend, budget_s: float) -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((96, 192)).astype(np.float32)
    w = rng.standard_normal((192, 192)).astype(np.float32)
    out = np.empty((96, 192), dtype=np.float32)
    macs = x.shape[0] * x.shape[1] * w.shape[1]
    seconds = _median_seconds(lambda: backend.gemm(x, w, out=out), budget_s)
    return macs / seconds


def _probe_conv(backend, budget_s: float) -> float:
    """Sustained MAC rate of a quadratic conv *pyramid* (see module docs).

    Each stage mirrors the compiled ``quadratic_conv_step``: one im2col
    lowering shared by three projection weight sets, then a fused
    element-wise combine — and the stages shrink spatially (16² → 8² → 4²)
    with growing channel counts, like a backbone after pooling.  The probe
    runs at **batch 1** because that is what serving executes: the pool
    always runs exact mode (every request is its own batch-of-1 forward),
    so the sustained rate must include the per-step overheads a single
    sample cannot amortize.  MACs are counted exactly as
    :func:`repro.profiler.profile_model` counts a quadratic conv
    (``n_sets x f x patch + 2f`` per output position), so a capacity plan
    priced by this rate is consistent with the profile it multiplies.
    """
    rng = np.random.default_rng(1)
    n, kh, kw = 1, 3, 3
    n_sets = 3                          # the paper neuron's (a, b, c) responses
    stages = []
    macs = 0
    # Stem (3-channel, patch too small for BLAS efficiency), two mid stages
    # (where most MACs live), and a skinny head (wide weights over a 2x2
    # map: memory-bound on the weight stream) — the efficiency *mix* of a
    # pooled backbone, not just its best-behaved middle.
    for c, h, f in ((3, 16, 16), (16, 8, 32), (32, 4, 64), (64, 2, 64)):
        patch = c * kh * kw
        x = rng.standard_normal((n, c, h, h)).astype(np.float32)
        wmats = [rng.standard_normal((1, f, patch)).astype(np.float32)
                 for _ in range(n_sets)]
        outs = [np.empty((1, f, h * h * n), dtype=np.float32)
                for _ in range(n_sets)]
        combined = np.empty((1, f, h * h * n), dtype=np.float32)
        stages.append((x, wmats, outs, combined))
        macs += n * (n_sets * f * patch + 2 * f) * h * h

    def step() -> None:
        for x, wmats, outs, combined in stages:
            cols = backend.im2col(x, kh, kw, (1, 1), (1, 1))
            for wmat, out in zip(wmats, outs):
                backend.conv_project(cols, wmat, out)
            backend.multiply(outs[0], outs[1], out=combined)
            backend.add(combined, outs[2], out=combined)

    seconds = _median_seconds(step, budget_s)
    return macs / seconds


def _probe_elementwise(backend, budget_s: float) -> float:
    """Element-wise rate at *layer-shaped* operands (broadcast scale+shift).

    The glue work a capacity plan prices (frozen BatchNorm, biases,
    activations) runs over one layer's activation map with broadcast
    ``(1, C, 1, 1)`` parameters — a few thousand elements per call, where
    per-call overhead and strided broadcasting dominate.  A probe over one
    large contiguous buffer would overstate this rate ~30x.
    """
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 16, 16, 16)).astype(np.float32)
    scale = rng.standard_normal((1, 16, 1, 1)).astype(np.float32)
    shift = rng.standard_normal((1, 16, 1, 1)).astype(np.float32)
    out = np.empty_like(x)
    ops = 2 * x.size                    # one multiply + one add per element

    def step() -> None:
        backend.multiply(x, scale, out=out)
        backend.add(out, shift, out=out)

    seconds = _median_seconds(step, budget_s)
    return ops / seconds


def _probe_pool(backend, budget_s: float) -> float:
    """Windowed-reduction rate over the same pyramid the conv probe walks."""
    rng = np.random.default_rng(3)
    n, k = 1, 2
    stages = []
    window_elems = 0
    for c, h in ((16, 16), (32, 8), (64, 4)):
        x = rng.standard_normal((n, c, h, h)).astype(np.float32)
        stages.append(x)
        window_elems += n * c * (h // k) * (h // k) * k * k

    def step() -> None:
        for x in stages:
            backend.maxpool(x, (k, k), (k, k), (0, 0))

    step()
    seconds = _median_seconds(step, budget_s)
    return window_elems / seconds


def _probe_dispatch(backend, budget_s: float) -> float:
    x = np.ones((1, 8), dtype=np.float32)
    w = np.ones((8, 8), dtype=np.float32)
    out = np.empty((1, 8), dtype=np.float32)
    seconds = _median_seconds(lambda: backend.gemm(x, w, out=out), budget_s)
    return seconds * 1e6


def _probe_ipc(budget_s: float) -> float:
    import queue

    channel: "queue.SimpleQueue" = queue.SimpleQueue()
    frame = (0, 1, (8, 3, 16, 16), "float32")

    def step() -> None:
        channel.put(frame)
        channel.get()

    return _median_seconds(step, budget_s) * 1e6


def _probe_copy(budget_s: float) -> float:
    src = np.ones(1 << 20, dtype=np.float32)
    dst = np.empty_like(src)
    seconds = _median_seconds(lambda: np.copyto(dst, src), budget_s)
    return src.nbytes / seconds


# --------------------------------------------------------------------------- #
# Measurement + the two cache layers
# --------------------------------------------------------------------------- #

def cache_path() -> Optional[str]:
    """Disk-cache location, or None when disabled via ``REPRO_RATES_CACHE=off``."""
    override = os.environ.get("REPRO_RATES_CACHE", "")
    if override.lower() in ("off", "0", "none"):
        return None
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "kernel_rates.json")


def _load_disk_cache(path: str) -> Dict[str, dict]:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("version") != CACHE_VERSION:
            return {}
        entries = payload.get("rates", {})
        return entries if isinstance(entries, dict) else {}
    except (OSError, ValueError):
        return {}


def _store_disk_cache(path: str, entries: Dict[str, dict]) -> None:
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump({"version": CACHE_VERSION, "rates": entries}, handle,
                      indent=2, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        pass                            # a cold cache next run, never a failure


def measure_backend_rates(backend, budget_ms: float = 60.0,
                          refresh: bool = False) -> KernelRates:
    """Measure (or recall) one backend's :class:`KernelRates` on this host.

    ``budget_ms`` bounds each probe's measurement loop; ``refresh=True``
    bypasses both cache layers and re-measures (the new numbers replace the
    cached entry).  Thread-safety note: probes are pure compute, so a
    concurrent duplicate measurement is wasteful, never wrong.
    """
    if budget_ms <= 0:
        raise ValueError(f"budget_ms must be > 0, got {budget_ms}")
    host = host_key()
    memory_key = (backend.name, host)
    if not refresh and memory_key in _MEMORY_CACHE:
        return _MEMORY_CACHE[memory_key]

    path = cache_path()
    disk_key = f"{backend.name}@{host}"
    if not refresh and path is not None:
        entry = _load_disk_cache(path).get(disk_key)
        if entry is not None:
            try:
                rates = KernelRates.from_dict(entry)
            except (TypeError, ValueError):
                rates = None            # corrupt entry: fall through, re-measure
            if rates is not None and rates.host == host \
                    and rates.backend == backend.name:
                _MEMORY_CACHE[memory_key] = rates
                return rates

    budget_s = budget_ms / 1000.0
    rates = KernelRates(
        backend=backend.name,
        host=host,
        gemm_macs_per_s=_probe_gemm(backend, budget_s),
        conv_macs_per_s=_probe_conv(backend, budget_s),
        elementwise_ops_per_s=_probe_elementwise(backend, budget_s),
        pool_window_elems_per_s=_probe_pool(backend, budget_s),
        dispatch_us=_probe_dispatch(backend, budget_s),
        ipc_us=_probe_ipc(budget_s),
        copy_bytes_per_s=_probe_copy(budget_s),
        measured_at=time.time(),
    )
    rates.validate()
    _MEMORY_CACHE[memory_key] = rates
    if path is not None:
        entries = _load_disk_cache(path)
        entries[disk_key] = rates.to_dict()
        _store_disk_cache(path, entries)
    return rates


def clear_memory_cache() -> None:
    """Forget in-process measurements (tests use this to force re-probing)."""
    _MEMORY_CACHE.clear()
