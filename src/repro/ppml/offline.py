"""``repro.ppml.offline`` — the precompute phase behind secure serving.

Hybrid PPML protocols (Delphi, Gazelle, CryptoNets) split every inference
into two phases.  The *offline* phase runs before any query arrives: the
parties generate Beaver triples for the secure multiplications and garble
the comparison circuits behind every ReLU.  The *online* phase then spends
that material — one triple per multiplication, one garbled table per
comparison.  A serving deployment therefore lives or dies on whether the
offline producers can keep up with the query rate; when they fall behind,
requests must stall or be shed.

This module models that split as infrastructure:

* :class:`OfflineBudget` — how much material *one* request consumes,
  derived from a measured :class:`~repro.ppml.trace.ProtocolTrace`,
* :class:`TriplePool` — one per-(protocol, frac_bits) stock of request
  quanta, refilled by a background producer thread and debited by the
  serving pool as requests dispatch,
* :class:`OfflinePhase` — the coordinator the serving data plane talks
  to: sizes pools from a warm-up trace, answers availability queries,
  and accounts for every request actually served.

Consistent with the runtime's "costed, not computed" convention
(:mod:`repro.ppml.runtime`), the producer genuinely generates random
triple and label material — so refill *rates* are measured, not guessed —
but retains only the counts: no live cryptographic state is kept.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from .trace import ProtocolTrace

__all__ = [
    "OfflineBudget",
    "OfflinePhase",
    "TriplePool",
    "pool_key",
]

#: Largest array the producer materialises in one go while generating a
#: request quantum.  Bounds peak memory regardless of model size.
_CHUNK = 65_536

#: Bytes of wire-label material per garbled comparison (two 128-bit labels).
_LABEL_BYTES = 32

#: EWMA smoothing for the measured refill rate (quanta per second).
_RATE_ALPHA = 0.3


def _generate_material(rng: np.random.Generator, budget: "OfflineBudget") -> None:
    """Generate one request's worth of offline material, then drop it.

    Beaver triples are ``(a, b, a*b)`` over the int64 ring; garbled
    comparisons are costed as two 128-bit wire labels each.  The material
    is really generated — that is what makes ``refill_rps`` a measurement —
    but per the package convention only counts are retained.
    """
    remaining = budget.triples
    while remaining > 0:
        n = min(remaining, _CHUNK)
        a = rng.integers(-(1 << 31), 1 << 31, size=n, dtype=np.int64)
        b = rng.integers(-(1 << 31), 1 << 31, size=n, dtype=np.int64)
        _ = a * b                          # the triple's third element
        remaining -= n
    remaining = budget.labels * _LABEL_BYTES
    while remaining > 0:
        n = min(remaining, _CHUNK)
        _ = rng.bytes(n)                   # wire-label material
        remaining -= n


def pool_key(protocol: str, frac_bits: int) -> str:
    """Canonical string key for one (protocol, frac_bits) triple pool.

    Offline material is protocol- and format-specific: a Beaver triple
    generated for ``delphi`` at 12 fractional bits cannot serve a
    ``gazelle`` request at 8.  Pools are therefore keyed ``delphi/f12``
    style and requests only draw from their own pool.
    """
    return f"{protocol}/f{int(frac_bits)}"


@dataclass(frozen=True)
class OfflineBudget:
    """Offline material consumed by a single request, from a measured trace.

    ``triples`` is one Beaver triple per secure multiplication and
    ``labels`` one garbled comparison per ReLU — the two quantities the
    offline phase must actually precompute.  ``truncations``, ``rounds``
    and ``macs`` ride along for accounting and reporting.
    """

    triples: int
    labels: int
    truncations: int
    rounds: int
    macs: int

    @classmethod
    def from_trace(cls, trace: ProtocolTrace) -> "OfflineBudget":
        """Derive the per-request budget from one traced forward pass.

        This is the warm-up contract: execute the model once under the
        secure runtime, and size the offline phase from what it *measured*
        rather than from static analysis.  (The drift between the two is
        separately asserted by ``ProtocolTrace.matches_report``.)
        """
        totals = trace.totals()
        return cls(triples=int(totals["mult_ops"]),
                   labels=int(totals["relu_ops"]),
                   truncations=int(totals["truncations"]),
                   rounds=int(totals["rounds"]),
                   macs=int(totals["macs"]))

    def to_dict(self) -> Dict[str, int]:
        """Per-request budget as one JSON-ready dict."""
        return {"triples": self.triples, "labels": self.labels,
                "truncations": self.truncations, "rounds": self.rounds,
                "macs": self.macs}


class TriplePool:
    """A stock of precomputed request quanta for one (protocol, frac_bits).

    The pool counts in *request quanta*: one unit of availability is all
    the material one request needs (``budget.triples`` Beaver triples plus
    ``budget.labels`` garbled comparisons).  A background producer thread
    refills the pool up to ``depth`` quanta; the serving pool debits it as
    requests dispatch.  The accounting invariant — checked by the fault
    tests across worker crashes — is::

        produced == available + consumed

    A pool starts *unsized* (no budget, no producer) so that an unstarted
    server can still report its full stats schema; :meth:`size` installs
    the warm-up budget and starts production.
    """

    def __init__(self, protocol: str, frac_bits: int, *, depth: int = 0,
                 seed: int = 0) -> None:
        self.protocol = str(protocol)
        self.frac_bits = int(frac_bits)
        self.depth = int(depth)
        self.budget: Optional[OfflineBudget] = None
        self.available = 0
        self.produced = 0
        self.consumed = 0
        self.stalls = 0
        self._cond = threading.Condition()
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        self._rng = np.random.default_rng((int(seed), hash(self.protocol) & 0xFFFF,
                                           self.frac_bits))
        self._refill_rps = 0.0

    # ------------------------------------------------------------- lifecycle
    def size(self, budget: OfflineBudget, depth: int) -> None:
        """Install the per-request ``budget``, set the target ``depth``,
        and start the background producer.  Idempotent on the thread."""
        if depth < 1:
            raise ValueError(f"triple pool depth must be >= 1, got {depth}")
        with self._cond:
            if self._closed:
                raise RuntimeError("triple pool is closed")
            self.budget = budget
            self.depth = int(depth)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._produce_loop,
                    name=f"triples-{pool_key(self.protocol, self.frac_bits)}",
                    daemon=True)
                self._thread.start()
            self._cond.notify_all()

    def close(self) -> None:
        """Stop the producer thread and refuse further sizing.  Idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # ------------------------------------------------------------ accounting
    def consume(self, n: int) -> None:
        """Debit ``n`` request quanta.  The caller (the serving pool) must
        have checked :attr:`available` first; over-consumption is a bug."""
        if n < 0:
            raise ValueError(f"cannot consume {n} quanta")
        with self._cond:
            if n > self.available:
                raise RuntimeError(
                    f"triple pool {pool_key(self.protocol, self.frac_bits)} "
                    f"over-consumed: asked {n}, available {self.available}")
            self.available -= n
            self.consumed += n
            self._cond.notify_all()

    def note_stall(self) -> None:
        """Record that a dispatch wanted material the pool did not have."""
        with self._cond:
            self.stalls += 1

    def estimated_wait_s(self, demand: int) -> float:
        """Seconds until ``demand`` quanta are available at the measured
        refill rate.  ``inf`` when the pool has never produced."""
        with self._cond:
            deficit = max(0, int(demand) - self.available)
            if deficit == 0:
                return 0.0
            if self._refill_rps <= 0.0:
                return float("inf")
            return deficit / self._refill_rps

    def wait_available(self, n: int = 1, timeout: float = 10.0) -> bool:
        """Block until ``n`` quanta are available (or ``timeout``).  Used
        by tests and synchronous callers; the serving pool never blocks —
        it requeues and retries on its dispatch tick instead."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.available < n and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(timeout=remaining)
            return self.available >= n

    def stats(self) -> Dict[str, object]:
        """Counters and the measured refill rate as one JSON-ready dict."""
        with self._cond:
            budget = self.budget
            return {
                "depth": self.depth,
                "available": self.available,
                "produced": self.produced,
                "consumed": self.consumed,
                "stalls": self.stalls,
                "refill_rps": round(self._refill_rps, 3),
                "triples_per_request": budget.triples if budget else 0,
                "labels_per_request": budget.labels if budget else 0,
            }

    # -------------------------------------------------------------- producer
    def _produce_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closed and (self.budget is None
                                            or self.available >= self.depth):
                    self._cond.wait()
                if self._closed:
                    return
                budget = self.budget
            start = time.perf_counter()
            _generate_material(self._rng, budget)
            elapsed = max(time.perf_counter() - start, 1e-9)
            rate = 1.0 / elapsed
            with self._cond:
                if self._closed:
                    return
                self.available += 1
                self.produced += 1
                self._refill_rps = (rate if self._refill_rps == 0.0 else
                                    (1.0 - _RATE_ALPHA) * self._refill_rps
                                    + _RATE_ALPHA * rate)
                self._cond.notify_all()


class OfflinePhase:
    """Coordinator between the offline producers and the serving pool.

    Owns one :class:`TriplePool` per (protocol, frac_bits) the server has
    seen, sizes them from the warm-up trace, and keeps the measured
    per-request protocol accounting that ``GET /stats`` reports.  All
    methods are thread-safe; the serving pool calls them under its own
    lock from the dispatch path and without it from the completion path.
    """

    def __init__(self, protocol: str, frac_bits: int, truncation: str, *,
                 depth: int, seed: int = 0) -> None:
        self.protocol = str(protocol)
        self.frac_bits = int(frac_bits)
        self.truncation = str(truncation)
        self.depth = int(depth)
        self.seed = int(seed)
        self.budget: Optional[OfflineBudget] = None
        self._lock = threading.Lock()
        self._pools: Dict[str, TriplePool] = {}
        self._measured = {"requests": 0, "macs": 0, "mult_ops": 0,
                          "relu_ops": 0, "truncations": 0, "rounds": 0}
        # The default pool exists from construction so an unstarted server
        # reports the full stats schema (the docs drift test relies on it).
        self._pools[self.default_key] = TriplePool(
            self.protocol, self.frac_bits, seed=seed)

    # ------------------------------------------------------------------ keys
    @property
    def default_key(self) -> str:
        """Key of the pool serving the configured default (protocol, frac_bits)."""
        return pool_key(self.protocol, self.frac_bits)

    def key_for(self, protocol: Optional[str] = None,
                frac_bits: Optional[int] = None) -> str:
        """Pool key for a request, falling back to the configured defaults."""
        return pool_key(protocol or self.protocol,
                        self.frac_bits if frac_bits is None else frac_bits)

    def pool_for(self, key: str) -> TriplePool:
        """The pool behind ``key``, created (and sized, once the warm-up
        budget is known) on first use."""
        with self._lock:
            pool = self._pools.get(key)
            if pool is None:
                protocol, _, bits = key.partition("/f")
                pool = TriplePool(protocol, int(bits), seed=self.seed)
                self._pools[key] = pool
                if self.budget is not None:
                    pool.size(self.budget, self.depth)
            return pool

    # ----------------------------------------------------------- warm-up API
    def size_from_trace(self, trace: ProtocolTrace) -> OfflineBudget:
        """Install the per-request budget measured by the warm-up forward
        and start every pool's producer.  Returns the budget."""
        budget = OfflineBudget.from_trace(trace)
        with self._lock:
            self.budget = budget
            pools = list(self._pools.values())
        for pool in pools:
            pool.size(budget, self.depth)
        return budget

    # ---------------------------------------------------------- serving path
    def available(self, key: str) -> int:
        """Request quanta ready in ``key``'s pool right now."""
        return self.pool_for(key).available

    def consume(self, key: str, n: int) -> None:
        """Debit ``n`` request quanta from ``key``'s pool (on dispatch)."""
        self.pool_for(key).consume(n)

    def note_stall(self, key: str) -> None:
        """Record a dispatch that found ``key``'s pool empty."""
        self.pool_for(key).note_stall()

    def estimated_wait_ms(self, key: str, demand: int) -> float:
        """Milliseconds until ``demand`` quanta exist, at measured refill."""
        wait = self.pool_for(key).estimated_wait_s(demand)
        return float("inf") if wait == float("inf") else wait * 1e3

    def record_served(self, totals: Iterable[Dict[str, int]]) -> None:
        """Fold per-request measured protocol totals (one
        ``ProtocolTrace.totals()`` dict per served request) into the
        accounting that ``GET /stats`` exposes."""
        with self._lock:
            for entry in totals:
                self._measured["requests"] += 1
                for field in ("macs", "mult_ops", "relu_ops",
                              "truncations", "rounds"):
                    self._measured[field] += int(entry.get(field, 0))

    # --------------------------------------------------------------- reports
    def measured(self) -> Dict[str, int]:
        """Copy of the cumulative measured per-request protocol totals."""
        with self._lock:
            return dict(self._measured)

    def stats(self) -> Dict[str, object]:
        """Pools, warm-up budget, and measured totals as one nested dict."""
        with self._lock:
            pools = dict(self._pools)
            budget = self.budget
            measured = dict(self._measured)
        zero = OfflineBudget(0, 0, 0, 0, 0)
        return {
            "pools": {key: pool.stats() for key, pool in sorted(pools.items())},
            "budget": (budget or zero).to_dict(),
            "measured": measured,
        }

    def close(self) -> None:
        """Stop every producer thread.  Idempotent."""
        with self._lock:
            pools = list(self._pools.values())
        for pool in pools:
            pool.close()
