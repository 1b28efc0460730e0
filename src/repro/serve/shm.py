"""Zero-copy tensor transport: slot-leased rings over POSIX shared memory.

Pickling a tensor through a ``multiprocessing.Queue`` costs one serialize,
one kernel copy and one deserialize per hop.  This module moves
the *bytes* through a :class:`multiprocessing.shared_memory.SharedMemory`
segment instead: the producer copies a tensor into a leased slot exactly
once, and the consumer maps the same physical pages as a NumPy view — no
pickle, no second copy.  Only small control frames (slot index, sequence
number, shape, dtype) still travel over the queues, which conveniently also
provides the happens-before edge: a consumer only touches a slot after the
control frame for it arrived, so the ring needs **no cross-process locks**.

Each ring is a fixed array of equally sized slots with a 3-word header per
slot (``state``, ``seq``, ``nbytes``):

* **Slot leasing** — ``lease()`` claims a ``FREE`` slot (rotating cursor, so
  slots are reused round-robin and wraparound is exercised constantly) and
  flips it to ``LEASED``.  A full ring raises :class:`RingFull`, which the
  pool treats as backpressure, exactly like a full pipe queue.
* **Sequence numbers** — every lease increments the slot's persistent
  sequence counter and stamps the frame with it.  ``read``/``release``
  verify the stamp, so a control frame that outlived its slot (a retry, a
  message from a worker generation that was SIGKILLed) raises
  :class:`StaleFrame` instead of silently aliasing another request's bytes.
* **Crash-safe reclamation** — the pool owns both rings of a worker.  When
  the worker dies, :meth:`ShmRing.reclaim` frees every non-``FREE`` slot and
  bumps its sequence number, so the segment is immediately reusable by the
  respawned worker and any stale frame from the dead generation is inert.
  Segments are created by the parent and unlinked exactly once in
  :meth:`close`, so a SIGKILLed worker can never leak one.

The intended topology (what :mod:`repro.serve.pool` builds) is one
:class:`WorkerRings` pair per worker: a request ring the parent writes and
the worker reads, and a response ring the other way around.  Each direction
therefore has a single leaser and a single releaser at any time, which keeps
the allocation cursor process-local.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: slot states (kept tiny on purpose; the queues do the synchronization)
SLOT_FREE = 0
SLOT_LEASED = 1

#: int64 words per slot header: state, sequence number, payload bytes
_HEADER_WORDS = 3
_HEADER_BYTES = _HEADER_WORDS * 8

#: payload slots start on a 64-byte boundary (cache line / SIMD friendly)
_ALIGN = 64


class RingFull(RuntimeError):
    """Every slot is leased — backpressure, not an error in the data plane."""


class StaleFrame(RuntimeError):
    """A frame's sequence number no longer matches its slot (crash/retry)."""


def _align(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class ShmFrame:
    """The control-frame description of one tensor parked in a ring slot.

    This is what actually crosses the process boundary (pickled, ~100 bytes
    regardless of tensor size).  ``shape``/``dtype`` travel here rather than
    in shared memory so a corrupted segment can never fabricate a view
    larger than the slot.
    """

    slot: int
    seq: int
    shape: Tuple[int, ...]
    dtype: str
    nbytes: int


class ShmRing:
    """A fixed-slot ring over one shared-memory segment.

    Parameters
    ----------
    slots, slot_bytes : int
        Geometry of the ring.  ``slot_bytes`` bounds the largest tensor one
        frame can carry; bigger payloads must fall back to the inline path.
    name : str, optional
        Attach to an existing segment (the worker side) instead of creating
        one.  Geometry is not stored in the segment — both sides receive it
        through the worker's argv — so an attach with the wrong geometry is
        rejected by the size check.
    create : bool
        ``True`` (parent) creates and later unlinks the segment; ``False``
        (worker) attaches and only ever closes its mapping.
    """

    def __init__(self, slots: int, slot_bytes: int, name: Optional[str] = None,
                 create: bool = True, unregister: bool = False) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if slot_bytes < 1:
            raise ValueError(f"slot_bytes must be >= 1, got {slot_bytes}")
        self.slots = int(slots)
        self.slot_bytes = _align(int(slot_bytes))
        self._payload_base = _align(self.slots * _HEADER_BYTES)
        total = self._payload_base + self.slots * self.slot_bytes
        self._owner = bool(create)
        if create:
            self._shm = shared_memory.SharedMemory(create=True, size=total, name=name)
        else:
            if name is None:
                raise ValueError("attaching (create=False) requires the segment name")
            self._shm = shared_memory.SharedMemory(name=name)
            if self._shm.size < total:
                raise ValueError(
                    f"segment '{name}' holds {self._shm.size} bytes but this "
                    f"geometry ({slots} x {self.slot_bytes}) needs {total}")
            # Spawned workers inherit the parent's resource tracker, so the
            # attach-side register is a no-op (the name is already tracked)
            # and unregistering here would unbalance the owner's registration:
            # the parent's eventual unlink() double-unregisters and the shared
            # tracker prints a KeyError traceback.  The escape hatch exists
            # for attachers with their *own* tracker (a process not spawned by
            # the ring's owner), where bpo-38119's unlink-on-exit behaviour
            # really would yank the segment from under the owner.
            if unregister:
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(self._shm._name, "shared_memory")
                except Exception:  # pragma: no cover - tracker internals shifted
                    pass
        self._headers = np.ndarray((self.slots, _HEADER_WORDS), dtype=np.int64,
                                   buffer=self._shm.buf)
        if create:
            self._headers[:] = 0
        self._cursor = 0
        self._closed = False
        # local telemetry (the pool aggregates these into /stats)
        self.leases = 0
        self.releases = 0
        self.stale_drops = 0
        self.reclaimed = 0
        self.full_rejections = 0

    # ------------------------------------------------------------------- naming
    @property
    def name(self) -> str:
        """The segment name a worker passes to ``ShmRing(..., create=False)``."""
        return self._shm.name

    # ------------------------------------------------------------------ leasing
    def lease(self) -> Tuple[int, int]:
        """Claim a FREE slot; returns ``(slot, seq)`` or raises :class:`RingFull`.

        The cursor rotates so consecutive leases walk the ring even when
        earlier slots free up first — wraparound is the common case, not a
        corner case.
        """
        self._ensure_open()
        for offset in range(self.slots):
            slot = (self._cursor + offset) % self.slots
            if self._headers[slot, 0] == SLOT_FREE:
                seq = int(self._headers[slot, 1]) + 1
                self._headers[slot, 1] = seq
                self._headers[slot, 0] = SLOT_LEASED
                self._headers[slot, 2] = 0
                self._cursor = (slot + 1) % self.slots
                self.leases += 1
                return slot, seq
        self.full_rejections += 1
        raise RingFull(f"all {self.slots} slots are leased; apply backpressure")

    def write(self, slot: int, seq: int, array: np.ndarray) -> ShmFrame:
        """Copy ``array`` into a leased slot; returns the frame to send.

        This is the transport's *only* copy on the producer side.  Raises
        ``ValueError`` when the tensor does not fit the slot (the caller
        falls back to the inline/pipe path rather than corrupting memory).
        """
        array = np.ascontiguousarray(array)
        if array.nbytes > self.slot_bytes:
            raise ValueError(
                f"tensor of {array.nbytes} bytes does not fit a "
                f"{self.slot_bytes}-byte slot")
        self._check(slot, seq)
        raw = self._payload(slot, array.nbytes)
        typed = np.ndarray(array.shape, dtype=array.dtype, buffer=raw.data)
        typed[...] = array                         # the one producer-side copy
        self._headers[slot, 2] = array.nbytes
        return ShmFrame(slot=slot, seq=seq, shape=tuple(array.shape),
                        dtype=str(array.dtype), nbytes=array.nbytes)

    def view(self, slot: int, seq: int, shape: Tuple[int, ...], dtype: str,
             writable: bool = False) -> np.ndarray:
        """A zero-copy ndarray over a leased slot's payload.

        The consumer-side primitive (also used by producers that want to
        assemble a batch directly in place, skipping :meth:`write`'s
        intermediate ``tobytes``).  The view is only valid until the slot is
        released — callers that need the data afterwards must copy.
        """
        self._check(slot, seq)
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dt.itemsize if shape else dt.itemsize
        if nbytes > self.slot_bytes:
            raise ValueError(
                f"a {shape} {dtype} view needs {nbytes} bytes; slots hold "
                f"{self.slot_bytes}")
        raw = self._payload(slot, nbytes)
        array = np.ndarray(shape, dtype=dt, buffer=raw.data)
        if not writable:
            array.flags.writeable = False
        return array

    def assemble(self, slot: int, seq: int, shape: Tuple[int, ...],
                 dtype: Any) -> Tuple[np.ndarray, ShmFrame]:
        """A writable view for building a tensor *in place*, plus its frame.

        The producer-side sibling of :meth:`write` for callers that want to
        scatter many sources straight into the slot (in-ring batch assembly)
        instead of stacking them into a heap array first.  The header's
        nbytes word is stamped immediately — the frame is valid to send the
        moment the caller finishes filling the view.  Raises ``ValueError``
        when the tensor would not fit the slot, exactly like :meth:`write`.
        """
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dt.itemsize if shape else dt.itemsize
        view = self.view(slot, seq, tuple(shape), dt, writable=True)
        self._headers[slot, 2] = nbytes
        return view, ShmFrame(slot=slot, seq=seq, shape=tuple(shape),
                              dtype=str(dt), nbytes=nbytes)

    def read(self, frame: ShmFrame) -> np.ndarray:
        """The (read-only, zero-copy) tensor a :class:`ShmFrame` describes."""
        return self.view(frame.slot, frame.seq, frame.shape, frame.dtype)

    def release(self, slot: int, seq: int) -> None:
        """Return a slot to the FREE pool; stale ``seq`` raises, double free too."""
        self._check(slot, seq)
        self._headers[slot, 0] = SLOT_FREE
        self.releases += 1

    # -------------------------------------------------------------- reclamation
    def reclaim(self) -> int:
        """Free every leased slot (dead-worker recovery); returns the count.

        Bumping each reclaimed slot's sequence number makes every frame the
        dead worker may have emitted (or the parent still holds) stale, so a
        late ``release``/``read`` fails loudly instead of touching a slot
        that has been re-leased to a new request.
        """
        self._ensure_open()
        count = 0
        for slot in range(self.slots):
            if self._headers[slot, 0] != SLOT_FREE:
                self._headers[slot, 0] = SLOT_FREE
                self._headers[slot, 1] += 1
                count += 1
        self.reclaimed += count
        return count

    def leased_slots(self) -> List[int]:
        self._ensure_open()
        return [slot for slot in range(self.slots)
                if self._headers[slot, 0] != SLOT_FREE]

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Unmap (and, for the creating side, unlink) the segment. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._headers = None                       # drop the buffer export
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked (e.g. test cleanup)
                pass

    def __enter__(self) -> "ShmRing":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self) -> None:  # best effort; close() is the real contract
        try:
            self.close()
        except Exception:
            pass

    # ---------------------------------------------------------------- internals
    def _payload(self, slot: int, nbytes: int) -> np.ndarray:
        base = self._payload_base + slot * self.slot_bytes
        return np.ndarray((nbytes,), dtype=np.uint8,
                          buffer=self._shm.buf, offset=base)

    def _check(self, slot: int, seq: int) -> None:
        self._ensure_open()
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} out of range [0, {self.slots})")
        if self._headers[slot, 0] != SLOT_LEASED:
            self.stale_drops += 1
            raise StaleFrame(f"slot {slot} is not leased (double release, or "
                             f"reclaimed after a worker crash)")
        if int(self._headers[slot, 1]) != seq:
            self.stale_drops += 1
            raise StaleFrame(
                f"slot {slot} carries seq {int(self._headers[slot, 1])}, frame "
                f"has {seq} — the slot was reclaimed/re-leased since")

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("this ring has been closed")

    def stats(self) -> Dict[str, Any]:
        if self._closed:
            return {"slots": self.slots, "slot_bytes": self.slot_bytes,
                    "closed": True}
        return {
            "slots": self.slots,
            "slot_bytes": self.slot_bytes,
            "leased": len(self.leased_slots()),
            "leases": self.leases,
            "releases": self.releases,
            "reclaimed": self.reclaimed,
            "stale_drops": self.stale_drops,
            "full_rejections": self.full_rejections,
        }

    def __repr__(self) -> str:
        state = "closed" if self._closed else f"{len(self.leased_slots())} leased"
        return f"ShmRing({self.name}, {self.slots}x{self.slot_bytes}B, {state})"


class WorkerRings:
    """The request/response ring pair the pool keeps per worker slot.

    Rings survive worker respawns: the replacement process attaches to the
    same segments after the parent ran :meth:`reclaim_all`, so a crash costs
    two ``reclaim`` scans, not two segment allocations.
    """

    def __init__(self, slots: int, slot_bytes: int) -> None:
        self.request = ShmRing(slots, slot_bytes)
        self.response = ShmRing(slots, slot_bytes)

    def descriptor(self) -> Dict[str, Any]:
        """What a worker needs to attach (pickles into its spawn argv)."""
        return {
            "request_name": self.request.name,
            "response_name": self.response.name,
            "slots": self.request.slots,
            "slot_bytes": self.request.slot_bytes,
        }

    @staticmethod
    def attach(descriptor: Dict[str, Any],
               unregister: bool = False) -> Tuple[ShmRing, ShmRing]:
        """Worker-side: map both segments of a :meth:`descriptor`.

        ``unregister=True`` is only for attachers that do not share the
        owner's resource tracker — see :class:`ShmRing`.
        """
        request = ShmRing(descriptor["slots"], descriptor["slot_bytes"],
                          name=descriptor["request_name"], create=False,
                          unregister=unregister)
        response = ShmRing(descriptor["slots"], descriptor["slot_bytes"],
                           name=descriptor["response_name"], create=False,
                           unregister=unregister)
        return request, response

    def reclaim_all(self) -> int:
        """Dead-worker recovery across both directions; returns freed slots."""
        return self.request.reclaim() + self.response.reclaim()

    def close(self) -> None:
        self.request.close()
        self.response.close()

    def stats(self) -> Dict[str, Any]:
        return {"request": self.request.stats(), "response": self.response.stats()}
