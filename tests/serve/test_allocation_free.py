"""The allocation-free hot path: in-ring assembly + arena-backed responses.

Four properties of the steady-state serving data plane:

1. Scattering request payloads straight into a leased slot
   (``ShmRing.assemble``) is bit-identical to the ``np.stack``-then-``write``
   staging path it replaced — across dtypes, non-contiguous inputs, and
   ragged final batches.
2. A warm worker serving through :class:`ResponseArena` performs zero
   tensor-sized heap allocations per batch (tracemalloc-verified; the same
   probe runs as an executable walkthrough in ``docs/serving.md``).
3. A live shm pool answers through the new path bit-identically to the
   single-process predictor with zero assembly fallbacks, including the
   ragged batch the backlog tail produces.
4. A response the ring cannot take — ring full, or a batch that outgrew a
   slot — is answered inline, bit-identically, and every slot the arena
   leased on the way is released.
"""

from __future__ import annotations

import queue
import tracemalloc

import numpy as np
import pytest

from repro.serve import ServeConfig, WorkerPool
from repro.serve.shm import ShmRing
from repro.serve.worker import ResponseArena, build_serving_predictor


@pytest.fixture()
def ring():
    with ShmRing(slots=4, slot_bytes=1 << 20) as r:
        yield r


def scatter(ring: ShmRing, requests):
    """Exactly what the dispatcher does: lease *first*, then assemble the
    batch in place — one copy per payload, no staging array."""
    head = requests[0]
    slot, seq = ring.lease()
    view, frame = ring.assemble(slot, seq, (len(requests),) + head.shape,
                                head.dtype)
    for index, payload in enumerate(requests):
        np.copyto(view[index], payload)
    return frame


# --------------------------------------------------------------------------- #
# 1. In-ring assembly ≡ np.stack
# --------------------------------------------------------------------------- #

class TestInRingAssemblyEquivalence:
    @pytest.mark.parametrize("dtype", ["float16", "float32", "float64", "int64"])
    def test_bit_identical_across_dtypes(self, ring, dtype):
        rng = np.random.default_rng(3)
        requests = [(rng.standard_normal((3, 5)) * 100).astype(dtype)
                    for _ in range(4)]
        frame = scatter(ring, requests)
        got = ring.read(frame)
        expected = np.stack(requests)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        ring.release(frame.slot, frame.seq)

    def test_non_contiguous_payloads_scatter_correctly(self, ring):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((8, 12)).astype(np.float32)
        # All payloads share one shape (the coalescing key guarantees this
        # in the pool) but none of them is C-contiguous.
        requests = [base.T,                    # transposed view
                    base[::-1].T,              # reversed rows, transposed
                    base[:, ::-1].T,           # reversed columns, transposed
                    np.asfortranarray(base.T)[:, ::-1][:, ::-1]]
        assert all(r.shape == (12, 8) for r in requests)
        assert not any(r.flags.c_contiguous for r in requests)
        frame = scatter(ring, requests)
        got = ring.read(frame)
        expected = np.stack(requests)
        assert got.tobytes() == expected.tobytes()
        ring.release(frame.slot, frame.seq)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_ragged_final_batches(self, ring, n):
        rng = np.random.default_rng(5 + n)
        requests = [rng.standard_normal((2, 7)).astype(np.float32)
                    for _ in range(n)]
        frame = scatter(ring, requests)
        got = ring.read(frame)
        assert got.shape == (n, 2, 7)
        assert got.tobytes() == np.stack(requests).tobytes()
        ring.release(frame.slot, frame.seq)

    def test_nan_and_inf_survive_bit_exactly(self, ring):
        row = np.array([[np.nan, np.inf, -np.inf, -0.0]], dtype=np.float32)
        frame = scatter(ring, [row, -row])
        got = ring.read(frame)
        assert got.tobytes() == np.stack([row, -row]).tobytes()
        ring.release(frame.slot, frame.seq)

    def test_oversized_assembly_is_refused_like_write(self, ring):
        slot, seq = ring.lease()
        with pytest.raises(ValueError):
            ring.assemble(slot, seq, (1, 1 << 21), np.float32)
        ring.release(slot, seq)


# --------------------------------------------------------------------------- #
# 2. Warm worker: zero tensor-sized allocations per batch
# --------------------------------------------------------------------------- #

class TestWarmWorkerAllocationFree:
    def test_steady_state_batch_touches_no_heap(self, smoke):
        compiled = build_serving_predictor(smoke.spec.to_dict(), smoke.state)
        responses = queue.SimpleQueue()
        requests = np.stack(smoke.samples[:4])
        with ShmRing(slots=4, slot_bytes=1 << 20) as request_ring, \
                ShmRing(slots=4, slot_bytes=1 << 20) as response_ring:
            arena = ResponseArena(response_ring)

            def one_batch(verify=False):
                frame = scatter(request_ring, list(requests))
                batch = request_ring.read(frame)
                arena.serve(compiled, batch, 0, list(range(len(batch))),
                            0.0, responses)
                request_ring.release(frame.slot, frame.seq)
                _, _, _, (via, out_frame), _ = responses.get()
                assert via == "shm"            # answered through the ring
                if verify:
                    out = response_ring.read(out_frame)
                    for row, expected in zip(out, smoke.expected[:4]):
                        assert np.array_equal(row, expected)
                response_ring.release(out_frame.slot, out_frame.seq)

            one_batch(verify=True)     # cold: discovers output-row geometry
            one_batch()                # warm-up
            tracemalloc.start()
            before = tracemalloc.take_snapshot()
            one_batch()                # the measured steady-state batch
            after = tracemalloc.take_snapshot()
            tracemalloc.stop()
            one_batch(verify=True)     # still bit-identical after the probe

            # Any smuggled staging copy / np.stack / fresh result array has a
            # per-allocation footprint of KiBs; the surviving noise (ndarray
            # view headers, tuples) sits around 72 bytes per allocation.
            offenders = [stat for stat in after.compare_to(before, "lineno")
                         if stat.count_diff > 0
                         and stat.size_diff / stat.count_diff >= 1024]
            assert not offenders, offenders


# --------------------------------------------------------------------------- #
# 3. Pool-level bit-identity through the assembled path
# --------------------------------------------------------------------------- #

class TestPoolAssembly:
    def test_pool_serves_bit_identically_with_zero_fallbacks(self, smoke):
        config = ServeConfig(workers=1, max_batch_size=4,
                             startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            # 6 requests against max_batch_size=4 forces a ragged tail batch.
            futures = [pool.submit(sample) for sample in smoke.samples]
            outputs = [future.result(timeout=120.0) for future in futures]
            for got, expected in zip(outputs, smoke.expected):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)
            transport = pool.stats()["transport"]
            assert transport["rings"] is not None
            assert transport["assembly_fallbacks"] == 0
            assert transport["inline_dispatches"] == 0

    def test_oversized_batch_falls_back_inline_and_is_counted(self, smoke):
        # Slots too small for even one sample: every dispatch must fall back
        # to the inline path, be counted, and still answer bit-identically.
        config = ServeConfig(workers=1, max_batch_size=2, shm_slots=4,
                             shm_slot_bytes=64, startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            output = pool.predict(smoke.samples[0], timeout=120.0)
            assert np.array_equal(output, smoke.expected[0])
            transport = pool.stats()["transport"]
            assert transport["assembly_fallbacks"] >= 1
            assert transport["inline_dispatches"] >= 1


# --------------------------------------------------------------------------- #
# 4. Arena fallback: answered inline, no slot leaked
# --------------------------------------------------------------------------- #

class TestArenaFallback:
    @pytest.mark.parametrize("blocked", ["ring_full", "slot_too_small"])
    def test_unshippable_response_goes_inline_without_leaking(self, smoke,
                                                              blocked):
        compiled = build_serving_predictor(smoke.spec.to_dict(), smoke.state)
        responses = queue.SimpleQueue()
        batch = np.stack(smoke.samples)          # 6 rows x 4 logits = 96 bytes
        slot_bytes = 64 if blocked == "slot_too_small" else 1 << 20
        with ShmRing(slots=1, slot_bytes=slot_bytes) as response_ring:
            held = [response_ring.lease()[0]] if blocked == "ring_full" else []
            ResponseArena(response_ring).serve(
                compiled, batch, 0, list(range(len(batch))), 0.0, responses)
            _, _, _, (via, outputs), _ = responses.get()
            assert via == "inline"
            for row, expected in zip(outputs, smoke.expected):
                assert np.array_equal(row, expected)
            assert response_ring.leased_slots() == held
