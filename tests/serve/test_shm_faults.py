"""Fault injection for the zero-copy data plane.

The claim under test: a SIGKILLed worker can neither leak nor corrupt a
shared-memory segment — its leased slots are reclaimed, its orphaned
requests are retried on the respawned worker, and every answer the caller
finally sees is bit-identical to the single-process reference, whether its
tensors crossed the rings or fell back to the inline path.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.serve import ServeConfig, WorkerPool
from repro.serve.shm import ShmRing


def wait_until(predicate, timeout: float = 30.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestKillWithLeasedSlots:
    def test_sigkill_mid_batch_reclaims_slots_and_retries_requests(self, smoke):
        config = ServeConfig(workers=1, max_retries=1, startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            rings = pool._rings[0]
            # Park the worker on a sleep, then pile a batch behind it: the
            # batch frame is written into a leased request-ring slot that the
            # sleeping worker will never release on its own.
            blocker = pool.submit_sleep(1.0)
            futures = [pool.submit(sample) for sample in smoke.samples[:4]]
            assert wait_until(lambda: rings.request.leased_slots()), \
                "batch frame should be parked in a leased slot"
            pool._workers[0].process.kill()

            # Every orphan resolves through the respawned worker, bit-exact.
            assert blocker.result(timeout=120.0) is None
            outputs = [future.result(timeout=120.0) for future in futures]
            for out, expected in zip(outputs, smoke.expected[:4]):
                assert np.array_equal(out, expected)

            stats = pool.stats()
            assert stats["respawns"] >= 1
            assert stats["retried"] >= 1
            # The dead generation's slots were reclaimed, not leaked: the
            # ring drains back to empty once the retries complete.
            assert wait_until(lambda: not rings.request.leased_slots())
            assert wait_until(lambda: not rings.response.leased_slots())
            assert rings.request.stats()["reclaimed"] >= 1

    def test_rings_survive_respawn_without_reallocation(self, smoke):
        config = ServeConfig(workers=1, startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            names_before = (pool._rings[0].request.name,
                            pool._rings[0].response.name)
            first = pool.predict(smoke.samples[0], timeout=60.0)
            pool._workers[0].process.kill()
            assert wait_until(lambda: pool.stats()["respawns"] >= 1)
            assert wait_until(lambda: pool.alive_workers() == 1)
            again = pool.predict(smoke.samples[0], timeout=60.0)
            assert np.array_equal(first, again)
            # Same segments, new worker generation: a crash costs a header
            # scan, not two segment allocations.
            assert (pool._rings[0].request.name,
                    pool._rings[0].response.name) == names_before

    def test_close_unlinks_every_segment(self, smoke):
        config = ServeConfig(workers=1, startup_timeout=120.0)
        pool = WorkerPool(smoke.spec, state=smoke.state, config=config).start()
        names = [pool._rings[0].request.name, pool._rings[0].response.name]
        pool.predict(smoke.samples[0], timeout=60.0)
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                ShmRing(2, 1024, name=name, create=False, unregister=False)


#: Ring geometry per data path.  Auto-sized rings carry every frame; 64-byte
#: slots fit no request batch, so every dispatch (and every response of more
#: than four rows) falls back to the inline path.
DATA_PATHS = {"shm": {}, "inline": {"shm_slots": 4, "shm_slot_bytes": 64}}


class TestTransportEquivalence:
    """The ring path and the inline fallback must be indistinguishable to
    callers, bit for bit."""

    @pytest.fixture(scope="class", params=["shm", "inline"])
    def transport_outputs(self, request, smoke):
        config = ServeConfig(workers=2, startup_timeout=120.0,
                             **DATA_PATHS[request.param])
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            # Submit everything at once so the continuous batcher actually
            # coalesces — the adversarial case for bit-identity.
            futures = [pool.submit(sample) for sample in smoke.samples]
            outputs = [future.result(timeout=120.0) for future in futures]
            stats = pool.stats()
        return request.param, outputs, stats

    def test_outputs_match_the_batch_of_1_reference(self, transport_outputs, smoke):
        path, outputs, _ = transport_outputs
        for out, expected in zip(outputs, smoke.expected):
            assert np.array_equal(out, expected), \
                f"{path} path drifted from the reference"

    def test_transport_stats_reflect_the_configured_path(self, transport_outputs):
        path, _, stats = transport_outputs
        transport = stats["transport"]
        if path == "shm":
            total_leases = sum(worker["request"]["leases"]
                               for worker in transport["rings"].values())
            assert total_leases >= 1             # tensors really took the rings
        else:
            assert transport["inline_dispatches"] >= 1
