"""Secure serving end to end: the worker pool hosting SecurePredictors.

Three properties carry this file:

* **bit-identity** — `serve --secure` answers must equal the single-process
  :meth:`Experiment.secure_predictor` bit for bit (nearest truncation is
  deterministic, so any drift is a real transport/runtime bug), for every
  zoo model that compiles securely;
* **accounting** — every served request debits the offline triple pools,
  and ``produced == available + consumed`` survives a SIGKILL mid-batch
  (crash retries deliberately re-debit, so ``consumed >= answered``);
* **scheduling** — requests only co-batch with requests sharing their
  (protocol, frac_bits, truncation) configuration.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.experiment import (
    MODELS,
    DataSpec,
    Experiment,
    ExperimentSpec,
    ModelSpec,
    get_preset,
)
from repro.ppml import SecureExecutionError
from repro.serve import ServeConfig, WorkerPool, coalescing_key


def wait_until(predicate, timeout: float = 15.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def pool_accounting(pool: WorkerPool) -> dict:
    """Sum the produced/available/consumed counters across all triple pools."""
    pools = pool.stats()["secure"]["offline"]["pools"]
    return {field: sum(p[field] for p in pools.values())
            for field in ("produced", "available", "consumed", "stalls")}


class SecureSmokeSetup:
    """The smoke experiment plus its secure (fixed-point) reference outputs."""

    def __init__(self) -> None:
        self.experiment = Experiment(get_preset("smoke"))
        self.model = self.experiment.build()
        self.model.eval()
        self.state = self.model.state_dict()
        self.spec = self.experiment.spec
        rng = np.random.default_rng(11)
        self.samples = rng.standard_normal(
            (4,) + tuple(self.spec.data.input_shape)).astype(np.float32)
        with self.experiment.secure_predictor() as predictor:
            self.expected = [predictor.predict(s) for s in self.samples]


@pytest.fixture(scope="module")
def secure_smoke():
    return SecureSmokeSetup()


@pytest.fixture(scope="module")
def secure_pool(secure_smoke):
    """One 1-worker secure pool shared by the happy-path tests."""
    config = ServeConfig(workers=1, secure=True, startup_timeout=120.0)
    with WorkerPool(secure_smoke.spec, state=secure_smoke.state,
                    config=config) as running:
        yield running


# --------------------------------------------------------------------------- #
# Bit-identity
# --------------------------------------------------------------------------- #

class TestSecureBitIdentity:
    def test_served_answers_equal_the_single_process_secure_predictor(
            self, secure_pool, secure_smoke):
        for sample, expected in zip(secure_smoke.samples, secure_smoke.expected):
            out = secure_pool.predict(sample, timeout=120.0)
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected)

    def test_per_request_variant_matches_a_matching_reference(
            self, secure_pool, secure_smoke):
        """A frac_bits override is honoured end to end: the answer equals a
        fresh single-process secure predictor built at that format."""
        sample = secure_smoke.samples[0]
        future = secure_pool.submit(sample, frac_bits=10)
        with secure_smoke.experiment.secure_predictor(frac_bits=10) as reference:
            expected = reference.predict(sample)
        assert np.array_equal(future.result(timeout=120.0), expected)
        # ... and the override drew from its own pool, not the default's.
        pools = secure_pool.stats()["secure"]["offline"]["pools"]
        assert pools["delphi/f10"]["consumed"] >= 1

    def test_warmup_trace_sized_the_budget(self, secure_pool):
        """The pools were sized from exactly what the warm-up measured."""
        trace = secure_pool.warmup_trace
        assert trace is not None
        totals = trace.totals()
        budget = secure_pool.stats()["secure"]["offline"]["budget"]
        assert budget["triples"] == totals["mult_ops"]
        assert budget["labels"] == totals["relu_ops"]
        assert budget["macs"] == totals["macs"]


ZOO_SPECS = MODELS.names()

#: Zoo models whose input is not an image: the mlp classifies 2-D points.
VECTOR_CASES = {"mlp": (DataSpec(name="xor", num_classes=4), {"layer_sizes": [2, 16]})}


@pytest.mark.parametrize("name", ZOO_SPECS)
def test_every_securely_compilable_zoo_model_serves_bit_identically(name):
    """The issue's acceptance bar, per model: spin a 1-worker secure pool and
    compare two served answers against the in-process secure predictor."""
    data, extra = VECTOR_CASES.get(name, (DataSpec(num_classes=4), {}))
    spec = ExperimentSpec(
        name=f"secure-serve-{name}",
        model=ModelSpec(name=name, neuron_type="OURS", num_classes=4,
                        width_multiplier=0.125, extra=extra),
        data=data,
        steps=["build"],
    )
    experiment = Experiment(spec)
    model = experiment.build()
    model.eval()
    samples = np.random.default_rng(3).standard_normal(
        (2,) + tuple(spec.data.input_shape)).astype(np.float32)
    try:
        with experiment.secure_predictor() as reference:
            expected = [reference.predict(s) for s in samples]
    except SecureExecutionError as error:
        pytest.skip(f"{name} does not compile securely: {error}")
    config = ServeConfig(workers=1, secure=True, startup_timeout=120.0)
    with WorkerPool(spec, state=model.state_dict(), config=config) as pool:
        for sample, exp in zip(samples, expected):
            assert np.array_equal(pool.predict(sample, timeout=120.0), exp)


# --------------------------------------------------------------------------- #
# Accounting (including the SIGKILL fault)
# --------------------------------------------------------------------------- #

class TestOfflineAccounting:
    def test_every_request_debits_the_pool(self, secure_smoke):
        config = ServeConfig(workers=1, secure=True, startup_timeout=120.0)
        with WorkerPool(secure_smoke.spec, state=secure_smoke.state,
                        config=config) as pool:
            for sample in secure_smoke.samples:
                pool.predict(sample, timeout=120.0)
            acc = pool_accounting(pool)
            assert acc["consumed"] == len(secure_smoke.samples)
            assert acc["produced"] == acc["available"] + acc["consumed"]
            measured = pool.stats()["secure"]["offline"]["measured"]
            assert measured["requests"] == len(secure_smoke.samples)
            budget = pool.stats()["secure"]["offline"]["budget"]
            assert measured["mult_ops"] == \
                budget["triples"] * len(secure_smoke.samples)

    def test_sigkill_mid_secure_batch_preserves_accounting(self, secure_smoke):
        """Kill the lone worker with a secure request in flight: the request
        is retried on the respawn, the caller still gets the bit-identical
        answer, and the triple-pool invariant holds — with the retry counted
        as a second (deliberate) debit."""
        config = ServeConfig(workers=1, secure=True, max_retries=1,
                             startup_timeout=120.0)
        with WorkerPool(secure_smoke.spec, state=secure_smoke.state,
                        config=config) as pool:
            future = pool.submit(secure_smoke.samples[0])
            pool._workers[0].process.kill()
            out = future.result(timeout=180.0)
            assert np.array_equal(out, secure_smoke.expected[0])
            assert pool.stats()["respawns"] >= 1
            acc = pool_accounting(pool)
            # invariant survives the crash ...
            assert acc["produced"] == acc["available"] + acc["consumed"]
            # ... and consumption covers every answer (a crash retry may
            # have re-debited, so >= rather than ==).
            assert acc["consumed"] >= 1
            # serving still works on the respawned worker, and keeps debiting
            again = pool.predict(secure_smoke.samples[1], timeout=120.0)
            assert np.array_equal(again, secure_smoke.expected[1])
            after = pool_accounting(pool)
            assert after["consumed"] > acc["consumed"]
            assert after["produced"] == after["available"] + after["consumed"]


# --------------------------------------------------------------------------- #
# Scheduling
# --------------------------------------------------------------------------- #

class _Req:
    def __init__(self, shape, secure):
        self.payload = np.zeros(shape, dtype=np.float32)
        self.secure = secure


class TestProtocolAwareScheduling:
    def test_coalescing_key_separates_secure_configs(self):
        a = _Req((3, 8, 8), ("delphi", 12, "nearest"))
        b = _Req((3, 8, 8), ("delphi", 12, "nearest"))
        c = _Req((3, 8, 8), ("delphi", 10, "nearest"))
        d = _Req((3, 8, 8), ("gazelle", 12, "nearest"))
        e = _Req((3, 8, 8), ("delphi", 12, "stochastic"))
        f = _Req((3, 8, 8), None)                       # float request
        assert coalescing_key(a) == coalescing_key(b)
        assert len({coalescing_key(r) for r in (a, c, d, e, f)}) == 5

    def test_mixed_configs_are_served_from_separate_pools(self, secure_pool,
                                                          secure_smoke):
        futures = [
            secure_pool.submit(secure_smoke.samples[0]),
            secure_pool.submit(secure_smoke.samples[0], frac_bits=9),
            secure_pool.submit(secure_smoke.samples[0]),
        ]
        outs = [f.result(timeout=120.0) for f in futures]
        assert np.array_equal(outs[0], outs[2])
        # frac_bits=9 quantizes differently — the answer must differ.
        assert not np.array_equal(outs[0], outs[1])
        pools = secure_pool.stats()["secure"]["offline"]["pools"]
        assert pools["delphi/f9"]["consumed"] >= 1
        # Distinct coalescing keys still ride the in-ring assembly path —
        # mixed-format bursts never regress to the inline fallback.
        assert secure_pool.stats()["transport"]["assembly_fallbacks"] == 0

    def test_overrides_on_a_float_pool_are_rejected(self, smoke):
        config = ServeConfig(workers=1, startup_timeout=120.0)
        with WorkerPool(smoke.spec, state=smoke.state, config=config) as pool:
            with pytest.raises(ValueError, match="secure"):
                pool.submit(smoke.samples[0], frac_bits=10)

    def test_unknown_protocol_override_is_rejected(self, secure_pool,
                                                   secure_smoke):
        with pytest.raises(ValueError):
            secure_pool.submit(secure_smoke.samples[0], protocol="nope")


# --------------------------------------------------------------------------- #
# Stats schema
# --------------------------------------------------------------------------- #

class TestSecureStats:
    def test_float_pool_reports_secure_none(self, smoke):
        unstarted = WorkerPool(smoke.spec, state=smoke.state,
                               config=ServeConfig(workers=1))
        assert unstarted.stats()["secure"] is None

    def test_unstarted_secure_pool_reports_full_schema(self, secure_smoke):
        unstarted = WorkerPool(
            secure_smoke.spec, state=secure_smoke.state,
            config=ServeConfig(workers=1, secure=True))
        secure = unstarted.stats()["secure"]
        assert set(secure) == {"protocol", "frac_bits", "truncation",
                               "strategy", "rejected_precompute", "offline"}
        assert secure["protocol"] == "delphi"
        assert secure["strategy"] == "quadratic_no_relu"
        offline = secure["offline"]
        assert set(offline) == {"pools", "budget", "measured"}
        assert "delphi/f12" in offline["pools"]
