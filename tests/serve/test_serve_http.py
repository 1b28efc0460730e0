"""HTTP front door: endpoints, cache, load shedding, drain, error mapping."""

from __future__ import annotations

import concurrent.futures
import contextlib
import http.client
import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    AsyncFrontDoor,
    PoolSaturated,
    ServeConfig,
    ServingApp,
    ServingServer,
    WorkerCrashed,
)

SHAPE = (3, 32, 32)


# --------------------------------------------------------------------------- #
# Unit level: ServingApp against a stub pool (no processes, no sockets)
# --------------------------------------------------------------------------- #

class StubPool:
    """Deterministic stand-in for WorkerPool."""

    def __init__(self, behaviour="ok"):
        self.behaviour = behaviour
        self.config = ServeConfig(workers=1, cache_size=4)
        self.calls = 0
        self.accepting = True

    def predict(self, sample, timeout=None):
        self.calls += 1
        if self.behaviour == "saturated":
            raise PoolSaturated("9 requests in flight >= watermark 8")
        if self.behaviour == "crashed":
            raise WorkerCrashed("worker 0 died with this request in flight")
        return np.asarray(sample, dtype=np.float32).sum(axis=(1, 2))

    def submit(self, sample):
        future = concurrent.futures.Future()
        future.set_result(self.predict(sample))
        return future

    def alive_workers(self):
        return 1

    def stats(self):
        return {"submitted": self.calls}


def make_app(behaviour="ok", **config_kwargs) -> ServingApp:
    pool = StubPool(behaviour)
    config = ServeConfig(workers=1, **config_kwargs)
    return ServingApp(pool, SHAPE, config)


class TestServingAppPredict:
    def test_valid_request_succeeds(self):
        app = make_app()
        sample = np.ones(SHAPE, dtype=np.float32)
        status, body = app.predict_payload({"input": sample.tolist()})
        assert status == 200
        assert body["cached"] is False
        assert body["output"] == [1024.0, 1024.0, 1024.0]

    def test_cache_hit_returns_bit_identical_payload(self):
        app = make_app(cache_size=8)
        sample = np.random.default_rng(0).standard_normal(SHAPE).astype(np.float32)
        status1, body1 = app.predict_payload({"input": sample.tolist()})
        status2, body2 = app.predict_payload({"input": sample.tolist()})
        assert (status1, status2) == (200, 200)
        assert body1["cached"] is False and body2["cached"] is True
        # Bit-identical payload: the exact same floats, not approximately.
        assert body1["output"] == body2["output"]
        assert app.pool.calls == 1                 # second answer never hit the pool
        assert app.cache.hits == 1

    def test_cache_disabled_always_hits_the_pool(self):
        app = make_app(cache_size=0)
        sample = np.ones(SHAPE, dtype=np.float32)
        app.predict_payload({"input": sample.tolist()})
        app.predict_payload({"input": sample.tolist()})
        assert app.pool.calls == 2

    def test_missing_input_key_is_400(self):
        status, body = make_app().predict_payload({"sample": [1, 2]})
        assert status == 400 and "input" in body["error"]

    def test_non_object_payload_is_400(self):
        status, _ = make_app().predict_payload([1, 2, 3])
        assert status == 400

    def test_unparseable_input_is_400(self):
        status, body = make_app().predict_payload({"input": ["a", "b"]})
        assert status == 400 and "float" in body["error"]

    def test_wrong_shape_is_400_and_names_both_shapes(self):
        status, body = make_app().predict_payload({"input": [[1.0, 2.0]]})
        assert status == 400
        assert "[1, 2]" in body["error"] and "[3, 32, 32]" in body["error"]

    def test_saturated_pool_is_503(self):
        app = make_app("saturated")
        sample = np.ones(SHAPE, dtype=np.float32)
        status, body = app.predict_payload({"input": sample.tolist()})
        assert status == 503 and "overloaded" in body["error"]

    def test_worker_crash_is_500(self):
        app = make_app("crashed")
        sample = np.ones(SHAPE, dtype=np.float32)
        status, body = app.predict_payload({"input": sample.tolist()})
        assert status == 500 and "WorkerCrashed" in body["error"]

    def test_draining_app_sheds_with_503(self):
        app = make_app()
        app.draining = True
        sample = np.ones(SHAPE, dtype=np.float32)
        status, body = app.predict_payload({"input": sample.tolist()})
        assert status == 503 and "draining" in body["error"]
        assert app.pool.calls == 0

    def test_healthz_reflects_drain_state(self):
        app = make_app()
        assert app.healthz()[0] == 200
        app.draining = True
        status, body = app.healthz()
        assert status == 503 and body["status"] == "draining"

    def test_cached_responses_are_frozen_against_caller_mutation(self):
        app = make_app(cache_size=8)
        sample = np.ones(SHAPE, dtype=np.float32)
        output, _ = app.predict_array(sample)
        assert output.flags.writeable is False
        with pytest.raises(ValueError):
            output += 1.0                 # would silently poison the cache
        hit, cached = app.predict_array(sample)
        assert cached is True and np.array_equal(hit, output)


class TestServeEntryPointArguments:
    def test_experiment_serve_rejects_config_plus_overrides(self, smoke):
        with pytest.raises(ValueError, match="not both"):
            smoke.experiment.serve(workers=8, config=ServeConfig())
        with pytest.raises(ValueError, match="not both"):
            smoke.experiment.serve(config=ServeConfig(), cache_size=4)

    def test_experiment_serve_builds_config_from_overrides(self, smoke):
        server = smoke.experiment.serve(workers=3, port=0, cache_size=7)
        assert server.config.workers == 3
        assert server.config.port == 0
        assert server.config.cache_size == 7   # server never started: no cleanup


def raw_http(port: int, request: bytes) -> bytes:
    """Send raw bytes on a fresh connection; everything read until it closes.

    A server that hangs up on a request it will not read may reset the
    connection while bytes are still in flight; what arrived before the reset
    is the answer.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        chunks = []
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            sock.sendall(request)
        with contextlib.suppress(ConnectionResetError):
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    return b"".join(chunks)


class TestFrontDoorFraming:
    @pytest.mark.parametrize("length", [b"abc", b"1.5", b"-5"])
    def test_malformed_content_length_is_400_and_closes(self, length):
        door = AsyncFrontDoor(make_app(), "127.0.0.1", 0).start()
        try:
            # The bytes after the headers must not be parsed as a second request.
            response = raw_http(door.port, b"POST /predict HTTP/1.1\r\nContent-Length: "
                                + length + b"\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
            assert response.startswith(b"HTTP/1.1 400 ")
            assert response.count(b"HTTP/1.1 ") == 1
            assert b"Connection: close" in response
            assert b"Content-Length" in response.split(b"\r\n\r\n", 1)[1]
            healthz = raw_http(door.port, b"GET /healthz HTTP/1.1\r\n"
                                          b"Connection: close\r\n\r\n")
            assert healthz.startswith(b"HTTP/1.1 200 ")
        finally:
            door.shutdown()

    @pytest.mark.parametrize("request_bytes,status", [
        pytest.param(b"POST /predict HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n",
                     413, id="huge-content-length-without-body"),
        pytest.param(b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n",
                     431, id="request-line-over-64KiB"),
        pytest.param(b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70000 + b"\r\n\r\n",
                     431, id="header-line-over-64KiB"),
        pytest.param(b"GET /healthz HTTP/1.1\r\n"
                     + b"".join(b"X-Pad-%d: y\r\n" % i for i in range(20000)) + b"\r\n",
                     431, id="20000-header-lines"),
    ])
    def test_oversized_request_is_refused_and_closes(self, request_bytes, status):
        app = make_app()
        door = AsyncFrontDoor(app, "127.0.0.1", 0).start()
        try:
            response = raw_http(door.port, request_bytes)
            assert response.startswith(b"HTTP/1.1 %d " % status)
            assert response.count(b"HTTP/1.1 ") == 1
            assert b"Connection: close" in response
            healthz = raw_http(door.port, b"GET /healthz HTTP/1.1\r\n"
                                          b"Connection: close\r\n\r\n")
            assert healthz.startswith(b"HTTP/1.1 200 ")
            other = app.metrics.to_dict()["endpoints"]["other"]
            assert (other["requests"], other["errors_4xx"]) == (1, 1)
        finally:
            door.shutdown()

    def test_http_client_reads_the_413_of_a_body_it_is_still_sending(self):
        """A refused upload is drained after the answer, not reset under it."""
        app = make_app()
        door = AsyncFrontDoor(app, "127.0.0.1", 0).start()
        try:
            for _ in range(3):
                connection = http.client.HTTPConnection("127.0.0.1", door.port, timeout=10)
                try:
                    connection.request("POST", "/predict", body=b"0" * (4 << 20))
                    response = connection.getresponse()
                    assert response.status == 413
                    assert b"exceeds" in response.read()
                finally:
                    connection.close()
            other = app.metrics.to_dict()["endpoints"]["other"]
            assert (other["requests"], other["errors_4xx"]) == (3, 3)
        finally:
            door.shutdown()

    def test_pretty_printed_body_is_under_the_cap(self):
        app = make_app()
        door = AsyncFrontDoor(app, "127.0.0.1", 0).start()
        try:
            sample = np.random.default_rng(0).standard_normal(SHAPE).astype(np.float32)
            body = json.dumps({"input": sample.tolist()}, indent=2).encode()
            response = raw_http(door.port, b"POST /predict HTTP/1.1\r\nConnection: close\r\n"
                                + b"Content-Length: %d\r\n\r\n" % len(body) + body)
            assert response.startswith(b"HTTP/1.1 200 ")
        finally:
            door.shutdown()


# --------------------------------------------------------------------------- #
# Integration: a real ServingServer over real workers and real sockets
# --------------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def server(smoke):
    config = ServeConfig(workers=2, port=0, cache_size=32, startup_timeout=120.0)
    running = ServingServer(smoke.spec, state=smoke.state, config=config).start()
    yield running
    running.close()


def http_get(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_post(url: str, data: bytes):
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestServingServerIntegration:
    def test_healthz_reports_ok_with_all_workers(self, server):
        status, body = http_get(f"{server.url}/healthz")
        assert status == 200
        assert body == {"status": "ok", "workers_alive": 2, "workers_total": 2}

    def test_predict_answers_bit_identical_outputs(self, server, smoke):
        for sample, expected in zip(smoke.samples[:3], smoke.expected[:3]):
            status, body = http_post(f"{server.url}/predict",
                                     json.dumps({"input": sample.tolist()}).encode())
            assert status == 200
            assert np.array_equal(np.asarray(body["output"], dtype=np.float32),
                                  expected)

    def test_repeated_request_is_served_from_the_cache(self, server, smoke):
        payload = json.dumps({"input": smoke.samples[4].tolist()}).encode()
        status1, body1 = http_post(f"{server.url}/predict", payload)
        status2, body2 = http_post(f"{server.url}/predict", payload)
        assert (status1, status2) == (200, 200)
        assert body2["cached"] is True
        assert body1["output"] == body2["output"]

    def test_malformed_json_body_is_400(self, server):
        status, body = http_post(f"{server.url}/predict", b"{not json")
        assert status == 400 and "JSON" in body["error"]

    def test_unknown_endpoint_is_404_and_bucketed_in_metrics(self, server):
        assert http_get(f"{server.url}/nope")[0] == 404
        assert http_post(f"{server.url}/train", b"{}")[0] == 404
        endpoints = http_get(f"{server.url}/stats")[1]["serving"]["endpoints"]
        # Unknown paths share one metrics bucket — a fuzzer must not be able
        # to grow the counter map (and the /stats payload) without bound.
        assert "/nope" not in endpoints and "/train" not in endpoints
        assert endpoints["other"]["errors_4xx"] >= 2

    def test_stats_exposes_cache_pool_and_latency_counters(self, server, smoke):
        http_post(f"{server.url}/predict",
                  json.dumps({"input": smoke.samples[0].tolist()}).encode())
        status, body = http_get(f"{server.url}/stats")
        assert status == 200
        assert body["pool"]["completed"] >= 1
        assert body["cache"]["capacity"] == 32
        predict = body["serving"]["endpoints"]["/predict"]
        assert predict["requests"] >= 1
        assert predict["mean_ms"] > 0

    def test_in_process_predict_uses_the_http_request_path(self, server, smoke):
        out = server.predict(smoke.samples[1])
        assert np.array_equal(out, smoke.expected[1])

    def test_bind_failure_does_not_leak_the_pool(self, server, smoke):
        # Same port as the running server: workers spawn, the bind fails,
        # and start() must tear the pool down instead of orphaning it.
        config = ServeConfig(workers=1, port=server.port, startup_timeout=120.0)
        doomed = ServingServer(smoke.spec, state=smoke.state, config=config)
        with pytest.raises(OSError):
            doomed.start()
        assert doomed.pool.alive_workers() == 0
        assert doomed.pool.accepting is False

    # Keep this one LAST in the class: it flips the module-scoped server into
    # its drain state, after which /predict stops accepting work.
    def test_drain_flips_healthz_and_sheds_predicts(self, server, smoke):
        blocker = server.pool.submit_sleep(0.5)      # real in-flight work
        server.drain(wait=False)
        status, body = http_get(f"{server.url}/healthz")
        assert status == 503 and body["status"] == "draining"
        status, body = http_post(
            f"{server.url}/predict",
            json.dumps({"input": smoke.samples[0].tolist()}).encode())
        assert status == 503 and "draining" in body["error"]
        assert blocker.result(timeout=60.0) is None  # in-flight work finished
        stats = http_get(f"{server.url}/stats")[1]
        assert stats["draining"] is True
        assert stats["serving"]["endpoints"]["/predict"]["shed"] >= 1
