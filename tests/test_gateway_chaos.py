"""Real-socket gateway chaos suite (``-m gateway``).

Every test here talks to a live :class:`~repro.serving.gateway.Gateway`
over actual TCP on loopback — the point is to attack the wire, not the
library.  The misbehaving clients come from ``tests/_netfaults.py``;
the acceptance bar is the drain contract (every accepted request
completes or gets a clean 503, never a reset), the slowloris reaper,
and swap-aware cache behaviour under real degradation.
"""

import contextlib
import http.client
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.serving import (AdmissionConfig, CacheConfig, Gateway,
                           GatewayConfig, HttpRequester, LoadGenerator,
                           ResilientSearchService, ServiceConfig,
                           TenantLoad, TenantPolicy)

from ._netfaults import (ConnectionFlood, DisconnectMidResponse,
                         SlowClient, TruncatedBody, read_response)
from ._serving_util import FakeClock, known_ingredients, make_engine, \
    make_world

pytestmark = pytest.mark.gateway

HOST = "127.0.0.1"


@pytest.fixture(scope="module")
def world():
    return make_world(num_pairs=40)


@contextlib.contextmanager
def running_gateway(world, *, service_config=None, gateway_config=None,
                    clock=time.monotonic, ingest_log=None):
    dataset, featurizer = world
    engine = make_engine(dataset, featurizer)
    service = ResilientSearchService(
        engine, service_config or ServiceConfig(deadline=2.0),
        ingest_log=ingest_log)
    gateway = Gateway(service, gateway_config or GatewayConfig(),
                      clock=clock)
    gateway.start()
    try:
        yield service, gateway
    finally:
        gateway.drain(reason="test-teardown")


def request(port, method, path, body=None, headers=None):
    """One client request; returns ``(status, headers, parsed_body)``."""
    conn = http.client.HTTPConnection(HOST, port, timeout=10.0)
    try:
        raw = None
        base = {"Connection": "close"}
        if body is not None:
            raw = json.dumps(body).encode("utf-8")
            base["Content-Type"] = "application/json"
        base.update(headers or {})
        conn.request(method, path, body=raw, headers=base)
        reply = conn.getresponse()
        data = reply.read()
        try:
            parsed = json.loads(data)
        except ValueError:
            parsed = data.decode("utf-8", "replace")
        return reply.status, dict(reply.getheaders()), parsed
    finally:
        conn.close()


def search(port, ingredients, headers=None, k=3):
    return request(port, "POST", "/search",
                   body={"ingredients": ingredients, "k": k},
                   headers=headers)


# ----------------------------------------------------------------------
# Routing, auth, headers
# ----------------------------------------------------------------------
class TestRouting:
    def test_health_metrics_stats(self, world):
        with running_gateway(world) as (service, gateway):
            port = gateway.port
            assert request(port, "GET", "/healthz")[0] == 200
            status, _, body = request(port, "GET", "/readyz")
            assert status == 200 and body["ready"] is True
            status, headers, text = request(port, "GET", "/metrics")
            assert status == 200
            assert "gateway_requests_total" in text
            assert headers["Content-Type"].startswith("text/plain")
            status, _, stats = request(port, "GET", "/stats")
            assert status == 200
            assert stats["gateway"]["ready"] is True
            assert request(port, "GET", "/nope")[0] == 404
            assert request(port, "GET", "/search")[0] == 405

    def test_search_end_to_end_with_cache(self, world):
        with running_gateway(world) as (service, gateway):
            port = gateway.port
            ingredients = known_ingredients(service.engine)
            status, headers, body = search(port, ingredients)
            assert status == 200, body
            assert body["cache"] == "miss" and body["stale"] is False
            assert headers["X-Cache"] == "miss"
            assert body["results"]
            assert body["outcome"]["status"] == "ok"
            # Different key order + extra whitespace: same fingerprint.
            status, headers, body2 = request(
                port, "POST", "/search",
                body={"k": 3, "ingredients": [
                    "  ".join(i.split()) for i in ingredients]})
            assert status == 200
            assert body2["cache"] == "hit"
            assert headers["X-Cache"] == "hit"
            assert body2["results"] == body["results"]
            # Cache-Control: no-cache bypasses the cache entirely.
            status, _, body3 = search(port, ingredients,
                                      headers={"Cache-Control":
                                               "no-cache"})
            assert status == 200 and body3["cache"] == "miss"

    def test_api_key_auth(self, world):
        config = GatewayConfig(api_keys={"sk-alice": "alice"})
        with running_gateway(world, gateway_config=config) as \
                (service, gateway):
            port = gateway.port
            ingredients = known_ingredients(service.engine)
            status, _, body = search(port, ingredients)
            assert status == 401 and body["error"] == "missing_api_key"
            status, _, body = search(port, ingredients,
                                     headers={"X-Api-Key": "sk-mallory"})
            assert status == 401 and body["error"] == "unknown_api_key"
            status, _, body = search(port, ingredients,
                                     headers={"X-Api-Key": "sk-alice"})
            assert status == 200
            assert body["outcome"]["tenant"] == "alice"

    def test_deadline_and_criticality_headers(self, world):
        config = GatewayConfig(max_deadline_ms=1000.0)
        with running_gateway(world, gateway_config=config) as \
                (service, gateway):
            port = gateway.port
            ingredients = known_ingredients(service.engine)
            status, _, body = search(port, ingredients,
                                     headers={"X-Deadline-Ms": "soonish"})
            assert status == 400 and body["error"] == "bad_deadline"
            status, _, body = search(port, ingredients,
                                     headers={"X-Criticality": "vital"})
            assert status == 400 and body["error"] == "bad_criticality"
            status, _, body = search(
                port, ingredients,
                headers={"X-Deadline-Ms": "800",
                         "X-Criticality": "background",
                         "Cache-Control": "no-cache"})
            assert status == 200
            assert body["outcome"]["deadline_source"] == "header"

    def test_ingest_and_delete_roundtrip(self, world, tmp_path):
        from repro.serving import recipe_to_payload
        dataset, _ = world
        with running_gateway(world, ingest_log=tmp_path / "wal") as \
                (service, gateway):
            port = gateway.port
            payload = recipe_to_payload(list(dataset.split("train"))[0])
            status, _, body = request(port, "POST", "/ingest",
                                      body={"recipe": payload})
            assert status == 200, body
            assert body["status"] == "ok" and body["durable"] is True
            item_id = body["item_id"]
            status, _, body = request(port, "DELETE",
                                      f"/items/{item_id}")
            assert status == 200 and body["status"] == "ok"
            status, _, body = request(port, "POST", "/delete",
                                      body={"item_id": "x"})
            assert status == 400


# ----------------------------------------------------------------------
# Wire armor
# ----------------------------------------------------------------------
class TestWireArmor:
    def test_malformed_request_line_is_structured_400(self, world):
        with running_gateway(world) as (_, gateway):
            with socket.create_connection((HOST, gateway.port),
                                          timeout=5.0) as sock:
                sock.sendall(b"NONSENSE\r\n\r\n")
                raw = read_response(sock)
            assert raw.startswith(b"HTTP/1.1 400")
            assert b"bad_request_line" in raw

    def test_oversize_header_431(self, world):
        config = GatewayConfig(max_header_bytes=512)
        with running_gateway(world, gateway_config=config) as \
                (_, gateway):
            with socket.create_connection((HOST, gateway.port),
                                          timeout=5.0) as sock:
                sock.sendall(b"GET / HTTP/1.1\r\nX-Pad: " +
                             b"a" * 2048 + b"\r\n\r\n")
                raw = read_response(sock)
            assert raw.startswith(b"HTTP/1.1 431")

    def test_oversize_body_413(self, world):
        config = GatewayConfig(max_body_bytes=128)
        with running_gateway(world, gateway_config=config) as \
                (_, gateway):
            status, _, body = request(
                gateway.port, "POST", "/search",
                body={"ingredients": ["x" * 400]})
            assert status == 413 and body["error"] == "oversize_body"

    def test_truncated_body_structured_400(self, world):
        config = GatewayConfig(body_deadline_s=1.0,
                               reaper_interval_s=0.1)
        with running_gateway(world, gateway_config=config) as \
                (_, gateway):
            result = TruncatedBody(HOST, gateway.port).run()
            assert result["status"] == 400
            # The gateway answered promptly instead of waiting out the
            # advertised-but-absent bytes.
            assert result["elapsed_s"] < 5.0
            # ... and stays healthy for the next caller.
            assert request(gateway.port, "GET", "/healthz")[0] == 200

    def test_slowloris_evicted_without_hurting_healthy_tenants(
            self, world):
        config = GatewayConfig(header_deadline_s=0.5,
                               reaper_interval_s=0.1)
        with running_gateway(world, gateway_config=config) as \
                (service, gateway):
            port = gateway.port
            ingredients = known_ingredients(service.engine)
            slow = SlowClient(HOST, port, byte_interval_s=0.1,
                              max_duration_s=10.0)
            holder = {}
            attacker = threading.Thread(
                target=lambda: holder.update(result=slow.run()))
            attacker.start()
            latencies, statuses = [], []
            while attacker.is_alive():
                started = time.monotonic()
                status, _, _ = search(port, ingredients,
                                      headers={"Cache-Control":
                                               "no-cache"})
                latencies.append(time.monotonic() - started)
                statuses.append(status)
            attacker.join()
            result = holder["result"]
            assert result["evicted"], result
            # Evicted within the reaper window (deadline + interval +
            # slack), nowhere near the full drip duration.
            assert result["elapsed_s"] < 2.0, result
            assert statuses and all(s == 200 for s in statuses)
            # Healthy requests never waited behind the attacker.
            assert max(latencies) < 1.0, latencies

    def test_connection_flood_is_shed_at_accept(self, world):
        config = GatewayConfig(max_connections=4, idle_timeout_s=10.0)
        with running_gateway(world, gateway_config=config) as \
                (_, gateway):
            flood = ConnectionFlood(HOST, gateway.port, connections=16,
                                    hold_s=1.0)
            result = flood.run()
            assert result["shed"] >= 1, result
            assert result["held_open"] <= 4, result
            # Slots free up once the flood lets go.
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    status, _, _ = request(gateway.port, "GET",
                                           "/healthz")
                    if status == 200:
                        break
                except OSError:
                    time.sleep(0.05)
            else:
                pytest.fail("gateway never recovered from the flood")

    def test_disconnect_mid_response_is_contained(self, world):
        with running_gateway(world) as (service, gateway):
            port = gateway.port
            for _ in range(3):
                DisconnectMidResponse(
                    HOST, port, read_bytes=8,
                    body=json.dumps({"ingredients": known_ingredients(
                        service.engine), "k": 3}).encode()).run()
            # The rude clients cost the gateway nothing visible.
            status, _, body = search(port,
                                     known_ingredients(service.engine))
            assert status == 200 and body["results"]
            deadline = time.monotonic() + 5.0
            while gateway.describe()["inflight_requests"] > 0:
                assert time.monotonic() < deadline, \
                    "requests leaked after rude disconnects"
                time.sleep(0.05)


# ----------------------------------------------------------------------
# Swap-aware cache on the wire
# ----------------------------------------------------------------------
class TestCacheOnTheWire:
    def test_hot_swap_invalidates_cache(self, world):
        dataset, featurizer = world
        with running_gateway(world) as (service, gateway):
            port = gateway.port
            ingredients = known_ingredients(service.engine)
            assert search(port, ingredients)[2]["cache"] == "miss"
            assert search(port, ingredients)[2]["cache"] == "hit"
            report = service.swap_corpus(
                featurizer.encode_split(dataset, "val"))
            assert report.ok
            status, _, body = search(port, ingredients)
            assert status == 200
            # No stale-generation answer: the entry stored under
            # generation 0 is not served as fresh after the swap.
            assert body["cache"] == "miss"
            assert body["stale"] is False
            assert body["generation"] == 1

    def test_stale_while_revalidate_only_under_degradation(self, world):
        clock = FakeClock()
        config = GatewayConfig(cache=CacheConfig(
            capacity=8, ttl_s=10.0, stale_ttl_s=120.0))
        service_config = ServiceConfig(deadline=2.0,
                                       degraded_enabled=False)
        with running_gateway(world, service_config=service_config,
                             gateway_config=config, clock=clock) as \
                (service, gateway):
            port = gateway.port
            ingredients = known_ingredients(service.engine)
            fresh = search(port, ingredients)[2]
            assert fresh["cache"] == "miss"
            clock.now += 60.0  # expire the entry (gateway cache clock)
            # Healthy backend + expired entry → recomputed, NOT stale.
            body = search(port, ingredients)[2]
            assert body["cache"] == "miss" and body["stale"] is False
            clock.now += 60.0  # expire the refreshed entry again
            # Now the embed dependency goes down hard; with the
            # degraded ranker disabled the live path fails outright
            # (three failures in a row open the embed breaker).
            for _ in range(3):
                service.embed_breaker.record_failure()
            status, headers, body = search(port, ingredients)
            assert status == 200, body
            assert body["stale"] is True and body["cache"] == "stale"
            assert body["stale_reason"] == "error"
            assert headers["X-Cache"] == "stale"
            assert "stale" in headers.get("Warning", "")
            assert body["results"] == fresh["results"]

    def test_rate_limited_tenant_gets_429_not_stale(self, world):
        service_config = ServiceConfig(
            deadline=2.0,
            admission=AdmissionConfig(tenants=(
                TenantPolicy(name="busy", rate=0.001, burst=1.0),)))
        with running_gateway(world,
                             service_config=service_config) as \
                (service, gateway):
            port = gateway.port
            ingredients = known_ingredients(service.engine)
            headers = {"X-Tenant": "busy"}
            assert search(port, ingredients, headers=headers)[0] == 200
            status, reply_headers, body = request(
                port, "POST", "/search",
                body={"ingredients": ingredients, "k": 4},
                headers=headers)
            assert status == 429, body
            assert body["outcome"]["shed_reason"] == "rate_limit"
            assert "Retry-After" in reply_headers
            # A tenant over its own budget is not a degraded backend:
            # no stale serving happened.
            assert "stale" not in body


# ----------------------------------------------------------------------
# Graceful drain under load
# ----------------------------------------------------------------------
def _raw_search(port, payload: bytes):
    """One Connection: close request, judged for completeness.

    Returns ``(kind, status)`` where kind is ``complete`` (full
    response, body length matches Content-Length), ``refused``
    (nothing accepted — fine during drain), or ``broken`` (accepted
    but reset/truncated — the drain contract violation).
    """
    try:
        sock = socket.create_connection((HOST, port), timeout=10.0)
    except OSError:
        return "refused", None
    try:
        head = (f"POST /search HTTP/1.1\r\nHost: {HOST}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        try:
            sock.sendall(head + payload)
        except OSError:
            return "refused", None  # reset before the request landed
        raw = read_response(sock, timeout_s=10.0)
    finally:
        sock.close()
    if not raw:
        return "refused", None  # closed before any response byte
    head, sep, body = raw.partition(b"\r\n\r\n")
    if not sep or not head.startswith(b"HTTP/1.1 "):
        return "broken", None
    status = int(head.split()[1])
    length = None
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value.strip())
    if length is None or len(body) != length:
        return "broken", status
    return "complete", status


class TestGracefulDrain:
    def test_sigterm_under_load_completes_or_503s(self, world):
        config = GatewayConfig(max_connections=128,
                               drain_deadline_s=5.0,
                               read_timeout_s=2.0)
        with running_gateway(world, gateway_config=config) as \
                (service, gateway):
            port = gateway.port
            payload = json.dumps({"ingredients": known_ingredients(
                service.engine), "k": 3}).encode()
            results = []
            lock = threading.Lock()
            stop = threading.Event()

            def client():
                while not stop.is_set():
                    outcome = _raw_search(port, payload)
                    with lock:
                        results.append(outcome)
                    if outcome[0] == "refused":
                        return  # listener is gone; drain is underway

            clients = [threading.Thread(target=client)
                       for _ in range(8)]
            for thread in clients:
                thread.start()
            time.sleep(0.4)  # let load build
            gateway.install_signal_handlers()
            try:
                os.kill(os.getpid(), signal.SIGTERM)
                assert gateway.wait_drained(timeout=15.0)
            finally:
                stop.set()
                gateway.restore_signal_handlers()
            for thread in clients:
                thread.join(timeout=5.0)
            kinds = [kind for kind, _ in results]
            statuses = [status for kind, status in results
                        if kind == "complete"]
            assert "broken" not in kinds, results
            assert statuses.count(200) > 0, results
            assert set(statuses) <= {200, 503}, results
            assert gateway.describe()["drain_reason"] == "SIGTERM"

    def test_drain_is_idempotent_and_flips_readiness(self, world):
        with running_gateway(world) as (service, gateway):
            port = gateway.port
            assert request(port, "GET", "/readyz")[0] == 200
            winners = []
            threads = [threading.Thread(
                target=lambda: winners.append(
                    gateway.drain(reason="race")))
                for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert winners.count(True) == 1
            assert gateway.describe()["draining"] is True
            with pytest.raises(Exception):
                request(port, "GET", "/healthz")

    def test_acked_ingests_survive_drain_and_restart(self, world,
                                                     tmp_path):
        from repro.serving import recipe_to_payload
        dataset, featurizer = world
        log_dir = tmp_path / "wal"
        acked = []
        with running_gateway(world, ingest_log=log_dir) as \
                (service, gateway):
            port = gateway.port
            for recipe in list(dataset.split("train"))[:5]:
                status, _, body = request(
                    port, "POST", "/ingest",
                    body={"recipe": recipe_to_payload(recipe)})
                assert status == 200 and body["durable"] is True
                acked.append(body["item_id"])
            gateway.drain(reason="restart")
        # Crash-only restart: a fresh service over the same WAL must
        # see every acknowledged write.
        engine = make_engine(dataset, featurizer)
        revived = ResilientSearchService(
            engine, ServiceConfig(deadline=2.0), ingest_log=log_dir)
        assert revived.ingestor.recovery["replayed_records"] >= len(acked)
        for item_id in acked:
            assert item_id in revived.ingestor.payloads


# ----------------------------------------------------------------------
# loadgen over HTTP
# ----------------------------------------------------------------------
class TestHttpLoadgen:
    def test_loadgen_drives_the_socket_path(self, world):
        with running_gateway(world) as (service, gateway):
            requester = HttpRequester(
                gateway.url + "/search",
                payload={"ingredients": known_ingredients(
                    service.engine), "k": 3})
            report = LoadGenerator(
                requester,
                [TenantLoad("alice", 20.0),
                 TenantLoad("bob", 10.0, criticality="background")],
                duration_s=0.5).run()
            assert report.offered > 0
            assert report.good > 0
            assert set(report.tenants) == {"alice", "bob"}
            # The wire path reports per-tenant goodput identically to
            # the in-process path.
            assert report.tenants["alice"].good > 0
            assert report.tenants["alice"].p95_ms() >= 0.0

    def test_http_requester_counts_refused_as_shed(self, world):
        with running_gateway(world) as (service, gateway):
            port = gateway.port
            gateway.drain(reason="test")
        requester = HttpRequester(f"http://{HOST}:{port}/search")
        response = requester("alice", "user")
        assert response.outcome.status == "shed"
        assert response.outcome.shed_reason == "at_accept"
