"""The request path's metric series, counted off the exposition.

The service, cluster and gateway bind their metric children once and
reuse them on every request.  A bound child that is not the registry's
own (made beside the family instead of through it) keeps counting
where no scrape sees it, so the counts here are read back from the
Prometheus text, not from the objects the code holds.

One fixed script on a fake clock: searches on the monolith and on a
2x2 cluster, one shed, one degraded answer, a gateway miss and hit, an
add and a delete, and a 2x2 cluster that loses one replica, then has
one answer NaN, then loses a whole shard.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro.obs import MetricsRegistry, Tracer, parse_prometheus
from repro.serving import (AdmissionConfig, ClusterConfig,
                           ResilientSearchService, ServiceConfig)
from repro.retrieval.index import NearestNeighborIndex
from repro.serving.deadline import Deadline
from repro.serving.gateway import Gateway

from ._serving_util import FakeClock, known_ingredients, make_engine, \
    make_world

SEARCHES = 3


class _CapturingSocket:
    """Just enough socket for the gateway to write a response into."""

    def __init__(self):
        self.sent = b""

    def sendall(self, data: bytes) -> None:
        self.sent += data


class _Conn:
    def __init__(self):
        self.sock = _CapturingSocket()


def _post_search(gateway: Gateway, body: dict) -> str:
    conn = _Conn()
    gateway._handle(conn, {
        "method": "POST", "target": "/search", "version": "HTTP/1.1",
        "headers": {"content-type": "application/json"},
        "body": json.dumps(body).encode()})
    head, _, payload = conn.sock.sent.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    return json.loads(payload)["cache"]


def _counts(service, family: str, suffix: str = "") -> dict:
    """``{label values: count}`` of one exported family, the values in
    the alphabetical order of their label names."""
    parsed = parse_prometheus(service.telemetry.registry.to_prometheus())
    return {tuple(value for _, value in labels): int(count)
            for labels, count in parsed.get(family + suffix, {}).items()}


@pytest.fixture(scope="module")
def world():
    return make_world()


def test_monolith_script_exports_every_request(world):
    clock = FakeClock()
    service = ResilientSearchService(
        make_engine(*world),
        ServiceConfig(admission=AdmissionConfig.static(1)),
        clock=clock, sleep=clock.sleep)
    ingredients = known_ingredients(service.engine)
    for _ in range(SEARCHES):
        assert service.search_by_ingredients(ingredients).outcome.status \
            == "ok"
    recipe = service.engine.dataset[int(service.engine.corpus
                                        .recipe_indices[0])]
    assert service.search_by_recipe(recipe).outcome.status == "ok"
    # Shed: the one admission slot is held elsewhere.
    held = service.admission.acquire("default", None,
                                     Deadline(1.0, clock=clock))
    assert held.admitted
    assert service.search_by_ingredients(ingredients).outcome.status \
        == "shed"
    service.admission.release(0.0)
    # Degraded: the embed breaker is open.
    for _ in range(3):
        service.embed_breaker.record_failure()
    assert service.search_by_ingredients(ingredients).outcome.status \
        == "degraded"
    service.embed_breaker.reset()
    # The gateway: a miss reaches the service, the repeat is a hit.
    gateway = Gateway(service, clock=clock)
    body = {"ingredients": ingredients, "k": 3}
    assert _post_search(gateway, body) == "miss"
    assert _post_search(gateway, body) == "hit"
    # No ingest log: both writes are refused, and still counted.
    assert service.ingest(recipe).status == "unavailable"
    assert service.delete(0).status == "unavailable"

    served = SEARCHES + 2            # + the recipe query, the miss
    assert _counts(service, "serving_requests_total") == {
        ("ingredients", "ok"): served - 1, ("recipe", "ok"): 1,
        ("ingredients", "shed"): 1, ("ingredients", "degraded"): 1}
    # The degraded request opened its embed stage and was refused by
    # the breaker there, before any attempt.
    assert _counts(service, "serving_stage_seconds", "_count") == {
        ("admit",): served + 2, ("embed",): served + 1,
        ("index",): served, ("degraded",): 1,
        ("materialize",): served + 1}
    assert _counts(service, "serving_stage_attempts_total") == {
        ("embed",): served, ("index",): served}
    assert _counts(service, "cluster_shard_seconds", "_count") == {
        ("image", "0"): served}
    assert _counts(service, "cluster_queries_total") == {
        ("image", "ok"): served}
    assert _counts(service, "gateway_requests_total") == {
        ("200", "search"): 2}
    assert _counts(service, "requests_shed_total") == {
        ("inflight_limit", "default"): 1}
    assert _counts(service, "gateway_cache_events_total") == {
        ("miss",): 1, ("store",): 1, ("hit",): 1}
    assert _counts(service, "ingest_requests_total") == {
        ("add", "unavailable"): 1, ("delete", "unavailable"): 1}


def test_cluster_script_exports_every_shard(world):
    clock = FakeClock()
    service = ResilientSearchService(
        make_engine(*world),
        ServiceConfig(cluster=ClusterConfig(num_shards=2, replication=2)),
        clock=clock, sleep=clock.sleep)
    ingredients = known_ingredients(service.engine)
    for _ in range(SEARCHES):
        assert service.search_by_ingredients(ingredients).outcome.status \
            == "ok"
    assert _counts(service, "serving_requests_total") == {
        ("ingredients", "ok"): SEARCHES}
    assert _counts(service, "serving_stage_seconds", "_count") == {
        (stage,): SEARCHES
        for stage in ("admit", "embed", "index", "materialize")}
    assert _counts(service, "serving_stage_attempts_total") == {
        ("embed",): SEARCHES, ("index",): SEARCHES}
    # One replica answers per shard; the first live one.
    assert _counts(service, "cluster_shard_seconds", "_count") == {
        ("image", "0"): SEARCHES, ("image", "1"): SEARCHES}
    assert _counts(service, "cluster_queries_total") == {
        ("image", "ok"): SEARCHES}


def test_cluster_script_exports_failovers_and_partials(world):
    clock = FakeClock()
    service = ResilientSearchService(
        make_engine(*world),
        ServiceConfig(cluster=ClusterConfig(num_shards=2, replication=2)),
        clock=clock, sleep=clock.sleep)
    ingredients = known_ingredients(service.engine)
    cluster = service._active.image_cluster
    # One replica down: its shard fails over once, and anti-entropy
    # rebuilds it after the query.
    cluster.crash_replica(0, 0)
    assert service.search_by_ingredients(ingredients).outcome.status \
        == "ok"
    assert cluster.live_replica_count() == 4
    # One replica answers NaN: its attempt fails over to the sibling.
    sealed = cluster.replica(0, 0).index
    cluster.replica(0, 0).index = NearestNeighborIndex.from_normalized(
        np.full_like(sealed.embeddings, np.nan), sealed.ids,
        sealed.class_ids)
    assert service.search_by_ingredients(ingredients).outcome.status \
        == "ok"
    cluster.replica(0, 0).index = sealed
    # A whole shard down: every fan-out skips both of its replicas and
    # answers partial.
    cluster.crash_replica(1, 0)
    cluster.crash_replica(1, 1)
    for _ in range(SEARCHES):
        assert service.search_by_ingredients(ingredients).outcome.status \
            == "partial"
    assert _counts(service, "cluster_failovers_total") == {
        ("image", "0"): 2, ("image", "1"): 2 * SEARCHES}
    assert _counts(service, "cluster_partial_results_total") == {
        ("image",): SEARCHES}
    assert _counts(service, "cluster_queries_total") == {
        ("image", "ok"): 2, ("image", "partial"): SEARCHES}
    assert _counts(service, "serving_requests_total") == {
        ("ingredients", "ok"): 2, ("ingredients", "partial"): SEARCHES}


def test_equal_but_distinct_label_values_keep_their_series():
    # True == 1 == 1.0 as dict keys, but their label strings differ.
    registry = MetricsRegistry()
    counter = registry.counter("c_total", labels=("k",))
    for value in ("1", 1, True, 1.0, "1", True, 1):
        counter.child(value).inc()
    assert parse_prometheus(registry.to_prometheus())["c_total"] == {
        (("k", "1"),): 4.0, (("k", "True"),): 2.0, (("k", "1.0"),): 1.0}


def test_racing_binds_and_spans_lose_nothing():
    """Eight threads bind the same 3000 label values in step, half as
    ints and half as strings, then open spans, with the interpreter
    switching threads every microsecond: every increment lands on the
    one exported series per value (a first bind made outside the family
    lock loses some), and no span id repeats."""
    registry = MetricsRegistry()
    counter = registry.counter("c_total", labels=("k",))
    tracer = Tracer()
    span_ids = []
    start = threading.Barrier(8)

    def work(worker: int):
        start.wait(timeout=60)
        for i in range(3000):
            counter.child(i if worker % 2 else str(i)).inc()
        for __ in range(500):
            with tracer.span("s") as span:
                span_ids.append(span.span_id)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    exported = parse_prometheus(registry.to_prometheus())["c_total"]
    assert exported == {(("k", str(v)),): 8.0 for v in range(3000)}
    assert len(set(span_ids)) == len(span_ids) == 4000
