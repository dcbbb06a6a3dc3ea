"""Gateway benchmarks: the HTTP front door's overhead and drain cost.

Three headline numbers, all measured over real loopback sockets
against a live :class:`~repro.serving.gateway.Gateway`:

* ``throughput_cache_off`` / ``throughput_cache_on`` — sequential
  requests/second for a repeated query with the result cache disabled
  vs enabled (the cache turns a full embed → index → materialize pass
  into a dict lookup, so the gap is the service's whole compute);
* ``p99_ms_cache_off`` / ``p99_ms_cache_on`` — client-observed tail
  latency for the same two configurations;
* ``drain_ms_under_load`` — how long a graceful drain takes while
  concurrent clients are mid-flight (the SIGTERM → exit budget a
  rolling restart must plan for).

Numbers land in ``BENCH_gateway.json`` via the
``bench_record_gateway`` fixture (see ``conftest.py``).
"""

import http.client
import json
import threading
import time

import numpy as np

from repro.core import RecipeSearchEngine
from repro.data import DatasetConfig, RecipeFeaturizer, generate_dataset
from repro.serving import (AdmissionConfig, CacheConfig, Gateway,
                           GatewayConfig, ResilientSearchService,
                           ServiceConfig)

HOST = "127.0.0.1"
REQUESTS = 150
CLIENTS = 6


class _Embedded:
    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data


class _StubModel:
    """Training-free embedder so the benchmark measures the wire and
    cache, not a model forward pass."""

    def __init__(self, dim: int = 16):
        self.dim = int(dim)

    def _recipe_rows(self, ids, lengths) -> np.ndarray:
        ids, lengths = np.asarray(ids), np.asarray(lengths)
        out = np.zeros((len(ids), self.dim))
        for row in range(len(ids)):
            n = max(int(lengths[row]), 1)
            hist = np.bincount(ids[row][:n] % self.dim,
                               minlength=self.dim).astype(float) + 1e-3
            out[row] = hist / np.linalg.norm(hist)
        return out

    def embed_recipes(self, ingredient_ids, ingredient_lengths,
                      sentence_vectors, sentence_lengths) -> _Embedded:
        return _Embedded(self._recipe_rows(ingredient_ids,
                                           ingredient_lengths))

    def embed_images(self, images) -> _Embedded:
        flat = np.asarray(images).reshape(len(images), -1)
        hist = np.abs(flat[:, :self.dim]) + 1e-3
        return _Embedded(hist / np.linalg.norm(hist, axis=1,
                                               keepdims=True))

    def encode_corpus(self, corpus, batch_size: int = 256):
        recipe = self._recipe_rows(corpus.ingredient_ids,
                                   corpus.ingredient_lengths)
        return recipe.copy(), recipe


def _build_engine() -> RecipeSearchEngine:
    dataset = generate_dataset(DatasetConfig(
        num_pairs=60, num_classes=4, image_size=8, seed=7))
    featurizer = RecipeFeaturizer(word_dim=8, sentence_dim=8).fit(dataset)
    corpus = featurizer.encode_split(dataset, "test")
    return RecipeSearchEngine(_StubModel(), featurizer, dataset, corpus)


def _query_ingredients(engine) -> list:
    vocab = engine.featurizer.ingredient_vocab
    names = []
    for recipe in engine.dataset.split("train"):
        for name in recipe.ingredients:
            if name.replace(" ", "_") in vocab and name not in names:
                names.append(name)
            if len(names) >= 2:
                return names
    return names


def _start_gateway(cache_enabled: bool):
    engine = _build_engine()
    service = ResilientSearchService(
        engine, ServiceConfig(deadline=2.0,
                              admission=AdmissionConfig.static(64)))
    gateway = Gateway(service, GatewayConfig(
        max_connections=128,
        cache=CacheConfig(enabled=cache_enabled, ttl_s=300.0)))
    gateway.start()
    return gateway, _query_ingredients(engine)


def _one_request(port: int, payload: bytes) -> float:
    started = time.perf_counter()
    conn = http.client.HTTPConnection(HOST, port, timeout=10.0)
    try:
        conn.request("POST", "/search", body=payload,
                     headers={"Content-Type": "application/json",
                              "Connection": "close"})
        reply = conn.getresponse()
        assert reply.status == 200, reply.read()
        reply.read()
    finally:
        conn.close()
    return time.perf_counter() - started


def _measure(cache_enabled: bool) -> tuple[float, float]:
    """(requests/second, p99 ms) for one gateway configuration."""
    gateway, ingredients = _start_gateway(cache_enabled)
    payload = json.dumps({"ingredients": ingredients, "k": 5}).encode()
    try:
        _one_request(gateway.port, payload)  # warm (and fill the cache)
        latencies = []
        started = time.perf_counter()
        for _ in range(REQUESTS):
            latencies.append(_one_request(gateway.port, payload))
        elapsed = time.perf_counter() - started
    finally:
        gateway.drain(reason="bench-done")
    rps = REQUESTS / elapsed
    p99_ms = float(np.percentile(np.array(latencies), 99)) * 1000.0
    return rps, p99_ms


def _measure_drain_under_load() -> float:
    """Milliseconds from drain() to fully drained with clients live."""
    gateway, ingredients = _start_gateway(True)
    payload = json.dumps({"ingredients": ingredients, "k": 5,
                          "class_name": None}).encode()
    stop = threading.Event()

    def client():
        while not stop.is_set():
            try:
                _one_request(gateway.port, payload)
            except (OSError, AssertionError):
                return  # drain reached the wire

    threads = [threading.Thread(target=client, daemon=True)
               for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    time.sleep(0.3)  # let load build
    started = time.perf_counter()
    gateway.drain(reason="bench-drain")
    drain_s = time.perf_counter() - started
    stop.set()
    for thread in threads:
        thread.join(timeout=5.0)
    return drain_s * 1000.0


def test_bench_gateway_throughput_and_drain(benchmark,
                                            bench_record_gateway):
    """Headline: cache-on/cache-off speedup over real sockets."""
    results = {}

    def run_suite():
        results["off"] = _measure(cache_enabled=False)
        results["on"] = _measure(cache_enabled=True)
        results["drain_ms"] = _measure_drain_under_load()
        return results

    benchmark.pedantic(run_suite, rounds=1, iterations=1)
    (rps_off, p99_off), (rps_on, p99_on) = results["off"], results["on"]
    bench_record_gateway(rps_off, None, name="throughput_cache_off")
    bench_record_gateway(rps_on, None, name="throughput_cache_on")
    bench_record_gateway(p99_off, None, name="p99_ms_cache_off")
    bench_record_gateway(p99_on, None, name="p99_ms_cache_on")
    bench_record_gateway(results["drain_ms"], None,
                         name="drain_ms_under_load")
    speedup = rps_on / max(rps_off, 1e-9)
    bench_record_gateway(speedup, None, name="cache_speedup")
    print(f"\ngateway throughput: cache off {rps_off:.0f} req/s "
          f"(p99 {p99_off:.2f}ms), cache on {rps_on:.0f} req/s "
          f"(p99 {p99_on:.2f}ms), speedup {speedup:.2f}x")
    print(f"drain under load: {results['drain_ms']:.1f}ms")
    assert rps_on > 0 and rps_off > 0
    # A cached answer must not be slower than recomputing it.
    assert speedup >= 0.8
