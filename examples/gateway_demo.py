"""SIGTERM mid-load: the gateway's graceful-drain story, end to end.

Boots the hardened HTTP gateway over the resilient search service
(real loopback sockets, per-tenant API keys, streaming-ingest WAL),
fires mixed-tenant traffic at it — searches from an interactive
"mobile" tenant and a background "batch" crawler, plus a stream of
durable ingests — and then delivers a real ``SIGTERM`` while requests
are in flight.

The demo then audits the drain contract:

* every accepted request either completed (2xx) or was refused with a
  clean 503 — zero connections were reset mid-response;
* the drain flushed the write-ahead log, so a crash-only restart over
  the same directory recovers **every acknowledged ingest**;
* the restarted service can immediately serve the streamed rows.

    python examples/gateway_demo.py [--duration S] [--rate RPS]

No training runs: a deterministic histogram embedder stands in for
the model, so the demo is a few seconds of real-socket traffic.
"""

import argparse
import http.client
import json
import os
import pathlib
import signal
import tempfile
import threading
import time
from collections import Counter

import numpy as np

from repro.core.engine import RecipeSearchEngine
from repro.data import DatasetConfig, RecipeFeaturizer, generate_dataset
from repro.serving import (AdmissionConfig, CacheConfig, Gateway,
                           GatewayConfig, ResilientSearchService,
                           ServiceConfig, recipe_to_payload)

HOST = "127.0.0.1"
API_KEYS = {"sk-mobile": "mobile", "sk-batch": "batch"}


class _Embedded:
    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data


class _StubModel:
    """Deterministic embedder: normalized ingredient-id histograms."""

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


def build_world():
    dataset = generate_dataset(DatasetConfig(
        num_pairs=60, num_classes=4, image_size=8, seed=7))
    featurizer = RecipeFeaturizer(word_dim=8,
                                  sentence_dim=8).fit(dataset)
    return dataset, featurizer


def build_service(dataset, featurizer, log_dir) -> ResilientSearchService:
    corpus = featurizer.encode_split(dataset, "test")
    engine = RecipeSearchEngine(_StubModel(), featurizer, dataset,
                                corpus)
    return ResilientSearchService(
        engine, ServiceConfig(deadline=2.0,
                              admission=AdmissionConfig.static(32)),
        ingest_log=log_dir)


def query_ingredients(dataset, featurizer) -> list:
    vocab = featurizer.ingredient_vocab
    names = []
    for recipe in dataset.split("train"):
        for name in recipe.ingredients:
            if name.replace(" ", "_") in vocab and name not in names:
                names.append(name)
            if len(names) >= 2:
                return names
    return names


def one_request(port, method, path, body, headers):
    """Returns ``(kind, status, body)``; kind judges completeness."""
    base = {"Connection": "close"}
    base.update(headers)
    raw = None
    if body is not None:
        raw = json.dumps(body).encode()
        base["Content-Type"] = "application/json"
    try:
        conn = http.client.HTTPConnection(HOST, port, timeout=10.0)
        conn.request(method, path, body=raw, headers=base)
        reply = conn.getresponse()
        data = reply.read()
        conn.close()
    except OSError:
        return "refused", None, None  # nothing accepted: clean refusal
    except http.client.HTTPException:
        return "broken", None, None   # accepted then reset: violation
    try:
        return "complete", reply.status, json.loads(data)
    except ValueError:
        return "broken", reply.status, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--duration", type=float, default=2.0,
                        help="seconds of load before SIGTERM")
    parser.add_argument("--rate", type=float, default=40.0,
                        help="per-tenant offered load, requests/second")
    args = parser.parse_args()

    dataset, featurizer = build_world()
    log_dir = pathlib.Path(tempfile.mkdtemp(prefix="gateway-demo-"))
    ingredients = query_ingredients(dataset, featurizer)
    train_recipes = list(dataset.split("train"))

    print("=== 1. boot: gateway over the resilient service ===")
    service = build_service(dataset, featurizer, log_dir)
    gateway = Gateway(service, GatewayConfig(
        api_keys=API_KEYS, max_connections=128,
        cache=CacheConfig(ttl_s=60.0)))
    gateway.start()
    gateway.install_signal_handlers()
    port = gateway.port
    print(f"listening on {gateway.url}  tenants: "
          f"{sorted(API_KEYS.values())}  WAL: {log_dir}")

    print(f"\n=== 2. mixed-tenant load ({args.rate:g} rps/tenant) ===")
    outcomes = Counter()
    statuses = Counter()
    acked_ingests = []
    lock = threading.Lock()
    stop = threading.Event()

    def search_client(key, criticality):
        while not stop.is_set():
            kind, status, _ = one_request(
                port, "POST", "/search",
                {"ingredients": ingredients, "k": 3},
                {"X-Api-Key": key, "X-Criticality": criticality,
                 "X-Deadline-Ms": "1500"})
            with lock:
                outcomes[kind] += 1
                if status is not None:
                    statuses[status] += 1
            if kind == "refused":
                return  # listener is gone: drain reached the wire
            time.sleep(1.0 / args.rate)

    def ingest_client():
        for i, recipe in enumerate(train_recipes):
            if stop.is_set():
                return
            kind, status, body = one_request(
                port, "POST", "/ingest",
                {"recipe": recipe_to_payload(recipe)},
                {"X-Api-Key": "sk-batch"})
            with lock:
                outcomes[kind] += 1
                if status is not None:
                    statuses[status] += 1
                if kind == "complete" and status == 200 \
                        and body.get("durable"):
                    acked_ingests.append(body["item_id"])
            time.sleep(1.0 / args.rate)

    clients = [
        threading.Thread(target=search_client,
                         args=("sk-mobile", "user")),
        threading.Thread(target=search_client,
                         args=("sk-batch", "background")),
        threading.Thread(target=ingest_client),
    ]
    for thread in clients:
        thread.start()
    time.sleep(args.duration)

    print(f"\n=== 3. SIGTERM mid-load ===")
    drain_started = time.monotonic()
    os.kill(os.getpid(), signal.SIGTERM)
    gateway.wait_drained(timeout=15.0)
    drain_ms = (time.monotonic() - drain_started) * 1000.0
    stop.set()
    for thread in clients:
        thread.join(timeout=5.0)
    gateway.restore_signal_handlers()

    print(f"drained in {drain_ms:.0f}ms "
          f"(reason: {gateway.describe()['drain_reason']})")
    total = sum(outcomes.values())
    print(f"requests: {total} total  "
          + "  ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
    print("statuses: " + "  ".join(
        f"{code}={count}" for code, count in sorted(statuses.items())))
    print(f"acked ingests before drain: {len(acked_ingests)}")
    dropped = outcomes["broken"]
    print(f"dropped in-flight responses: {dropped} "
          + ("(drain contract held)" if dropped == 0
             else "(DRAIN CONTRACT VIOLATED)"))

    print("\n=== 4. crash-only restart: WAL recovery ===")
    revived = build_service(dataset, featurizer, log_dir)
    recovery = revived.ingestor.recovery
    recovered = [item for item in acked_ingests
                 if item in revived.ingestor.payloads]
    print(f"replayed {recovery['replayed_records']} WAL records  "
          f"truncated {recovery['truncated_bytes']} torn bytes")
    print(f"acked ingests recovered: {len(recovered)}"
          f"/{len(acked_ingests)}")
    response = revived.search_by_ingredients(ingredients, k=3)
    print(f"first post-restart search: {response.outcome.status} "
          f"({len(response.results)} results, "
          f"generation {response.generation})")

    ok = (dropped == 0 and len(recovered) == len(acked_ingests)
          and response.ok)
    print("\n" + ("demo PASSED: zero dropped responses, zero lost "
                  "acked ingests" if ok else "demo FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
