"""Surviving a 10x traffic storm: brownout, fairness, and recovery.

Stands up the resilient search service with the adaptive admission
plane (AIMD concurrency limit + per-tenant fair queue + brownout
degradation ladder) and drives it with an open-loop load generator.
Two tenants share the box — an interactive "mobile" tenant and a
low-priority "batch" crawler — and the embed stage slows down with
concurrency, so overload genuinely degrades the backend instead of
just queueing politely.

Midway through, offered load spikes to 10x capacity.  The demo then
shows the whole overload story: the AIMD limiter walks the
concurrency cap down to the knee, the brownout ladder engages step by
step (smaller k -> model-free degraded mode -> shed
background traffic), excess work is shed with per-tenant accounting
instead of timing out, and once the storm passes the ladder walks
back down and a fresh request is answered at full quality.

    python examples/overload_demo.py [--factor N] [--duration S]

No training runs: the demo uses a deterministic histogram embedder,
so it finishes in a few seconds of (real-time) load generation.
"""

import argparse
import time

import numpy as np

from repro.core.engine import RecipeSearchEngine
from repro.data import DatasetConfig, RecipeFeaturizer, generate_dataset
from repro.obs import Telemetry
from repro.robustness.faults import OverloadStorm, SlowEmbedUnderLoad
from repro.serving import (AdmissionConfig, BrownoutConfig, LoadGenerator,
                           ResilientSearchService, RetryPolicy,
                           ServiceConfig, TenantLoad, TenantPolicy)


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


def build_engine() -> RecipeSearchEngine:
    dataset = generate_dataset(DatasetConfig(
        num_pairs=80, num_classes=4, image_size=8, seed=7))
    featurizer = RecipeFeaturizer(word_dim=8, sentence_dim=8).fit(dataset)
    corpus = featurizer.encode_split(dataset, "test")
    return RecipeSearchEngine(_StubModel(), featurizer, dataset, corpus)


def build_service(engine) -> ResilientSearchService:
    admission = AdmissionConfig(
        tenants=(TenantPolicy("mobile", weight=2.0),
                 TenantPolicy("batch", weight=1.0,
                              criticality="background")),
        initial_limit=8, min_limit=2, max_limit=16,
        target_p95_s=0.08, evaluate_every=8, latency_window=64,
        max_queue_depth=64,
        brownout=BrownoutConfig(engage_pressure=1.5,
                                release_pressure=0.8,
                                dwell_s=0.05, release_dwell_s=0.1))
    # Congestion-collapse coupling: every request holding a slot makes
    # the embed stage slower for everyone, so the "right" concurrency
    # is something the limiter has to discover, not a constant.
    box = []
    fault = SlowEmbedUnderLoad(
        lambda: box[0].admission.inflight if box else 0,
        delay_per_inflight_s=0.02)
    service = ResilientSearchService(
        engine,
        ServiceConfig(deadline=0.12, admission=admission,
                      retry=RetryPolicy(max_attempts=2,
                                        base_delay=0.001, jitter=0.0)),
        telemetry=Telemetry(), faults=fault)
    box.append(service)
    return service


def known_ingredients(engine) -> list:
    vocab = engine.featurizer.ingredient_vocab
    names = []
    for recipe in engine.dataset.split("train"):
        for name in recipe.ingredients:
            if name.replace(" ", "_") in vocab and name not in names:
                names.append(name)
            if len(names) >= 2:
                return names
    return names


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--factor", type=float, default=10.0,
                        help="storm multiplier over base load")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="total load-generation window (seconds)")
    args = parser.parse_args(argv)

    print("building corpus and adaptive service ...")
    engine = build_engine()
    service = build_service(engine)
    query = known_ingredients(engine)
    storm_start = args.duration * 0.1
    storm_end = args.duration * 0.5

    def request_fn(tenant, criticality):
        return service.search_by_ingredients(
            query, k=5, tenant=tenant, criticality=criticality)

    print(f"\n== {args.factor:g}x storm "
          f"(t={storm_start:.1f}s..{storm_end:.1f}s of "
          f"{args.duration:.1f}s; embed slows with concurrency) ==")
    report = LoadGenerator(
        request_fn,
        [TenantLoad("mobile", 25.0),
         TenantLoad("batch", 8.0, criticality="background")],
        duration_s=args.duration,
        shapers=[OverloadStorm(args.factor, start_s=storm_start,
                               end_s=storm_end)]).run()

    print("\nper-tenant goodput:")
    print(report.render())

    print("\nbrownout ladder transitions:")
    records = service.telemetry.events.of_type("brownout")
    if not records:
        print("  (ladder never engaged — try a bigger --factor)")
    for record in records:
        arrow = "+" if record["direction"] == "engage" else "-"
        print(f"  [{arrow}] {record['direction']:<7} "
              f"{record['step']:<15} -> level {record['level']}")

    snapshot = service.admission.snapshot()
    print(f"\nAIMD concurrency limit after the storm: "
          f"{snapshot['limit']:.1f} (started at 8)")

    # Recovery: a post-storm trickle keeps feeding cool observations so
    # the ladder can walk back down (each release step has a dwell).
    print("\n== recovery ==")
    deadline = time.monotonic() + 5.0
    while (service.admission.snapshot()["brownout_level"] > 0
           and time.monotonic() < deadline):
        service.search_by_ingredients(query, k=5, tenant="mobile")
        time.sleep(0.05)
    level = service.admission.snapshot()["brownout_level"]
    print(f"brownout level after cool-down: {level}")

    response = service.search_by_ingredients(query, k=3, tenant="mobile")
    print(f"post-storm request: status={response.outcome.status}, "
          f"{len(response.results)} results at full quality")
    shed = {t.tenant: t.shed for t in report.tenants.values()}
    print(f"requests shed during the storm, charged per tenant: {shed}")
    print("\nthe service never fell over: excess load was shed with "
          "per-tenant accounting,\nquality degraded one rung at a "
          "time, and full quality came back on its own.")


if __name__ == "__main__":
    main()
