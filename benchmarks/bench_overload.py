"""Overload benchmarks: goodput vs offered load, static vs adaptive.

The admission plane's value proposition is a single curve: as offered
load climbs past capacity (1× → 3× → 10×), a static inflight cap lets
congestion drag every request past its deadline, while adaptive
admission (AIMD limit + fair queue + brownout ladder) sheds the
excess and keeps clearing work.  Each scenario drives the same
open-loop storm through the same service build, differing only in the
admission configuration; the embed stage slows with concurrency
(:class:`~repro.robustness.faults.SlowEmbedUnderLoad`) so overload
actually degrades the backend instead of just queueing.

Headline numbers land in ``BENCH_overload.json`` via the
``bench_record_overload`` fixture (see ``conftest.py``):
``goodput_{mode}_{factor}x`` in requests/second, plus the 10×
adaptive/static ratio as the single figure of merit.
"""

import numpy as np

from repro.core import RecipeSearchEngine
from repro.data import DatasetConfig, RecipeFeaturizer, generate_dataset
from repro.robustness.faults import OverloadStorm, SlowEmbedUnderLoad
from repro.serving import (AdmissionConfig, BrownoutConfig,
                           LoadGenerator, ResilientSearchService,
                           RetryPolicy, ServiceConfig, TenantLoad)

BASE_RATE = 25.0
DURATION_S = 1.2
DEADLINE_S = 0.12
FACTORS = (1.0, 3.0, 10.0)


class _Embedded:
    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data


class _StubModel:
    """Training-free embedder so the benchmark measures the admission
    plane, not a model forward pass."""

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


def _make_service(engine, adaptive: bool) -> ResilientSearchService:
    admission = AdmissionConfig.static(8)
    if adaptive:
        admission = AdmissionConfig(
            initial_limit=8, min_limit=2, max_limit=16,
            target_p95_s=0.08, evaluate_every=8, latency_window=64,
            max_queue_depth=64,
            brownout=BrownoutConfig(dwell_s=0.05, release_dwell_s=0.1))
    box = []
    fault = SlowEmbedUnderLoad(
        lambda: box[0].admission.inflight if box else 0,
        delay_per_inflight_s=0.02)
    service = ResilientSearchService(
        engine,
        ServiceConfig(deadline=DEADLINE_S, admission=admission,
                      retry=RetryPolicy(max_attempts=2,
                                        base_delay=0.001, jitter=0.0)),
        faults=fault)
    box.append(service)
    return service


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


def _goodput(engine, adaptive: bool, factor: float) -> float:
    service = _make_service(engine, adaptive)
    query = _query_ingredients(engine)

    def request_fn(tenant, criticality):
        return service.search_by_ingredients(query, k=5, tenant=tenant,
                                             criticality=criticality)

    shapers = ([OverloadStorm(factor, start_s=0.1)]
               if factor != 1.0 else [])
    report = LoadGenerator(request_fn, [TenantLoad("user", BASE_RATE)],
                           duration_s=DURATION_S,
                           shapers=shapers).run()
    return report.goodput()


def test_bench_goodput_vs_offered_load(benchmark,
                                       bench_record_overload):
    """Headline: adaptive/static goodput ratio under the 10× storm."""
    engine = _build_engine()
    results = {}

    def run_curve():
        for adaptive in (False, True):
            mode = "adaptive" if adaptive else "static"
            for factor in FACTORS:
                results[(mode, factor)] = _goodput(engine, adaptive,
                                                   factor)
        return results

    benchmark.pedantic(run_curve, rounds=1, iterations=1)
    for (mode, factor), goodput in results.items():
        bench_record_overload(
            goodput, None, name=f"goodput_{mode}_{factor:g}x")
    ratio = (results[("adaptive", 10.0)]
             / max(results[("static", 10.0)], 1e-9))
    print("\ngoodput (req/s): " + "  ".join(
        f"{mode}@{factor:g}x={results[(mode, factor)]:.1f}"
        for mode in ("static", "adaptive") for factor in FACTORS))
    print(f"adaptive/static at 10x: {ratio:.2f}")
    bench_record_overload(ratio, None,
                          name="adaptive_over_static_10x")
    assert ratio > 1.0
