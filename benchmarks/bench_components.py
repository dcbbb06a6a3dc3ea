"""Micro-benchmarks of the substrate components.

These time the hot paths of the reproduction — batch embedding, the
triplet losses + adaptive mining, the retrieval protocol, the dish
renderer, and the recurrent encoders — so performance regressions in
the substrate are caught independently of the experiment results.

Each test reports its headline number through ``bench_record`` (see
``conftest.py``), which exports ``BENCH_components.json`` at session
end via the obs JSON exposition.  The quality-observability overheads
(golden-probe replay, drift-sketch updates, alert evaluation) report
through ``bench_record_serving`` instead and land in
``BENCH_serving.json``.
"""

import itertools
import time

import numpy as np
import pytest

from repro.autograd import Tensor, l2_normalize, no_grad
from repro.core import (ImageBranch, JointEmbeddingModel, RecipeBranch,
                        instance_triplet_loss, semantic_triplet_loss)
from repro.core.engine import RecipeSearchEngine
from repro.data import (ClassTaxonomy, DatasetConfig, DishRenderer,
                        IngredientLexicon, RecipeFeaturizer,
                        generate_dataset)
from repro.data.encoding import EncodedCorpus
from repro.nn import BiLSTM, Conv2d, LSTM
from repro.obs import (AlertManager, BurnRateWindow, GoldenProbe,
                       GoldenSet, MetricsRegistry, QuantileSketch,
                       default_serving_slos)
from repro.retrieval import RetrievalProtocol
from repro.retrieval.index import NearestNeighborIndex
from repro.serving import (ClusterConfig, DegradedRanker,
                           ResilientSearchService, ServiceConfig)
from repro.vision import MLPEncoder


RNG = lambda seed=0: np.random.default_rng(seed)


def test_bench_instance_triplet_loss(benchmark, bench_record):
    rng = RNG(0)
    img = l2_normalize(Tensor(rng.normal(size=(100, 32)),
                              requires_grad=True))
    rec = l2_normalize(Tensor(rng.normal(size=(100, 32)),
                              requires_grad=True))

    def step():
        out = instance_triplet_loss(img, rec, strategy="adaptive")
        return out.beta_prime

    beta_prime = benchmark(step)
    bench_record(beta_prime, benchmark)


def test_bench_semantic_triplet_loss(benchmark, bench_record):
    rng = RNG(1)
    img = l2_normalize(Tensor(rng.normal(size=(100, 32))))
    rec = l2_normalize(Tensor(rng.normal(size=(100, 32))))
    labels = rng.integers(-1, 10, size=100)

    def step():
        out = semantic_triplet_loss(img, rec, labels, rng=RNG(2))
        return out.num_triplets

    triplets = benchmark(step)
    bench_record(triplets, benchmark)


def test_bench_loss_backward(benchmark, bench_record):
    rng = RNG(2)
    raw_img = rng.normal(size=(100, 32))
    raw_rec = rng.normal(size=(100, 32))  # unaligned -> many violations

    def step():
        img = Tensor(raw_img, requires_grad=True)
        rec = Tensor(raw_rec, requires_grad=True)
        out = instance_triplet_loss(l2_normalize(img), l2_normalize(rec))
        out.loss.backward()
        return float(img.grad.sum())

    grad_sum = benchmark(step)
    bench_record(grad_sum, benchmark)


def test_bench_retrieval_protocol_1k(benchmark, bench_record):
    rng = RNG(3)
    img = rng.normal(size=(2000, 32))
    rec = img + rng.normal(0, 0.5, size=img.shape)
    protocol = RetrievalProtocol(bag_size=1000, num_bags=10, seed=0)
    result = benchmark(protocol.evaluate, img, rec)
    assert result.medr() >= 1.0
    bench_record(result.medr(), benchmark)


def test_bench_index_query_loop(benchmark, bench_record):
    """Baseline for the batched path: one ``query`` call per vector."""
    rng = RNG(8)
    index = NearestNeighborIndex(rng.normal(size=(2000, 32)))
    vectors = rng.normal(size=(64, 32))

    def step():
        return sum(len(index.query(v, k=10)[0]) for v in vectors)

    total = benchmark(step)
    assert total == 64 * 10
    bench_record(float(total), benchmark)


def test_bench_index_query_batch(benchmark, bench_record):
    """The vectorized path: all 64 queries in one matmul, then the
    shared top-k selection per row.  Must beat the loop above by a wide
    margin (the drift monitor's reference build rides on it)."""
    rng = RNG(8)
    index = NearestNeighborIndex(rng.normal(size=(2000, 32)))
    vectors = rng.normal(size=(64, 32))

    ids, distances = benchmark(index.query_batch, vectors, 10)
    assert ids.shape == (64, 10) and distances.shape == (64, 10)
    bench_record(float(distances[:, 0].mean()), benchmark)


def test_bench_dish_renderer(benchmark, bench_record):
    lexicon = IngredientLexicon()
    taxonomy = ClassTaxonomy(16, lexicon)
    renderer = DishRenderer(size=24)
    ingredients = [lexicon[name] for name in taxonomy[0].core]
    rng = RNG(4)
    image = benchmark(renderer.render, taxonomy[0], ingredients, rng)
    assert image.shape == (3, 24, 24)
    bench_record(float(image.mean()), benchmark)


def test_bench_bilstm_forward(benchmark, bench_record):
    rng = RNG(5)
    encoder = BiLSTM(16, 16, rng)
    x = Tensor(rng.normal(size=(50, 10, 16)))
    lengths = rng.integers(3, 11, size=50)
    out = benchmark(encoder, x, lengths)
    assert out.shape == (50, 32)
    bench_record(float(np.abs(out.data).mean()), benchmark)


def _wire_sized_recipes(batch: int):
    """A seeded recipe branch at the wire model's sizes (125 ingredient
    words of dim 24, 12 ingredients, 8 sentences of dim 24, hidden 16,
    latent 32) and a padded batch of inputs for it."""
    rng = RNG(8)
    vectors = rng.normal(size=(125, 24))
    branch = RecipeBranch(vectors, sentence_dim=24, latent_dim=32, rng=rng)
    model = JointEmbeddingModel(
        ImageBranch(MLPEncoder(rng, image_size=8, feature_dim=32), 32, rng),
        branch).eval()
    n_ing = rng.integers(1, 13, size=batch)
    ids = rng.integers(1, 125, size=(batch, 12))
    ids[np.arange(12)[None, :] >= n_ing[:, None]] = 0
    n_sent = rng.integers(1, 9, size=batch)
    sentences = rng.normal(size=(batch, 8, 24))
    return model, (ids, n_ing, sentences, n_sent)


@pytest.mark.parametrize("batch", [1, 256])
def test_bench_embed_recipes_no_grad(benchmark, bench_record, batch):
    """The served recipe embed: ``embed_recipes`` with grad off, which
    runs the plain-numpy ``infer``.  It must equal the autograd forward
    bit for bit, and the autograd forward's time (grad off) is recorded
    beside it."""
    model, args = _wire_sized_recipes(batch)

    def autograd():
        return l2_normalize(model.recipe_branch(*args))

    def served():
        with no_grad():
            return model.embed_recipes(*args)

    def per_call_ms(fn) -> float:
        repeats = 20 * max(1, 256 // batch)
        with no_grad():
            started = time.perf_counter()
            for _ in range(repeats):
                fn()
        return (time.perf_counter() - started) / repeats * 1e3

    out = benchmark(served)
    assert out.data.tobytes() == autograd().data.tobytes()
    bench_record(per_call_ms(autograd),
                 name=f"embed_recipes_autograd_b{batch}")
    bench_record(per_call_ms(served), benchmark,
                 name=f"embed_recipes_no_grad_b{batch}")


def test_bench_lstm_forward_backward(benchmark, bench_record):
    rng = RNG(6)
    encoder = LSTM(16, 16, rng)
    raw = rng.normal(size=(50, 8, 16))
    lengths = np.full(50, 8)

    def step():
        x = Tensor(raw, requires_grad=True)
        __, final = encoder(x, lengths)
        final.sum().backward()
        return x.grad is not None

    assert benchmark(step)
    bench_record(1.0, benchmark)


def test_bench_conv2d_forward(benchmark, bench_record):
    rng = RNG(7)
    conv = Conv2d(3, 16, 3, rng, padding=1)
    images = Tensor(rng.normal(size=(32, 3, 24, 24)))
    out = benchmark(conv, images)
    assert out.shape == (32, 16, 24, 24)
    bench_record(float(np.abs(out.data).mean()), benchmark)


# ----------------------------------------------------------------------
# Degraded-mode lexical fallback at the scan-50k shape
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiled_50k():
    """240 distinct recipes tiled over a 50k-row corpus — many dish
    rows per recipe payload, as in ``perfbench``'s ``scan-50k``.  Only
    the arrays the ranker reads are real; the rest are zero-stride."""
    dataset = generate_dataset(DatasetConfig(
        num_pairs=240, num_classes=8, image_size=8, seed=1))
    rows = RNG(9).integers(0, len(dataset), size=50_000)
    classes = np.array([r.true_class_id for r in dataset.recipes])[rows]

    def zeros(*shape):
        return np.broadcast_to(np.zeros(shape[1:]), shape)

    n = len(rows)
    corpus = EncodedCorpus(
        ingredient_ids=zeros(n, 1), ingredient_lengths=zeros(n),
        sentence_vectors=zeros(n, 1, 1), sentence_lengths=zeros(n),
        images=zeros(n, 3, 1, 1), class_ids=classes,
        true_class_ids=classes, recipe_indices=rows)
    return dataset, corpus


def _reference_top10(dataset, corpus, names):
    """The per-row set loop the incidence matrix replaced."""
    query = {name.lower() for name in names}
    scores = np.zeros(len(corpus))
    for row, index in enumerate(corpus.recipe_indices):
        pool = {name.lower() for name in dataset[int(index)].ingredients}
        if query and pool:
            overlap = len(query & pool)
            if overlap:
                scores[row] = overlap / len(query | pool)
    order = np.argsort(-scores, kind="stable")[:10]
    return order, 1.0 - scores[order]


def test_bench_degraded_build_50k(benchmark, bench_record, tiled_50k):
    """Boot cost of the fallback: one tokenize per distinct recipe."""
    ranker = benchmark(DegradedRanker, *tiled_50k)
    assert len(ranker) == 50_000
    bench_record(float(len(ranker)), benchmark)


def test_bench_degraded_rank_ingredients_50k(benchmark, bench_record,
                                             tiled_50k):
    """One brownout fridge search: a sparse mat-vec over the distinct
    recipes, a gather to 50k rows and the shared top-k selection."""
    dataset, corpus = tiled_50k
    ranker = DegradedRanker(dataset, corpus)
    names = list(dataset[0].ingredients[:3]) + ["vibranium"]
    rows, distances = benchmark(ranker.rank_ingredients, names, 10)
    want_rows, want_distances = _reference_top10(dataset, corpus, names)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(distances.view(np.int64),
                          want_distances.view(np.int64))
    bench_record(float(distances[0]), benchmark)


# ----------------------------------------------------------------------
# The serving stack's fixed cost per search
# ----------------------------------------------------------------------
def _wire_world():
    """``wire-model-2k``'s engine: untrained AdaMine over 2k pairs."""
    from perfbench import inputs

    wire = inputs.wire_inputs(1)
    dataset = inputs.wire_dataset(1)
    corpus = wire.featurizer.encode_corpus(dataset,
                                           np.arange(len(dataset)))
    engine = RecipeSearchEngine(
        inputs.wire_model(wire.featurizer, dataset, 1), wire.featurizer,
        dataset, corpus)
    queries = [request["ingredients"] for request in wire.requests
               if "ingredients" in request]
    return engine, ServiceConfig(deadline=5.0), queries


def _fanout_world():
    """``fanout-write-20k``'s 20k stub rows behind a 4x2 cluster."""
    from perfbench import inputs

    stub = inputs.stub_inputs(1, 20_000)
    ids = np.arange(len(stub.image_rows))
    indexes = tuple(
        NearestNeighborIndex(rows, ids=ids,
                             class_ids=stub.corpus.true_class_ids)
        for rows in (stub.image_rows, stub.recipe_rows))
    engine = RecipeSearchEngine(stub.embedder, stub.featurizer,
                                stub.dataset, stub.corpus,
                                indexes=indexes)
    return engine, ServiceConfig(
        deadline=5.0, cluster=ClusterConfig(num_shards=4,
                                            replication=2)), stub.queries


@pytest.mark.parametrize("world", ["wire", "fanout"])
def test_bench_served_search_overhead(benchmark, bench_record, world):
    """A served ingredient search against the bare engine call it
    wraps, on the same queries: the difference is what admission,
    spans, metrics, the cluster and the outcome record cost per
    request.  Rows must agree and distances match bit for bit; the two
    are timed call by call, interleaved, and their medians recorded."""
    engine, config, queries = {"wire": _wire_world,
                               "fanout": _fanout_world}[world]()
    queries = queries[:64]
    service = ResilientSearchService(engine, config)
    for query in queries:
        served = service.search_by_ingredients(query, k=10).results
        bare = engine.search_by_ingredients(query, k=10)
        assert [r.corpus_row for r in served] == [r.corpus_row
                                                   for r in bare]
        assert np.array_equal(
            np.array([r.distance for r in served]).view(np.int64),
            np.array([r.distance for r in bare]).view(np.int64))
    times = {"served": [], "bare": []}
    calls = {"served": service.search_by_ingredients,
             "bare": engine.search_by_ingredients}
    for round_ in range(600 if world == "wire" else 150):
        query = queries[round_ % len(queries)]
        for name, call in calls.items():
            started = time.perf_counter()
            call(query, k=10)
            times[name].append(time.perf_counter() - started)
    served_ms = float(np.median(times["served"])) * 1e3
    bare_ms = float(np.median(times["bare"])) * 1e3
    cycle = itertools.cycle(queries)
    benchmark(lambda: service.search_by_ingredients(next(cycle), k=10))
    bench_record(bare_ms, name=f"bare_search_{world}_ms")
    bench_record(served_ms, name=f"served_search_{world}_ms")
    bench_record(served_ms - bare_ms, benchmark,
                 name=f"served_overhead_{world}_ms")


# ----------------------------------------------------------------------
# Quality-observability overheads -> BENCH_serving.json
# ----------------------------------------------------------------------
class _Embedded:
    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data


class _StubModel:
    """Training-free embedder (normalized ingredient-id histograms) so
    the serving benchmarks measure observability cost, not a model."""

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


def _stub_service() -> ResilientSearchService:
    dataset = generate_dataset(DatasetConfig(
        num_pairs=60, num_classes=4, image_size=8, seed=7))
    featurizer = RecipeFeaturizer(word_dim=8, sentence_dim=8).fit(dataset)
    corpus = featurizer.encode_split(dataset, "test")
    engine = RecipeSearchEngine(_StubModel(), featurizer, dataset, corpus)
    return ResilientSearchService(engine, ServiceConfig(deadline=5.0))


def test_bench_drift_sketch_update(benchmark, bench_record_serving):
    """Cost of folding one batch of live values into a drift sketch."""
    rng = RNG(9)
    values = rng.uniform(0.0, 2.0, size=10_000)
    sketch = QuantileSketch(0.0, 2.0, bins=32)

    def step():
        sketch.update_many(values)
        return sketch.total

    total = benchmark(step)
    assert total >= len(values)
    bench_record_serving(float(len(values)), benchmark)


def test_bench_alert_evaluation(benchmark, bench_record_serving):
    """One burn-rate evaluation pass over the default serving SLOs."""
    registry = MetricsRegistry()
    requests = registry.counter("serving_requests_total",
                                labels=("status",))
    stage = registry.histogram("serving_stage_seconds",
                               labels=("stage",))
    registry.gauge("probe_online_medr").set(2.0)
    registry.gauge("drift_score", labels=("signal",)).labels(
        signal="embedding_norm").set(0.05)
    now = [0.0]
    manager = AlertManager(
        registry, default_serving_slos(),
        windows=(BurnRateWindow("page", 300.0, 3600.0, 14.4),),
        clock=lambda: now[0])

    def step():
        now[0] += 1.0
        requests.labels(status="ok").inc(50)
        requests.labels(status="error").inc()
        stage.labels(stage="index").observe(0.01)
        return len(manager.evaluate()) + len(manager.alerts)

    slos = benchmark(step)
    assert slos >= 4
    bench_record_serving(float(len(manager.alerts)), benchmark)


def test_bench_probe_overhead(benchmark, bench_record_serving):
    """Full golden-probe replay (16 queries) through the live serving
    path — the per-interval cost the probe adds to a running service."""
    service = _stub_service()
    golden = GoldenSet.from_engine(service.engine, size=16, seed=0)
    probe = GoldenProbe(service, golden,
                        registry=service.telemetry.registry,
                        events=service.telemetry.events)
    probe.attach()
    metrics = benchmark(probe.run)
    assert metrics.medr >= 1.0
    bench_record_serving(metrics.medr, benchmark)
