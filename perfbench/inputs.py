"""Seeded inputs and op streams: the same seed gives the same inputs.

Input generation is untimed and never counted in ``setup_s``.  The
slow, seed-determined parts (featurizer fits, the wire workload's
reference answers) are cached under ``.bench_cache/`` in the working
directory, keyed by the seed and by a digest of the program's source
and of the files that build them: inputs are only ever served to, and
checked against, the code that built them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import pathlib
import pickle
from dataclasses import dataclass

import numpy as np

from repro.core.engine import RecipeSearchEngine
from repro.core.scenarios import build_scenario
from repro.data import DatasetConfig, RecipeFeaturizer, generate_dataset
from repro.data.encoding import EncodedCorpus
from repro.data.schema import Recipe

from .oracle import Reference, normalize

CACHE_DIR = pathlib.Path(".bench_cache")
HERE = pathlib.Path(__file__).resolve().parent
DIM = 32          # the served latent width
K = 10
QUERY_POOL = 256  # pooled ingredient queries of the stub workloads
STREAM_POOL = 1600
WIRE_PAIRS = 2000
WIRE_HOT = 32
WIRE_COLD = 1536
WIRE_WARM = 64


def _seed(seed: int) -> int:
    return int(seed) % (2 ** 32)


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """Digest of every source file an input is built from: the
    program's package and this module with the reference it uses."""
    import repro
    package = pathlib.Path(repro.__file__).resolve().parent
    files = sorted(package.rglob("*.py")) + [HERE / "inputs.py",
                                               HERE / "oracle.py"]
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(HERE.parent).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cached(name: str, seed: int, build):
    """``build()``, pickled under the cache directory by seed and
    :func:`source_digest` (written to a temporary name and renamed, so
    a cache file is never torn)."""
    path = CACHE_DIR / f"{name}-{_seed(seed)}-{source_digest()}.pkl"
    if path.exists():
        with open(path, "rb") as handle:
            return pickle.load(handle)
    value = build()
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)
    return value


# ----------------------------------------------------------------------
# Training-free stub embedder (the in-process workloads)
# ----------------------------------------------------------------------
class _Embedded:
    __slots__ = ("data",)

    def __init__(self, data):
        self.data = data


class StubEmbedder:
    """Position-weighted sum of seeded per-ingredient vectors.

    Stands in for the model so the in-process workloads measure the
    serving path, not a forward pass.  Distinct ingredient sequences
    map to distinct vectors, so streamed items never tie.
    """

    def __init__(self, vocab_size: int, max_len: int, seed: int):
        rng = np.random.default_rng([_seed(seed), 7])
        self.table = rng.standard_normal((vocab_size, DIM))
        self.weights = 1.0 + np.arange(max_len) / max_len

    def vectors(self, ids, lengths) -> np.ndarray:
        ids, lengths = np.asarray(ids), np.asarray(lengths)
        out = np.empty((len(ids), DIM))
        for row in range(len(ids)):
            n = max(int(lengths[row]), 1)
            out[row] = self.weights[:n] @ self.table[ids[row, :n]]
        return out

    def embed_recipes(self, ingredient_ids, ingredient_lengths,
                      sentence_vectors, sentence_lengths) -> _Embedded:
        return _Embedded(self.vectors(ingredient_ids, ingredient_lengths))


@dataclass
class StubInputs:
    """Everything a stub workload boots from, plus its reference."""

    dataset: object
    featurizer: RecipeFeaturizer
    embedder: StubEmbedder
    corpus: EncodedCorpus
    image_rows: np.ndarray
    recipe_rows: np.ndarray
    queries: list
    reference: Reference
    streamed: list | None = None          # recipes to ingest
    streamed_rows: np.ndarray | None = None  # their unit vectors


def _payload(seed: int):
    """A small dataset + featurizer: recipe payloads for
    materialization and ingest, and the vocabulary queries use."""
    def build():
        dataset = generate_dataset(DatasetConfig(
            num_pairs=240, num_classes=8, image_size=8, seed=_seed(seed)))
        featurizer = RecipeFeaturizer(word_dim=8, sentence_dim=8,
                                      seed=_seed(seed)).fit(dataset)
        return dataset, featurizer
    return cached("payload", seed, build)


def _known_names(featurizer) -> list[str]:
    """Ingredient names whose canonical token is in the vocabulary."""
    names = []
    for token in featurizer.ingredient_vocab.tokens[2:]:
        name = token.replace("_", " ")
        if name.replace(" ", "_") == token:
            names.append(name)
    return names


def ingredient_queries(names: list[str], count: int,
                       rng: np.random.Generator, low: int = 1,
                       high: int = 4) -> list[list[str]]:
    """``count`` distinct ingredient lists of ``low..high`` names."""
    seen, out = set(), []
    while len(out) < count:
        size = int(rng.integers(low, high + 1))
        pick = [names[i] for i in rng.choice(len(names), size,
                                             replace=False)]
        if frozenset(pick) not in seen:
            seen.add(frozenset(pick))
            out.append(pick)
    return out


def _query_vector(featurizer, embedder: StubEmbedder,
                  names: list[str]) -> np.ndarray:
    tokens = [name.replace(" ", "_") for name in names]
    ids = featurizer.ingredient_vocab.encode_padded(
        tokens, featurizer.max_ingredients)
    return embedder.vectors(ids[None], [len(tokens)])[0]


def _tiled_corpus(small: EncodedCorpus, rows: np.ndarray) -> EncodedCorpus:
    """An ``len(rows)``-row corpus whose payloads are small-dataset
    recipes.  Arrays the stub path never reads are zero-stride views."""
    n = len(rows)

    def first(array):
        return np.broadcast_to(array[:1], (n,) + array.shape[1:])

    return EncodedCorpus(
        ingredient_ids=small.ingredient_ids[rows],
        ingredient_lengths=small.ingredient_lengths[rows],
        sentence_vectors=first(small.sentence_vectors),
        sentence_lengths=first(small.sentence_lengths),
        images=first(small.images),
        class_ids=small.class_ids[rows],
        true_class_ids=small.true_class_ids[rows],
        recipe_indices=small.recipe_indices[rows])


def _streamed(dataset, featurizer, embedder, names, rng
              ) -> tuple[list[Recipe], np.ndarray]:
    """Distinct new recipes for the write stream, with unit vectors."""
    recipes, rows, seen = [], [], set()
    while len(recipes) < STREAM_POOL:
        template = dataset[int(rng.integers(len(dataset)))]
        size = int(rng.integers(3, 9))
        picked = [names[i] for i in rng.choice(len(names), size,
                                               replace=False)]
        recipe = Recipe(
            recipe_id=1_000_000 + len(recipes),
            title=f"streamed dish {len(recipes)}",
            class_id=template.class_id,
            true_class_id=template.true_class_id,
            ingredients=picked,
            instructions=list(template.instructions),
            image=template.image)
        ids, n_ing, _, _ = featurizer.encode_recipe(recipe)
        key = tuple(ids[:max(n_ing, 1)])
        if key in seen:
            continue
        seen.add(key)
        recipes.append(recipe)
        rows.append(embedder.vectors(ids[None], [max(n_ing, 1)])[0])
    return recipes, normalize(np.array(rows))


def stub_inputs(seed: int, rows: int, streamed: bool = False
                ) -> StubInputs:
    """Inputs of ``scan-50k`` (``rows=50_000``) or
    ``fanout-write-20k`` (``rows=20_000``, ``streamed=True``)."""
    dataset, featurizer = _payload(seed)
    embedder = StubEmbedder(len(featurizer.ingredient_vocab),
                            featurizer.max_ingredients, seed)
    rng = np.random.default_rng([_seed(seed), rows])
    small = featurizer.encode_corpus(dataset, np.arange(len(dataset)))
    corpus = _tiled_corpus(small, rng.integers(0, len(dataset), rows))
    image_rows = rng.standard_normal((rows, DIM))
    recipe_rows = rng.standard_normal((rows, DIM))
    names = _known_names(featurizer)
    queries = ingredient_queries(names, QUERY_POOL, rng)
    vectors = [_query_vector(featurizer, embedder, q) for q in queries]
    inputs = StubInputs(
        dataset=dataset, featurizer=featurizer, embedder=embedder,
        corpus=corpus, image_rows=image_rows, recipe_rows=recipe_rows,
        queries=queries, reference=Reference(image_rows, vectors, K))
    if streamed:
        inputs.streamed, inputs.streamed_rows = _streamed(
            dataset, featurizer, embedder, names, rng)
    return inputs


# ----------------------------------------------------------------------
# Wire workload: untrained AdaMine over a generated 2,000-pair dataset
# ----------------------------------------------------------------------
def wire_dataset(seed: int):
    """The served dataset.  Only 15% is the featurizer's train split,
    which keeps the fit short; the corpus is all of it."""
    return generate_dataset(DatasetConfig(
        num_pairs=WIRE_PAIRS, train_fraction=0.15, seed=_seed(seed)))


def wire_model(featurizer, dataset, seed: int):
    """Seeded, untrained AdaMine: a trained one's forward cost."""
    model, _ = build_scenario(
        "adamine", featurizer, num_classes=len(dataset.taxonomy),
        image_size=dataset[0].image.shape[-1], latent_dim=DIM,
        backbone="hist", seed=_seed(seed))
    return model


@dataclass
class WireInputs:
    featurizer: RecipeFeaturizer
    requests: list            # hot, then cold, then warm-up bodies
    reference: Reference


def wire_inputs(seed: int) -> WireInputs:
    """Featurizer, request pools and their exact top-10 answers."""
    def build():
        dataset = wire_dataset(seed)
        featurizer = RecipeFeaturizer(seed=_seed(seed)).fit(dataset)
        corpus = featurizer.encode_corpus(dataset,
                                          np.arange(len(dataset)))
        model = wire_model(featurizer, dataset, seed)
        image_rows, _ = model.encode_corpus(corpus)
        engine = RecipeSearchEngine(model, featurizer, dataset, corpus)
        rng = np.random.default_rng([_seed(seed), 3])
        total = WIRE_HOT + WIRE_COLD + WIRE_WARM
        lists = ingredient_queries(_known_names(featurizer), total // 2,
                                   rng, low=2, high=4)
        recipe_ids = rng.choice(len(dataset), total - len(lists),
                                replace=False)
        requests = ([{"ingredients": names, "k": K} for names in lists]
                    + [{"recipe_id": int(r), "k": K} for r in recipe_ids])
        order = rng.permutation(len(requests))
        requests = [requests[i] for i in order]
        vectors = [engine.embed_ingredients(r["ingredients"])
                   if "ingredients" in r
                   else engine.embed_recipe(dataset[r["recipe_id"]])
                   for r in requests]
        return WireInputs(featurizer, requests,
                          Reference(image_rows, vectors, K))
    return cached("wire", seed, build)


# ----------------------------------------------------------------------
# Op streams
# ----------------------------------------------------------------------
def _draws(seed: int, tag: int, high: int):
    rng = np.random.default_rng([_seed(seed), tag])
    while True:
        yield from (int(x) for x in rng.integers(0, high, 4096))


def scan_ops(seed: int):
    """``("search", query)`` forever."""
    for query in _draws(seed, 11, QUERY_POOL):
        yield ("search", query)


def fanout_ops(seed: int):
    """Four searches then one write, forever; writes alternate an add
    (of the next streamed recipe) and a delete (of the oldest one)."""
    queries = _draws(seed, 12, QUERY_POOL)
    for cycle in itertools.count():
        for _ in range(4):
            yield ("search", next(queries))
        yield ("add" if cycle % 2 == 0 else "delete", None)


def wire_ops(seed: int):
    """One request in four repeats one of the hot queries; the rest
    walk the cold pool in a seeded order (a cold query recurs only
    after every other one, long after the cache evicted it)."""
    rng = np.random.default_rng([_seed(seed), 13])
    cold = itertools.cycle(int(i) for i in
                           WIRE_HOT + rng.permutation(WIRE_COLD))
    while True:
        if rng.random() < 0.25:
            yield ("search", int(rng.integers(WIRE_HOT)))
        else:
            yield ("search", next(cold))


def wire_warmup_ops():
    """The warm-up requests, then the hot set (so hits start warm)."""
    for index in range(WIRE_HOT + WIRE_COLD,
                       WIRE_HOT + WIRE_COLD + WIRE_WARM):
        yield ("search", index)
    for index in range(WIRE_HOT):
        yield ("search", index)


OPS = {"scan-50k": scan_ops, "fanout-write-20k": fanout_ops,
       "wire-model-2k": wire_ops}
