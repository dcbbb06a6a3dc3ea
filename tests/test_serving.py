"""Unit tests for the resilient serving layer (fast, no chaos)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.encoding import EncodedCorpus
from repro.data.schema import Recipe
from repro.serving import (AdmissionConfig, CircuitBreaker, CircuitState,
                           Deadline, DeadlineExceeded, DegradedRanker,
                           ResilientSearchService, RetryPolicy,
                           ServiceConfig)
from repro.serving.cluster import ClusterConfig
from repro.text import tokenize

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.fixture(scope="module")
def engine(world):
    dataset, featurizer = world
    return make_engine(dataset, featurizer)


def make_service(engine, clock=None, **overrides):
    clock = clock or FakeClock()
    config = ServiceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
        **overrides)
    return ResilientSearchService(engine, config, clock=clock,
                                  sleep=clock.sleep,
                                  rng=random.Random(0)), clock


class TestDeadline:
    def test_drains_with_the_clock(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.sleep(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired
        clock.sleep(1.0)
        assert deadline.expired

    def test_check_raises_with_stage(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        deadline.check("embed")  # fine
        clock.sleep(2.0)
        with pytest.raises(DeadlineExceeded) as info:
            deadline.check("index")
        assert info.value.stage == "index"

    def test_clamp_bounds_sleeps(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.clamp(10.0) == pytest.approx(1.0)
        assert deadline.clamp(0.25) == pytest.approx(0.25)
        clock.sleep(5.0)
        assert deadline.clamp(0.25) == 0.0

    def test_sub_budget_fraction(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        child = deadline.sub(0.5)
        clock.sleep(0.9)
        assert not child.expired
        clock.sleep(0.2)
        assert child.expired
        assert not deadline.expired

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


class TestRetryPolicy:
    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.8)
        assert policy.delay(4) == pytest.approx(1.0)  # capped

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        rng = random.Random(3)
        for attempt in range(20):
            delay = policy.delay(0, rng)
            assert 0.1 <= delay <= 0.15

    def test_jitter_deterministic_with_seeded_rng(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        a = [policy.delay(i, random.Random(9)) for i in range(3)]
        b = [policy.delay(i, random.Random(9)) for i in range(3)]
        assert a == b


class TestCircuitBreaker:
    def make(self, clock):
        return CircuitBreaker("dep", failure_threshold=3,
                              reset_after=5.0, half_open_successes=2,
                              clock=clock)

    def test_trips_after_threshold(self):
        breaker = self.make(FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is CircuitState.CLOSED

    def test_half_open_after_cooloff_then_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.sleep(5.0)
        assert breaker.state is CircuitState.HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.transitions == [CircuitState.OPEN,
                                       CircuitState.HALF_OPEN,
                                       CircuitState.CLOSED]

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.sleep(5.0)
        assert breaker.state is CircuitState.HALF_OPEN
        breaker.record_failure()
        assert breaker.state is CircuitState.OPEN
        clock.sleep(4.0)  # cool-off restarted, not yet elapsed
        assert breaker.state is CircuitState.OPEN

    def test_reset_force_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        breaker.reset()
        assert breaker.state is CircuitState.CLOSED
        assert breaker.allow()


class TestDegradedRanker:
    @pytest.fixture(scope="class")
    def ranker(self, engine):
        return DegradedRanker(engine.dataset, engine.corpus)

    def test_ranks_recipes_containing_query_ingredient_first(
            self, ranker, engine):
        corpus = engine.corpus
        target = engine.dataset[int(corpus.recipe_indices[0])]
        query = list(target.ingredients[:3])
        rows, distances = ranker.rank_ingredients(query, k=len(ranker))
        top = engine.dataset[int(corpus.recipe_indices[int(rows[0])])]
        assert ({q.lower() for q in query}
                & {i.lower() for i in top.ingredients})
        assert list(distances) == sorted(distances)
        assert all(0.0 <= d <= 1.0 for d in distances)

    def test_class_filter_respected(self, ranker, engine):
        class_ids = engine.corpus.true_class_ids
        class_id = int(np.bincount(class_ids).argmax())
        rows, _ = ranker.rank_ingredients(["butter"], k=3,
                                          class_id=class_id)
        assert all(class_ids[row] == class_id for row in rows)

    def test_rank_default_is_deterministic(self, ranker):
        first = ranker.rank_default(k=4)
        second = ranker.rank_default(k=4)
        assert np.array_equal(first[0], second[0])
        assert np.all(first[1] == 1.0)

    def test_unknown_class_raises(self, ranker):
        with pytest.raises(ValueError):
            ranker.rank_ingredients(["butter"], k=3, class_id=999)


def _lexical_corpus(recipe_indices, class_ids) -> EncodedCorpus:
    """A corpus carrying only what the degraded ranker reads."""
    n = len(recipe_indices)
    zeros = np.zeros((n, 1), dtype=np.int64)
    return EncodedCorpus(
        ingredient_ids=zeros, ingredient_lengths=zeros[:, 0],
        sentence_vectors=np.zeros((n, 1, 1)), sentence_lengths=zeros[:, 0],
        images=np.zeros((n, 3, 1, 1)), class_ids=np.asarray(class_ids),
        true_class_ids=np.asarray(class_ids),
        recipe_indices=np.asarray(recipe_indices, dtype=np.int64))


def _per_row_reference(dataset, corpus):
    """The per-row set loop the incidence matrices replaced: one
    ingredient set and one ingredient ∪ token set per corpus row."""
    ingredients, tokens = [], []
    for row in range(len(corpus)):
        recipe = dataset[int(corpus.recipe_indices[row])]
        names = {name.lower() for name in recipe.ingredients}
        words = set(tokenize(recipe.title))
        for sentence in recipe.instructions:
            words.update(tokenize(sentence))
        ingredients.append(names)
        tokens.append(words | names)
    return ingredients, tokens


def _reference_candidates(class_ids, class_id, mask):
    rows = (np.arange(len(class_ids)) if class_id is None
            else np.flatnonzero(class_ids == class_id))
    if rows.size == 0:
        raise ValueError(f"no items of class {class_id} in corpus")
    return rows if mask is None else rows[mask[rows]]


def _reference_rank(query, pools, class_ids, k, class_id, mask):
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = _reference_candidates(class_ids, class_id, mask)
    scores = np.zeros(rows.size)
    for position, row in enumerate(rows):
        pool = pools[int(row)]
        if query and pool:
            overlap = len(query & pool)
            if overlap:
                scores[position] = overlap / len(query | pool)
    order = np.argsort(-scores, kind="stable")[:k]
    return rows[order], 1.0 - scores[order]


def _reference_default(class_ids, k, class_id, mask):
    rows = _reference_candidates(class_ids, class_id, mask)[:k]
    return rows, np.ones(len(rows))


def _answer(call):
    """``(rows, distance bits)``, or the ValueError message."""
    try:
        rows, distances = call()
    except ValueError as exc:
        return str(exc)
    return rows.tolist(), distances.view(np.int64).tolist()


_NAMES = ["Butter", "butter", "flour", "Olive Oil", "olive oil", "salt",
          "EGG", "sugar"]
_recipes = st.builds(
    lambda title, ingredients, instructions: Recipe(
        recipe_id=0, title=title, class_id=0, true_class_id=0,
        ingredients=ingredients, instructions=instructions,
        image=np.zeros((3, 1, 1))),
    st.sampled_from(["Butter cake", "salt & pepper EGGS", "",
                     "Olive-oil flour bread", "Don't burn it"]),
    st.lists(st.sampled_from(_NAMES), unique=True, max_size=4),
    st.lists(st.sampled_from(["Mix the flour.", "Add butter, then EGG!",
                              "Bake 20 min.", "Season with salt.",
                              "Don't stir the sugar.", ""]),
             min_size=1, max_size=3))


@settings(max_examples=200, deadline=None)
@given(recipes=st.lists(_recipes, min_size=1, max_size=4),
       rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)),
                     min_size=1, max_size=24),
       kind=st.sampled_from(["ingredients", "recipe", "without",
                             "default"]),
       names=st.lists(st.sampled_from(_NAMES + ["BUTTER", "vibranium",
                                                "olive"]), max_size=4),
       pick=st.integers(0, 3),
       k=st.sampled_from([0, 1, 2, 3, "n", "n+"]),
       class_id=st.sampled_from([None, 0, 1, 2, 9]),
       mask=st.sampled_from(["none", "random", "empty"]),
       seed=st.integers(0, 2**16))
def test_property_degraded_ranker_matches_per_row_sets(
        recipes, rows, kind, names, pick, k, class_id, mask, seed):
    """The incidence-matrix ranker answers every query bit for bit as
    the per-row set loop did — rows shared by one recipe, empty and
    out-of-vocabulary or mixed-case queries, ties cut by ``k``,
    ``k`` past the pool, class filters, liveness masks (empty pools
    included), and the ``k < 1`` and unknown-class errors."""
    corpus = _lexical_corpus([r % len(recipes) for r, _ in rows],
                             [c for _, c in rows])
    n = len(corpus)
    k = {"n": n, "n+": n + 5}.get(k, k)
    live = {"none": None, "random": np.random.default_rng(seed).random(n)
            < 0.6, "empty": np.zeros(n, dtype=bool)}[mask]
    ranker = DegradedRanker(recipes, corpus)
    assert len(ranker) == n
    ingredients, tokens = _per_row_reference(recipes, corpus)
    class_ids = corpus.true_class_ids
    recipe = recipes[pick % len(recipes)]
    if kind == "without" and recipe.ingredients:
        recipe = recipe.without_ingredient(recipe.ingredients[0])
    if kind == "ingredients":
        got = _answer(lambda: ranker.rank_ingredients(names, k, class_id,
                                                      live))
        want = _answer(lambda: _reference_rank(
            {name.lower() for name in names}, ingredients, class_ids, k,
            class_id, live))
    elif kind == "default":
        got = _answer(lambda: ranker.rank_default(k, class_id, live))
        want = _answer(lambda: _reference_default(class_ids, k, class_id,
                                                  live))
    else:
        query = {name.lower() for name in recipe.ingredients}
        query.update(tokenize(recipe.title))
        for sentence in recipe.instructions:
            query.update(tokenize(sentence))
        got = _answer(lambda: ranker.rank_recipe(recipe, k, class_id,
                                                 live))
        want = _answer(lambda: _reference_rank(
            query, tokens, class_ids, k, class_id, live))
    assert got == want


class TestDegradedExcludesDeleted:
    """A degraded answer never names an item the ingest overlay has
    deleted, on the monolithic and on the sharded index path."""

    @pytest.mark.parametrize("cluster", [
        None, ClusterConfig(num_shards=2, replication=2)])
    def test_deleted_row_is_not_served(self, world, tmp_path, cluster):
        dataset, featurizer = world
        clock = FakeClock()
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(retry=RetryPolicy(max_attempts=2,
                                            base_delay=0.01, jitter=0.0),
                          cluster=cluster),
            clock=clock, sleep=clock.sleep, rng=random.Random(0),
            ingest_log=tmp_path / "wal")

        def broken(*_):
            raise RuntimeError("embedder down")

        engine = service._active.engine
        query = list(engine.dataset[int(
            engine.corpus.recipe_indices[0])].ingredients)
        engine.embed_ingredients = broken
        before = service.search_by_ingredients(query, k=5)
        assert before.outcome.status == "degraded"
        served = [r.corpus_row for r in before.results]
        victim = served[0]
        assert service.delete(victim).status == "ok"

        after = service.search_by_ingredients(query, k=5)
        assert after.outcome.status == "degraded"
        rows = [r.corpus_row for r in after.results]
        assert victim not in rows
        assert rows[:4] == served[1:]
        # The exclusion survives folding the delete into a new base.
        assert service.compact_ingest().ok
        service._active.engine.embed_ingredients = broken
        folded = service.search_by_ingredients(query, k=5)
        assert folded.outcome.status == "degraded"
        assert [r.corpus_row for r in folded.results] == rows
        # Streamed adds are not corpus rows: degraded mode skips them.
        added = service.ingest(engine.dataset[int(
            engine.corpus.recipe_indices[0])])
        assert added.status == "ok"
        streamed = service.search_by_ingredients(query, k=5)
        assert added.item_id not in [r.corpus_row
                                     for r in streamed.results]


class TestServiceHappyPath:
    def test_ingredient_search_ok(self, engine):
        service, _ = make_service(engine)
        response = service.search_by_ingredients(
            known_ingredients(engine), k=3)
        assert response.ok
        assert response.outcome.status == "ok"
        assert not response.degraded
        assert response.generation == 0
        assert len(response.results) == 3
        assert response.outcome.attempts == 1
        assert service.stats()["statuses"] == {"ok": 1}

    def test_recipe_and_image_and_without(self, engine):
        service, _ = make_service(engine)
        recipe = engine.dataset[int(engine.corpus.recipe_indices[1])]
        assert service.search_by_recipe(recipe, k=2).ok
        assert service.search_by_image(engine.corpus.images[0], k=2).ok
        assert service.search_without(recipe, recipe.ingredients[0],
                                      k=2).ok
        assert service.stats()["statuses"] == {"ok": 3}

    def test_outcomes_are_recorded_in_order(self, engine):
        service, _ = make_service(engine)
        ingredients = known_ingredients(engine)
        for _ in range(3):
            service.search_by_ingredients(ingredients, k=2)
        assert [o.request_id for o in service.outcomes] == [0, 1, 2]

    def test_invalid_class_is_contained(self, engine):
        service, _ = make_service(engine)
        response = service.search_by_ingredients(
            known_ingredients(engine), k=3, class_name="no-such-dish")
        assert response.outcome.status == "invalid"
        assert not response.ok
        assert response.results == ()
        assert "no-such-dish" in response.outcome.error

    def test_unknown_ingredients_are_contained(self, engine):
        service, _ = make_service(engine)
        response = service.search_by_ingredients(["vibranium"], k=3)
        assert response.outcome.status == "invalid"
        assert response.results == ()

    def test_shedding_when_queue_full(self, engine):
        service, clock = make_service(
            engine, admission=AdmissionConfig.static(1))
        assert service.admission.acquire(
            "holder", None, Deadline(60.0, clock=clock)).admitted
        response = service.search_by_ingredients(
            known_ingredients(engine), k=3)
        assert response.outcome.status == "shed"
        assert response.outcome.stage == "admission"
        assert response.results == ()
        assert service.stats()["statuses"] == {"shed": 1}

    def test_stats_shape(self, engine):
        service, _ = make_service(engine)
        stats = service.stats()
        assert stats["generation"] == 0
        assert stats["embed_breaker"] == "closed"
        assert stats["index_breaker"] == "closed"
        assert stats["inflight"] == 0


class TestHotSwap:
    def test_swap_promotes_new_generation(self, world, engine):
        dataset, featurizer = world
        service, _ = make_service(engine)
        new_corpus = featurizer.encode_split(dataset, "val")
        report = service.swap_corpus(new_corpus)
        assert report.ok and not report.rolled_back
        assert report.canaries_run >= 3
        assert service.generation == 1
        response = service.search_by_ingredients(
            known_ingredients(engine), k=2)
        assert response.generation == 1
        # results resolve through the *new* corpus row mapping
        for result in response.results:
            recipe_index = int(new_corpus.recipe_indices[result.corpus_row])
            assert dataset[recipe_index].recipe_id == result.recipe.recipe_id

    def test_canary_failure_rolls_back(self, world, engine):
        dataset, featurizer = world
        service, _ = make_service(engine)
        poisoned = featurizer.encode_split(dataset, "val")
        poisoned.images[:] = np.nan  # NaN pixels poison image embeddings
        report = service.swap_corpus(poisoned)
        assert not report.ok and report.rolled_back
        assert report.failures
        assert service.generation == 0
        # the surviving generation keeps answering
        assert service.search_by_ingredients(known_ingredients(engine),
                                             k=2).ok

    def test_swap_report_summary_mentions_verdict(self, world, engine):
        dataset, featurizer = world
        service, _ = make_service(engine)
        report = service.swap_corpus(featurizer.encode_split(dataset,
                                                             "val"))
        assert "swapped" in report.summary()
