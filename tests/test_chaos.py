"""Chaos suite: scripted fault schedules against the resilient service.

Run with ``pytest -m chaos`` (or ``make chaos``) for all of it.  Every
fake-clock case carries ``fakeclock`` and also runs in tier-1; only
``test_concurrent_queries_never_mix_generations`` (real threads and
real sleeps) stays opt-in.  Every fake-clock schedule is deterministic
— faults fire at explicit request ids — so a failing scenario replays
exactly.

The acceptance scenarios from the issue:

(a) a request completes in *degraded* mode while the embed breaker is
    open and recovers after half-open probes succeed;
(b) an index hot-swap under concurrent queries never returns
    mixed-generation results, and rolls back on canary failure;
(c) every shed / timed-out request yields a structured outcome
    record, never an unhandled exception.
"""

import random
import threading
import time

import numpy as np
import pytest

from repro.robustness import (ChainedServingFaults, IndexCorruptionFault,
                              NaNEmbedFault, SlowEmbedFault,
                              SwapMidQueryFault)
from repro.serving import (AdmissionConfig, CircuitState, ClusterConfig,
                           Deadline, ResilientSearchService, RetryPolicy,
                           ServiceConfig)

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def world():
    return make_world()


def fresh_engine(world):
    dataset, featurizer = world
    return make_engine(dataset, featurizer)


def make_service(engine, faults=None, clock=None, ingest_log=None,
                 **overrides):
    clock = clock or FakeClock()
    defaults = dict(
        deadline=1.0,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
        breaker_failure_threshold=3,
        breaker_reset_after=5.0,
        breaker_half_open_successes=2,
    )
    defaults.update(overrides)
    config = ServiceConfig(**defaults)
    service = ResilientSearchService(engine, config, clock=clock,
                                     sleep=clock.sleep,
                                     rng=random.Random(0), faults=faults,
                                     ingest_log=ingest_log)
    return service, clock


def assert_results_belong_to_generation(response, corpora, dataset):
    """No mixed generations: every result row resolves to the recipe
    that generation's corpus maps it to."""
    corpus = corpora[response.generation]
    for result in response.results:
        assert result.corpus_row < len(corpus)
        recipe_index = int(corpus.recipe_indices[result.corpus_row])
        assert dataset[recipe_index].recipe_id == result.recipe.recipe_id


# ----------------------------------------------------------------------
# (a) embed breaker: degrade while open, recover through half-open
# ----------------------------------------------------------------------
@pytest.mark.fakeclock
class TestEmbedBreakerLifecycle:
    def test_degrades_recovers_via_half_open(self, world):
        engine = fresh_engine(world)
        fault = NaNEmbedFault(requests=[0])
        service, clock = make_service(engine, faults=fault)
        ingredients = known_ingredients(engine)

        # Request 0: three NaN attempts trip the breaker, then the
        # request is still answered — degraded, from lexical overlap.
        response = service.search_by_ingredients(ingredients, k=3)
        assert response.outcome.status == "degraded"
        assert response.degraded and response.ok
        assert response.outcome.attempts == 3
        assert response.results  # an answer, not an apology
        assert "retries exhausted" in response.outcome.error
        assert service.embed_breaker.state is CircuitState.OPEN

        # Request 1 arrives while open: no model attempts at all.
        response = service.search_by_ingredients(ingredients, k=3)
        assert response.outcome.status == "degraded"
        assert response.outcome.attempts == 0
        assert "circuit open" in response.outcome.error

        # Cool-off passes; the fault is gone; half-open probes succeed.
        clock.sleep(5.0)
        assert service.embed_breaker.state is CircuitState.HALF_OPEN
        probe1 = service.search_by_ingredients(ingredients, k=3)
        assert probe1.outcome.status == "ok"
        probe2 = service.search_by_ingredients(ingredients, k=3)
        assert probe2.outcome.status == "ok"
        assert service.embed_breaker.state is CircuitState.CLOSED
        assert service.embed_breaker.transitions == [
            CircuitState.OPEN, CircuitState.HALF_OPEN,
            CircuitState.CLOSED]

    def test_degraded_results_are_lexically_relevant(self, world):
        engine = fresh_engine(world)
        fault = NaNEmbedFault(requests=[0])
        service, _ = make_service(engine, faults=fault)
        target = engine.dataset[int(engine.corpus.recipe_indices[0])]
        response = service.search_by_ingredients(
            list(target.ingredients[:3]), k=len(engine))
        assert response.degraded
        top = response.results[0].recipe
        assert ({i.lower() for i in target.ingredients[:3]}
                & {i.lower() for i in top.ingredients})


# ----------------------------------------------------------------------
# (b) hot-swap: no mixed generations, rollback on canary failure
# ----------------------------------------------------------------------
class TestHotSwapUnderFire:
    def test_concurrent_queries_never_mix_generations(self, world):
        dataset, featurizer = world
        engine = fresh_engine(world)
        # real clock: this scenario runs genuinely multi-threaded
        service = ResilientSearchService(engine, ServiceConfig(
            deadline=5.0, admission=AdmissionConfig.static(64),
            retry=RetryPolicy(max_attempts=2, base_delay=0.001,
                              jitter=0.0)))
        corpora = {0: engine.corpus,
                   1: featurizer.encode_split(dataset, "val")}
        ingredients = known_ingredients(engine)
        responses, errors = [], []
        stop = threading.Event()

        def worker():
            try:
                while not stop.is_set():
                    responses.append(
                        service.search_by_ingredients(ingredients, k=3))
            except Exception as exc:  # the service must never raise
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        report = service.swap_corpus(corpora[1])
        time.sleep(0.05)
        stop.set()
        for thread in threads:
            thread.join()

        assert not errors
        assert report.ok
        assert responses
        for response in responses:
            assert response.ok
            assert_results_belong_to_generation(response, corpora,
                                                dataset)
        # after the swap, new traffic is generation 1
        final = service.search_by_ingredients(ingredients, k=3)
        assert final.generation == 1
        assert_results_belong_to_generation(final, corpora, dataset)

    @pytest.mark.fakeclock
    def test_swap_mid_query_uses_admission_snapshot(self, world):
        dataset, featurizer = world
        engine = fresh_engine(world)
        corpora = {0: engine.corpus,
                   1: featurizer.encode_split(dataset, "val")}
        holder = {}
        fault = SwapMidQueryFault(
            request=1, trigger=lambda: holder["service"].swap_corpus(
                corpora[1]))
        service, _ = make_service(engine, faults=fault)
        holder["service"] = service
        ingredients = known_ingredients(engine)

        before = service.search_by_ingredients(ingredients, k=3)
        victim = service.search_by_ingredients(ingredients, k=3)
        after = service.search_by_ingredients(ingredients, k=3)

        assert fault.fired
        assert before.generation == 0
        # the victim was admitted on generation 0 and must finish there,
        # even though the swap landed between its embed and index stages
        assert victim.generation == 0 and victim.ok
        assert_results_belong_to_generation(victim, corpora, dataset)
        assert after.generation == 1
        assert_results_belong_to_generation(after, corpora, dataset)

    @pytest.mark.fakeclock
    def test_canary_failure_rolls_back_and_service_survives(self, world):
        dataset, featurizer = world
        engine = fresh_engine(world)
        service, _ = make_service(engine)
        poisoned = featurizer.encode_split(dataset, "val")
        poisoned.images[:] = np.nan
        report = service.swap_corpus(poisoned)
        assert not report.ok and report.rolled_back
        assert any("non-finite" in failure for failure in report.failures)
        assert service.generation == 0
        assert service.search_by_ingredients(known_ingredients(engine),
                                             k=3).ok


# ----------------------------------------------------------------------
# (c) shed / timeout / corruption: structured outcomes, no exceptions
# ----------------------------------------------------------------------
@pytest.mark.fakeclock
class TestStructuredOutcomes:
    def test_slow_embed_blows_deadline_to_timeout(self, world):
        engine = fresh_engine(world)
        clock = FakeClock()
        fault = SlowEmbedFault(requests=[0], delay=2.0, sleep=clock.sleep)
        service, _ = make_service(engine, faults=fault, clock=clock,
                                  deadline=1.0)
        response = service.search_by_ingredients(
            known_ingredients(engine), k=3)
        assert response.outcome.status == "timeout"
        assert response.outcome.stage == "embed"
        assert response.results == ()
        assert response.outcome.latency >= 1.0

    def test_slow_and_nan_embed_degrades_within_deadline(self, world):
        engine = fresh_engine(world)
        clock = FakeClock()
        # attempt 1 burns 0.6s of a 1s budget and returns NaN: the
        # embed slice (50%) is gone, so the service must degrade
        # instead of retrying itself past the deadline.
        fault = ChainedServingFaults([
            SlowEmbedFault(requests=[0], delay=0.6, sleep=clock.sleep),
            NaNEmbedFault(requests=[0]),
        ])
        service, _ = make_service(engine, faults=fault, clock=clock,
                                  deadline=1.0)
        response = service.search_by_ingredients(
            known_ingredients(engine), k=3)
        assert response.outcome.status == "degraded"
        assert response.outcome.attempts == 1
        assert response.results
        assert response.outcome.latency < 1.0

    def test_shed_requests_are_recorded_not_raised(self, world):
        engine = fresh_engine(world)
        service, clock = make_service(
            engine, admission=AdmissionConfig.static(1))
        assert service.admission.acquire(
            "holder", None, Deadline(60.0, clock=clock)).admitted
        ingredients = known_ingredients(engine)
        for _ in range(5):
            response = service.search_by_ingredients(ingredients, k=3)
            assert response.outcome.status == "shed"
        stats = service.stats()
        assert stats["statuses"] == {"shed": 5}
        assert len(service.outcomes) == 5

    @pytest.mark.parametrize("cluster, follow_ups, ingest", [
        (None, 1, False),
        # A fan-out records one breaker failure and has no retry loop,
        # so the threshold of 3 takes two follow-ups to reach.
        (ClusterConfig(num_shards=2, replication=2), 2, False),
        # Streaming ingest serves the monolith through a DeltaOverlay.
        (None, 1, True),
    ], ids=["monolith", "cluster", "monolith-ingest"])
    def test_index_corruption_degrades_then_swap_recovers(
            self, world, tmp_path, cluster, follow_ups, ingest):
        dataset, featurizer = world
        engine = fresh_engine(world)
        fault = IndexCorruptionFault(requests=[0])
        service, _ = make_service(
            engine, faults=fault, cluster=cluster,
            ingest_log=tmp_path / "wal" if ingest else None)
        ingredients = known_ingredients(engine)

        # corrupted index → non-finite distances → degraded answer
        response = service.search_by_ingredients(ingredients, k=3)
        assert fault.fired, "the fault never reached the index rows"
        assert response.outcome.status == "degraded"
        assert "index" in response.outcome.error
        assert response.results

        # damage is persistent: the breaker opens on follow-up traffic
        for _ in range(follow_ups):
            service.search_by_ingredients(ingredients, k=3)
        assert service.index_breaker.state is CircuitState.OPEN
        if ingest:
            # No recovery path yet: swap_corpus is refused while ingest
            # is on, and compact_ingest folds the corrupted base, so its
            # canaries veto it.
            return

        # hot-swap rebuilds the index; breaker resets; service is clean
        report = service.swap_corpus(
            featurizer.encode_split(dataset, "test"))
        assert report.ok
        assert service.index_breaker.state is CircuitState.CLOSED
        recovered = service.search_by_ingredients(ingredients, k=3)
        assert recovered.outcome.status == "ok"
        assert recovered.generation == 1

    def test_scripted_schedule_full_availability(self, world):
        """A mixed fault schedule: every request gets an outcome, and
        only the scripted timeout is allowed to go unanswered."""
        dataset, featurizer = world
        engine = fresh_engine(world)
        clock = FakeClock()
        faults = ChainedServingFaults([
            NaNEmbedFault(requests=[0, 1]),
            SlowEmbedFault(requests=[4], delay=3.0, sleep=clock.sleep),
        ])
        service, _ = make_service(engine, faults=faults, clock=clock,
                                  deadline=1.0, breaker_reset_after=0.5)
        ingredients = known_ingredients(engine)
        responses = []
        for request in range(8):
            clock.sleep(1.0)  # breathing room between requests
            responses.append(
                service.search_by_ingredients(ingredients, k=3))
        statuses = [r.outcome.status for r in responses]
        assert len(service.outcomes) == 8
        assert statuses[4] == "timeout"
        for position, response in enumerate(responses):
            if position == 4:
                continue
            assert response.ok, (position, response.outcome)
        # availability: at most the one scripted timeout failed
        assert statuses.count("timeout") == 1
        assert set(statuses) <= {"ok", "degraded", "timeout"}
