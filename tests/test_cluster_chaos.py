"""Cluster chaos suite: scripted shard/replica fault schedules.

Run with ``pytest -m cluster`` (or ``make cluster-chaos``).  The
fake-clock cases carry ``fakeclock`` and also run in tier-1.

The acceptance scenarios from the issue:

(a) :class:`ReplicaCrash` killing one replica of every shard mid-run
    — every request still answers (ok or partial), failover counters
    increment, and anti-entropy restores the full replica count;
(b) :class:`ShardLoss` of one whole shard — outcomes become
    ``partial`` with the correct ``shards_answered``, never
    exceptions.
"""

import pytest

from repro.robustness import ReplicaCrash, ShardLoss, SlowShard
from repro.serving import ResilientSearchService, ServiceConfig
from repro.serving.cluster import ClusterConfig

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)

pytestmark = [pytest.mark.chaos, pytest.mark.cluster]


@pytest.fixture(scope="module")
def world():
    return make_world()


def make_clustered_service(world, cluster_faults=None):
    dataset, featurizer = world
    clock = FakeClock()
    service = ResilientSearchService(
        make_engine(dataset, featurizer),
        ServiceConfig(cluster=ClusterConfig(num_shards=3, replication=2)),
        clock=clock, sleep=clock.sleep, cluster_faults=cluster_faults)
    return service, clock


# ----------------------------------------------------------------------
# (a) replica crashes mid-run: failover, then anti-entropy repair
# ----------------------------------------------------------------------
@pytest.mark.fakeclock
class TestReplicaCrashMidRun:
    def test_failover_then_heal(self, world):
        # Kill replica 0 of every shard just as the third image-cluster
        # fan-out begins.
        fault = ReplicaCrash({2: [(0, 0), (1, 0), (2, 0)]})
        service, _ = make_clustered_service(world, cluster_faults=fault)
        ingredients = known_ingredients(service._active.engine, 2)

        baseline = service.search_by_ingredients(ingredients, k=5)
        assert baseline.outcome.status == "ok"
        titles = [r.recipe.title for r in baseline.results]

        for _ in range(9):
            response = service.search_by_ingredients(ingredients, k=5)
            # Replication absorbs the crash: never an error, and with
            # a live sibling per shard, never even partial.
            assert response.outcome.status in ("ok", "partial")
            assert response.ok
            assert [r.recipe.title for r in response.results] == titles

        assert fault.fired  # the schedule actually ran
        cluster = service._active.image_cluster
        info = cluster.describe()
        assert info["failovers"] >= 3
        # Auto anti-entropy rebuilt every dead replica from its
        # surviving sibling.
        assert info["rebuilds"] == 3
        assert cluster.live_replica_count() == 6
        # ... and the rebuilt replicas serve identical bits.
        for shard in range(3):
            assert (cluster.replica(shard, 0).index.embeddings.tobytes()
                    == cluster.replica(shard, 1).index.embeddings.tobytes())

    def test_statuses_stay_clean(self, world):
        fault = ReplicaCrash({1: [(0, 0)], 3: [(1, 0)], 5: [(2, 1)]})
        service, _ = make_clustered_service(world, cluster_faults=fault)
        ingredients = known_ingredients(service._active.engine, 2)
        for _ in range(8):
            response = service.search_by_ingredients(ingredients, k=5)
            assert response.ok
        statuses = service.stats()["statuses"]
        assert set(statuses) <= {"ok", "partial"}


# ----------------------------------------------------------------------
# (b) whole-shard loss: partial results, never exceptions
# ----------------------------------------------------------------------
@pytest.mark.fakeclock
class TestShardLoss:
    def test_partial_with_correct_coverage(self, world):
        fault = ShardLoss(query=1, shard_id=1)
        service, _ = make_clustered_service(world, cluster_faults=fault)
        ingredients = known_ingredients(service._active.engine, 2)

        first = service.search_by_ingredients(ingredients, k=5)
        assert first.outcome.status == "ok"
        assert first.outcome.shards_answered == 3

        for _ in range(6):
            response = service.search_by_ingredients(ingredients, k=5)
            assert response.outcome.status == "partial"
            assert response.ok and not response.degraded
            assert response.outcome.shards_total == 3
            assert response.outcome.shards_answered == 2
            assert response.results  # a partial answer, not an empty one

        # With every replica gone there is no donor: the shard must
        # stay dark rather than resurrect with junk.
        assert service._active.image_cluster.live_replica_count() == 4
        statuses = service.stats()["statuses"]
        assert statuses["partial"] == 6
        assert "error" not in statuses

    def test_slow_shard_beyond_deadline_never_raises(self, world):
        # A shard slower than the whole request budget is dropped by
        # the deadline carve; the request degrades instead of hanging.
        dataset, featurizer = world
        clock = FakeClock()
        fault = SlowShard(queries=range(1, 50), shard_id=0,
                          delay=5.0, sleep=clock.sleep)
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(cluster=ClusterConfig(num_shards=3,
                                                replication=2)),
            clock=clock, sleep=clock.sleep, cluster_faults=fault)
        ingredients = known_ingredients(service._active.engine, 2)
        assert service.search_by_ingredients(ingredients, k=5).ok
        for _ in range(3):
            response = service.search_by_ingredients(ingredients, k=5)
            # The fake-clock stall consumes the whole shared budget, so
            # the fan-out yields nothing and the service falls back.
            assert response.outcome.status in ("degraded", "timeout")
