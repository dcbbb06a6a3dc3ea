"""Sharded cluster behaviour under control (tier-1, no chaos marker).

Fault-free semantics, failover mechanics driven by hand (no fault
schedules), anti-entropy repair, and the service/CLI-visible surface:
partial outcomes, ``stats()`` topology, cluster metrics in the
telemetry snapshot, and hot-swap rebuilding the whole topology.  The
chaos schedules live in ``test_cluster_chaos.py``.
"""

import numpy as np
import pytest

from ._serving_util import (FakeClock, known_ingredients, make_engine,
                            make_world)
from repro.obs import Telemetry, last_metrics_snapshot
from repro.retrieval.index import NearestNeighborIndex
from repro.robustness.faults import ReplicaCrash
from repro.serving import ResilientSearchService, ServiceConfig
from repro.serving.cluster import (REPLICA_DEAD, ClusterConfig,
                                   IndexCluster)
from repro.serving.deadline import Deadline


@pytest.fixture(scope="module")
def world():
    dataset, featurizer = make_world()
    return dataset, featurizer


def small_index(num_items=60, dim=12, seed=3, classes=3):
    rng = np.random.default_rng(seed)
    return NearestNeighborIndex(
        rng.normal(size=(num_items, dim)),
        class_ids=rng.integers(0, classes, size=num_items)), rng


class TestClusterQueries:
    def test_class_constraint_matches_monolith(self):
        index, rng = small_index()
        cluster = IndexCluster(index, ClusterConfig(num_shards=4))
        vector = rng.normal(size=12)
        for class_id in (None, 0, 1, 2):
            ids, distances = index.query(vector, k=8, class_id=class_id)
            result = cluster.query(vector, k=8, class_id=class_id)
            assert np.array_equal(ids, result.ids)
            assert distances.tobytes() == result.distances.tobytes()

    def test_k_larger_than_pool_returns_pool(self):
        index, rng = small_index(num_items=7)
        cluster = IndexCluster(index, ClusterConfig(num_shards=3))
        result = cluster.query(rng.normal(size=12), k=50)
        assert len(result.ids) == 7

    def test_missing_class_returns_empty(self):
        # A class no shard holds: every shard answers an empty pool and
        # the merge is empty — same contract as the index.
        index, rng = small_index()
        cluster = IndexCluster(index, ClusterConfig(num_shards=3))
        result = cluster.query(rng.normal(size=12), k=5, class_id=99)
        assert result.ids.shape == (0,)
        assert result.shards_answered == 3 and not result.partial

    def test_bad_k_raises(self):
        index, rng = small_index()
        cluster = IndexCluster(index, ClusterConfig(num_shards=2))
        with pytest.raises(ValueError, match="k must be"):
            cluster.query(rng.normal(size=12), k=0)

    def test_invalid_query_is_not_counted(self):
        # A caller error is validated before the query is counted, so
        # it neither shows in describe() nor moves query-id schedules.
        index, rng = small_index()
        fault = ReplicaCrash({0: [(0, 0)]})
        cluster = IndexCluster(index, ClusterConfig(num_shards=2),
                               faults=fault)
        with pytest.raises(ValueError, match="k must be"):
            cluster.query(rng.normal(size=12), k=0)
        assert cluster.describe()["queries"] == 0
        assert fault.fired == []
        cluster.query(rng.normal(size=12), k=3)
        assert cluster.describe()["queries"] == 1
        assert fault.fired == [(0, 0, 0)]
        counter = cluster.telemetry.registry.get("cluster_queries_total")
        assert counter.labels(cluster=cluster.name,
                              outcome="ok").value == 1

    def test_expired_deadline_drops_all_shards(self):
        clock = FakeClock()
        index, rng = small_index()
        cluster = IndexCluster(index, ClusterConfig(num_shards=3),
                               clock=clock)
        deadline = Deadline(0.5, clock=clock)
        clock.sleep(1.0)  # budget already gone at fan-out time
        result = cluster.query(rng.normal(size=12), k=5,
                               deadline=deadline)
        assert result.shards_answered == 0
        assert result.ids.shape == (0,)


class TestFailoverAndRepair:
    def test_failover_keeps_bits_identical(self):
        index, rng = small_index()
        cluster = IndexCluster(
            index, ClusterConfig(num_shards=3, replication=2))
        for shard in range(3):
            cluster.crash_replica(shard, 0)
        vector = rng.normal(size=12)
        ids, distances = index.query(vector, k=6)
        result = cluster.query(vector, k=6)
        assert not result.partial
        assert result.failovers >= 3
        assert np.array_equal(ids, result.ids)
        assert distances.tobytes() == result.distances.tobytes()

    def test_corrupted_replica_fails_over(self):
        index, rng = small_index()
        cluster = IndexCluster(
            index, ClusterConfig(num_shards=2, replication=2))
        # Replicas share their shard's sealed index, so replica 0 gets
        # its own corrupted copy rather than a fill that would reach
        # its sibling too.
        sealed = cluster.replica(0, 0).index
        cluster.replica(0, 0).index = NearestNeighborIndex.from_normalized(
            np.full_like(sealed.embeddings, np.nan), sealed.ids,
            sealed.class_ids)
        vector = rng.normal(size=12)
        ids, _ = index.query(vector, k=5)
        result = cluster.query(vector, k=5)
        assert np.array_equal(ids, result.ids)
        assert result.failovers >= 1

    def test_anti_entropy_rebuilds_from_sibling(self):
        index, rng = small_index()
        cluster = IndexCluster(
            index, ClusterConfig(num_shards=3, replication=2))
        for shard in range(3):
            cluster.crash_replica(shard, 0)
        assert cluster.live_replica_count() == 3
        assert cluster.anti_entropy() == 3
        assert cluster.live_replica_count() == 6
        # Rebuilt replicas serve the same bits as the survivors.
        rebuilt = cluster.replica(0, 0).index
        donor = cluster.replica(0, 1).index
        assert (rebuilt.embeddings.tobytes()
                == donor.embeddings.tobytes())
        result = cluster.query(rng.normal(size=12), k=4)
        assert result.failovers == 0

    def test_auto_anti_entropy_heals_after_query(self):
        index, rng = small_index()
        cluster = IndexCluster(
            index, ClusterConfig(num_shards=2, replication=2))
        cluster.crash_replica(1, 0)
        cluster.query(rng.normal(size=12), k=3)
        assert cluster.live_replica_count() == 4

    def test_whole_shard_lost_is_partial_never_raises(self):
        index, rng = small_index()
        cluster = IndexCluster(
            index, ClusterConfig(num_shards=3, replication=2))
        cluster.crash_replica(1, 0)
        cluster.crash_replica(1, 1)
        for _ in range(5):
            result = cluster.query(rng.normal(size=12), k=5)
            assert result.partial
            assert result.shards_answered == 2
        # No donor: auto anti-entropy must not resurrect the shard.
        assert cluster.live_replica_count() == 4

    def test_describe_reports_topology(self):
        index, rng = small_index()
        cluster = IndexCluster(
            index, ClusterConfig(num_shards=3, replication=2),
            name="image")
        cluster.crash_replica(2, 1)
        info = cluster.describe()
        assert info["name"] == "image"
        assert info["shards"] == 3 and info["replication"] == 2
        assert info["items"] == len(index)
        assert info["live_replicas"] == 5
        assert sum(s["items"] for s in info["topology"]) == len(index)
        dead = info["topology"][2]["replicas"][1]
        assert dead["alive"] is False

    def test_replicas_share_one_sealed_index(self):
        index, _ = small_index()
        shared = IndexCluster(index, ClusterConfig(num_shards=4,
                                                   replication=2))
        single = IndexCluster(index, ClusterConfig(num_shards=4,
                                                   replication=1))
        assert shared.retained_bytes() == single.retained_bytes()

        def assert_shared():
            for shard in shared.shards:
                for rep in shard.replicas:
                    assert rep.index is shard.replicas[0].index

        assert_shared()
        for shard in range(4):
            shared.crash_replica(shard, shard % 2)
        assert shared.anti_entropy() == 4
        assert_shared()
        assert shared.retained_bytes() == single.retained_bytes()

    def test_replica_state_gauge_tracks_death_and_repair(self):
        index, _ = small_index()
        cluster = IndexCluster(
            index, ClusterConfig(num_shards=2, replication=2))
        child = cluster._m_replica_state.labels(
            cluster=cluster.name, shard=0, replica=0)
        assert child.value == 0
        cluster.crash_replica(0, 0)
        assert child.value == REPLICA_DEAD
        cluster.anti_entropy()
        assert child.value == 0


class TestClusteredService:
    def test_results_identical_to_monolithic_service(self, world):
        dataset, featurizer = world
        clock = FakeClock()
        mono = ResilientSearchService(
            make_engine(dataset, featurizer), ServiceConfig(),
            clock=clock, sleep=clock.sleep)
        clustered = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(cluster=ClusterConfig(num_shards=3, replication=2)),
            clock=clock, sleep=clock.sleep)
        ingredients = known_ingredients(mono._active.engine, 2)
        a = mono.search_by_ingredients(ingredients, k=5)
        b = clustered.search_by_ingredients(ingredients, k=5)
        assert a.outcome.status == "ok" and b.outcome.status == "ok"
        assert ([r.recipe.title for r in a.results]
                == [r.recipe.title for r in b.results])
        assert ([r.distance for r in a.results]
                == [r.distance for r in b.results])
        assert b.outcome.shards_total == 3
        assert b.outcome.shards_answered == 3
        assert a.outcome.shards_total == 1  # the monolith: one shard

    def test_monolith_serves_through_shared_one_shard_cluster(self, world):
        dataset, featurizer = world
        clock = FakeClock()
        service = ResilientSearchService(
            make_engine(dataset, featurizer), ServiceConfig(),
            clock=clock, sleep=clock.sleep)
        engine = service._active.engine
        cluster = service._active.image_cluster
        assert [len(shard.replicas) for shard in cluster.shards] == [1]
        sealed = cluster.shards[0].replicas[0].index
        assert sealed.embeddings is engine.image_index.embeddings
        assert sealed.class_ids is engine.image_index.class_ids
        ingredients = known_ingredients(engine, 2)
        for class_name in (None, engine.dataset.taxonomy.classes[0].name):
            response = service.search_by_ingredients(
                ingredients, k=10, class_name=class_name)
            assert response.outcome.status == "ok"
            ids, distances = engine.image_index.query(
                engine.embed_ingredients(ingredients), k=10,
                class_id=engine.resolve_class(class_name))
            assert [r.corpus_row for r in response.results] == ids.tolist()
            served = np.array([r.distance for r in response.results])
            assert served.tobytes() == distances.tobytes()

    def test_partial_outcome_on_shard_loss(self, world):
        dataset, featurizer = world
        clock = FakeClock()
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(cluster=ClusterConfig(num_shards=3, replication=2)),
            clock=clock, sleep=clock.sleep)
        cluster = service._active.image_cluster
        cluster.crash_replica(0, 0)
        cluster.crash_replica(0, 1)
        response = service.search_by_ingredients(
            known_ingredients(service._active.engine, 2), k=5)
        assert response.outcome.status == "partial"
        assert response.ok
        assert not response.degraded
        assert response.outcome.shards_answered == 2
        assert response.outcome.shards_total == 3
        assert service.stats()["statuses"]["partial"] == 1

    def test_stats_include_cluster_topology(self, world):
        dataset, featurizer = world
        clock = FakeClock()
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(cluster=ClusterConfig(num_shards=2, replication=3)),
            clock=clock, sleep=clock.sleep)
        stats = service.stats()
        assert stats["cluster"]["image"]["shards"] == 2
        assert stats["cluster"]["image"]["replication"] == 3
        assert stats["cluster"]["recipe"]["live_replicas"] == 6
        # The monolith is a one-shard, one-replica cluster.
        mono = ResilientSearchService(
            make_engine(dataset, featurizer), ServiceConfig(),
            clock=clock, sleep=clock.sleep)
        topology = mono.stats()["cluster"]["image"]
        assert (topology["shards"], topology["replication"]) == (1, 1)

    def test_hot_swap_rebuilds_cluster(self, world):
        dataset, featurizer = world
        clock = FakeClock()
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(cluster=ClusterConfig(num_shards=3, replication=2)),
            clock=clock, sleep=clock.sleep)
        old_cluster = service._active.image_cluster
        old_cluster.crash_replica(0, 0)
        old_cluster.crash_replica(0, 1)
        report = service.swap_corpus(service._active.engine.corpus)
        assert report.ok
        fresh = service._active.image_cluster
        assert fresh is not old_cluster
        assert fresh.live_replica_count() == 6
        response = service.search_by_ingredients(
            known_ingredients(service._active.engine, 2), k=5)
        assert response.outcome.status == "ok"
        assert response.outcome.generation == 1

    def test_cluster_metrics_reach_the_snapshot(self, world, tmp_path):
        dataset, featurizer = world
        clock = FakeClock()
        trace = tmp_path / "trace.jsonl"
        telemetry = Telemetry(jsonl_path=trace, clock=clock)
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(cluster=ClusterConfig(num_shards=3, replication=2)),
            clock=clock, sleep=clock.sleep, telemetry=telemetry)
        service.search_by_ingredients(
            known_ingredients(service._active.engine, 2), k=5)
        telemetry.close()
        snapshot = last_metrics_snapshot(trace)
        assert snapshot is not None
        for name in ("cluster_queries_total", "cluster_shard_seconds",
                     "cluster_replica_state",
                     "cluster_failovers_total",
                     "cluster_anti_entropy_rebuilds_total",
                     "cluster_partial_results_total"):
            assert name in snapshot, name

    def test_write_racing_compaction_lands_in_new_generation(
            self, world, tmp_path):
        """A compaction that commits between ``ingest()``'s embed and
        its write must not strand the write in the retired generation's
        clusters: the item is searchable and deletable afterwards."""
        dataset, featurizer = world
        clock = FakeClock()
        service = ResilientSearchService(
            make_engine(dataset, featurizer),
            ServiceConfig(cluster=ClusterConfig(num_shards=2,
                                                replication=1)),
            clock=clock, sleep=clock.sleep, ingest_log=tmp_path / "wal")
        engine = service._active.engine
        embed_recipe = engine.embed_recipe
        compactions = []

        def embed_then_compact(recipe):
            if not compactions:
                compactions.append(service.compact_ingest())
            return embed_recipe(recipe)

        engine.embed_recipe = embed_then_compact
        recipe = list(dataset.split("train"))[0]
        outcome = service.ingest(recipe)
        assert compactions[0].ok
        assert outcome.status == "ok"
        assert outcome.generation == service._active.generation == 1
        response = service.search_by_recipe(recipe, k=500)
        assert response.outcome.status == "ok"
        assert outcome.item_id in [r.corpus_row for r in response.results]
        assert service.delete(outcome.item_id).status == "ok"

    def test_memory_ledger_counts_replicas_and_segment(self, world,
                                                       tmp_path):
        dataset, featurizer = world
        clock = FakeClock()

        def expected_cluster_bytes(cluster, counted):
            # Each distinct array once: replicas share their shard's
            # sealed index, whose ids are the shard's positions; the
            # cluster shares the engine index's ids and classes until
            # its first streamed add, and a one-shard index shares the
            # engine index's rows too — all of which the ledger counts
            # under ``index`` only.
            arrays = {}
            for array in (cluster._ids, cluster._class_ids, cluster._live,
                          cluster._segment):
                arrays[id(array)] = array
            for shard in cluster.shards:
                for rep in shard.replicas:
                    for array in (shard.positions, rep.index.embeddings,
                                  rep.index.ids, rep.index.class_ids):
                        arrays[id(array)] = array
            return sum(a.nbytes for key, a in arrays.items()
                       if a is not None and key not in counted)

        # 2 shards x 2 replicas, then the 1 x 1 monolith.
        for cluster_config in (ClusterConfig(num_shards=2, replication=2),
                               None):
            service = ResilientSearchService(
                make_engine(dataset, featurizer),
                ServiceConfig(cluster=cluster_config),
                clock=clock, sleep=clock.sleep,
                ingest_log=tmp_path / f"wal-{cluster_config is None}")
            for streamed in (0, 1):
                if streamed:
                    assert service.ingest(
                        list(dataset.split("train"))[0]).ok
                components = service.stats()["memory"]["components"]
                for name in ("image", "recipe"):
                    index = getattr(service._active.engine,
                                    f"{name}_index")
                    counted = {id(a): a for a in (
                        index.embeddings, index.ids, index.class_ids)}
                    assert components[f"index.{name}"] == sum(
                        a.nbytes for a in counted.values()
                        if a is not None)
                    cluster = getattr(service._active, f"{name}_cluster")
                    assert len(cluster._segment) == streamed
                    # No copy of the source's ids and classes until a
                    # streamed add regrows them.
                    assert (cluster._ids is index.ids) == (not streamed)
                    assert ((cluster._class_ids is index.class_ids)
                            == (not streamed))
                    assert components[f"cluster.{name}"] == (
                        expected_cluster_bytes(cluster, counted))
                    if cluster_config is None and not streamed:
                        # The monolith adds only its mask and the
                        # shard's position labels to the engine index.
                        shard = cluster.shards[0]
                        assert (shard.replicas[0].index.embeddings
                                is index.embeddings)
                        assert components[f"cluster.{name}"] == (
                            cluster._live.nbytes + shard.positions.nbytes)
            service.ingestor.close()
