"""Shard placement and exact top-k merging (tier-1).

The headline property lives at the bottom: for *any* shard/replica
layout, a fault-free :class:`IndexCluster` returns ids AND distances
bitwise identical to the monolithic index — the contract that makes
sharding an operational choice, not a quality trade-off.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval.index import NearestNeighborIndex
from repro.serving.cluster import ClusterConfig, IndexCluster
from repro.serving.sharding import (merge_topk, partition_positions,
                                    stable_hash64)


class TestStableHash:
    def test_deterministic_across_calls(self):
        ids = np.arange(1000)
        assert np.array_equal(stable_hash64(ids), stable_hash64(ids))

    def test_well_mixed(self):
        # Consecutive ids must not land on consecutive shards — the
        # whole point of hashing over modulo-on-the-raw-id.
        shards = stable_hash64(np.arange(1000)) % np.uint64(4)
        counts = np.bincount(shards.astype(np.int64), minlength=4)
        assert counts.min() > 150  # roughly balanced, not striped

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="num_shards"):
            partition_positions(np.arange(10), 0)


class TestPartition:
    def test_exact_cover(self):
        ids = np.arange(101)
        parts = partition_positions(ids, 5)
        merged = np.sort(np.concatenate(parts))
        assert np.array_equal(merged, np.arange(101))

    def test_positions_ascend_within_shard(self):
        parts = partition_positions(np.arange(300), 7)
        for part in parts:
            assert np.all(np.diff(part) > 0)

    def test_single_shard_is_identity(self):
        parts = partition_positions(np.arange(30), 1)
        assert len(parts) == 1
        assert np.array_equal(parts[0], np.arange(30))

    def test_placement_ignores_row_order(self):
        # Placement is a function of the id, not of where the id
        # happens to sit — a rebuilt corpus shards identically.
        ids = np.array([5, 9, 2, 40, 17])
        a = partition_positions(ids, 3)
        b = partition_positions(ids[::-1].copy(), 3)
        for part_a, part_b in zip(a, b):
            assert set(ids[part_a]) == set(ids[::-1][part_b])


class TestMergeTopK:
    def test_merges_and_truncates(self):
        parts = [(np.array([0, 2]), np.array([0.3, 0.1])),
                 (np.array([1, 3]), np.array([0.2, 0.4]))]
        positions, distances = merge_topk(parts, 3)
        assert positions.tolist() == [2, 1, 0]
        assert distances.tolist() == [0.1, 0.2, 0.3]

    def test_ties_break_by_position(self):
        parts = [(np.array([7]), np.array([0.5])),
                 (np.array([3]), np.array([0.5]))]
        positions, _ = merge_topk(parts, 2)
        assert positions.tolist() == [3, 7]

    def test_empty_parts_are_skipped(self):
        parts = [(np.empty(0, dtype=np.int64), np.empty(0)),
                 (np.array([4]), np.array([0.9]))]
        positions, distances = merge_topk(parts, 5)
        assert positions.tolist() == [4]
        assert distances.tolist() == [0.9]

    def test_all_empty_yields_empty_pair(self):
        positions, distances = merge_topk([], 3)
        assert positions.shape == (0,) and positions.dtype == np.int64
        assert distances.shape == (0,) and distances.dtype == np.float64

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            merge_topk([], 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 30),
           k=st.integers(1, 35), nans=st.booleans())
    def test_lone_scan_part_equals_the_full_merge(self, seed, n, k, nans):
        # A lone part skips the sort: a scan's answer (ties and NaN
        # rows included) must already be in the merge's order.
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, 4))
        rows[rng.random(n) < 0.3] = rows[0]         # exact ties
        if nans:
            rows[rng.random(n) < 0.3] = np.nan
        index = NearestNeighborIndex(rows)
        with np.errstate(invalid="ignore"):
            positions, distances = index.query_positions(
                rng.normal(size=4), k=n)
        merged = merge_topk([(positions, distances)], k)
        order = np.lexsort((positions, distances))[:k]
        assert np.array_equal(merged[0], positions[order])
        assert np.array_equal(merged[1].view(np.int64),
                              distances[order].view(np.int64))


def _cluster_world(num_items: int, seed: int):
    rng = np.random.default_rng(seed)
    embeddings = rng.normal(size=(num_items, 12))
    class_ids = rng.integers(0, 3, size=num_items)
    return NearestNeighborIndex(embeddings, class_ids=class_ids), rng


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=12),
       st.booleans(),
       st.integers(min_value=0, max_value=10_000),
       st.lists(st.tuples(st.integers(min_value=0, max_value=8),
                          st.integers(min_value=0, max_value=2))))
def test_cluster_bitwise_identical_to_monolith(num_shards, replication,
                                               k, use_class, seed,
                                               crashes):
    """Fault-free fan-out == monolithic query, bit for bit, for any
    shard/replica layout, k, and class constraint — also once
    anti-entropy has repaired any set of crashed replicas that leaves
    each shard a survivor."""
    index, rng = _cluster_world(60, seed)
    cluster = IndexCluster(
        index, ClusterConfig(num_shards=num_shards,
                             replication=replication))
    for shard_id, replica_id in crashes:
        shard = cluster.shards[shard_id % num_shards]
        if sum(rep.alive for rep in shard.replicas) > 1:
            cluster.crash_replica(shard.shard_id, replica_id % replication)
    cluster.anti_entropy()
    assert cluster.live_replica_count() == num_shards * replication
    vector = rng.normal(size=12)
    class_id = int(rng.integers(0, 3)) if use_class else None
    ids, distances = index.query(vector, k=k, class_id=class_id)
    result = cluster.query(vector, k=k, class_id=class_id)
    assert result.shards_answered == num_shards
    assert not result.partial
    assert np.array_equal(ids, result.ids)
    assert distances.tobytes() == result.distances.tobytes()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=9, max_value=20),
       st.integers(min_value=0, max_value=10_000))
def test_fanout_starts_no_thread(num_shards, queries, seed):
    """Every shard answers on the caller's thread, bit for bit the
    monolith, over 9-20 queries with two replicas per shard: history
    enough that a latency-triggered backup lane would have fired."""
    index, rng = _cluster_world(40, seed)
    cluster = IndexCluster(index, ClusterConfig(
        num_shards=num_shards, replication=2))
    starts = []
    original_start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread.name)
        original_start(thread)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threading.Thread, "start", counting_start)
        for _ in range(queries):
            vector = rng.normal(size=12)
            ids, distances = index.query(vector, k=6)
            result = cluster.query(vector, k=6)
            assert np.array_equal(ids, result.ids)
            assert distances.tobytes() == result.distances.tobytes()
    assert starts == []


def test_hedging_cannot_be_enabled():
    with pytest.raises(ValueError, match="hedge_enabled"):
        ClusterConfig(hedge_enabled=True)
