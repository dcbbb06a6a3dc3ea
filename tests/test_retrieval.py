"""Unit tests for the retrieval engine."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.retrieval import (NearestNeighborIndex, RetrievalMetrics,
                             RetrievalProtocol, aggregate_metrics,
                             cosine_distance, cosine_distance_matrix,
                             evaluate_embeddings, median_rank, normalize_rows,
                             rank_items, ranks_of_matches, recall_at_k)
from repro.retrieval.distance import cosine_distances_to


RNG = lambda seed=0: np.random.default_rng(seed)


class TestDistance:
    def test_normalize_rows_unit(self):
        x = RNG().normal(size=(5, 4))
        out = normalize_rows(x)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(5))

    def test_normalize_zero_row_safe(self):
        out = normalize_rows(np.zeros((2, 3)))
        assert np.isfinite(out).all()

    def test_distance_matrix_identity(self):
        x = RNG(1).normal(size=(6, 4))
        dist = cosine_distance_matrix(x, x)
        np.testing.assert_allclose(np.diag(dist), np.zeros(6), atol=1e-12)

    def test_distance_range(self):
        dist = cosine_distance_matrix(RNG(2).normal(size=(10, 5)),
                                      RNG(3).normal(size=(8, 5)))
        assert (dist >= -1e-12).all() and (dist <= 2 + 1e-12).all()

    def test_rowwise_matches_matrix_diag(self):
        a, b = RNG(4).normal(size=(5, 3)), RNG(5).normal(size=(5, 3))
        np.testing.assert_allclose(cosine_distance(a, b),
                                   np.diag(cosine_distance_matrix(a, b)))


class TestRanking:
    def test_perfect_embeddings_rank_one(self):
        x = np.eye(6)
        ranks = ranks_of_matches(cosine_distance_matrix(x, x))
        np.testing.assert_array_equal(ranks, np.ones(6))

    def test_known_ranks(self):
        # query 0: match at distance 0.5, one better candidate at 0.1
        dist = np.array([[0.5, 0.1], [0.9, 0.2]])
        np.testing.assert_array_equal(ranks_of_matches(dist), [2, 1])

    def test_ties_are_pessimistic(self):
        dist = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_array_equal(ranks_of_matches(dist), [2, 2])

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            ranks_of_matches(np.zeros((2, 3)))

    def test_rank_items_topk(self):
        row = np.array([0.3, 0.1, 0.2])
        np.testing.assert_array_equal(rank_items(row, k=2), [1, 2])


class TestMetrics:
    def test_median_rank(self):
        assert median_rank(np.array([1, 2, 100])) == 2.0

    def test_recall_at_k(self):
        ranks = np.array([1, 3, 6, 20])
        assert recall_at_k(ranks, 1) == 25.0
        assert recall_at_k(ranks, 5) == 50.0
        assert recall_at_k(ranks, 10) == 75.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median_rank(np.array([]))
        with pytest.raises(ValueError):
            recall_at_k(np.array([]), 5)
        with pytest.raises(ValueError):
            recall_at_k(np.array([1]), 0)

    def test_from_ranks(self):
        metrics = RetrievalMetrics.from_ranks(np.array([1, 1, 11]))
        assert metrics.medr == 1.0
        assert metrics.r_at_10 == pytest.approx(200 / 3)

    def test_aggregate(self):
        bags = [RetrievalMetrics(2.0, 50.0, 80.0, 90.0),
                RetrievalMetrics(4.0, 30.0, 60.0, 70.0)]
        agg = aggregate_metrics(bags)
        assert agg["MedR"] == (3.0, 1.0)
        assert agg["R@1"][0] == 40.0

    def test_aggregate_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])


class TestProtocol:
    def test_perfect_embeddings(self):
        emb = RNG(6).normal(size=(80, 8))
        result = evaluate_embeddings(emb, emb, bag_size=40, num_bags=3)
        assert result.medr("image_to_recipe") == 1.0
        assert result.image_to_recipe["R@1"][0] == 100.0

    def test_random_embeddings_near_chance(self):
        a = RNG(7).normal(size=(200, 16))
        b = RNG(8).normal(size=(200, 16))
        result = evaluate_embeddings(a, b, bag_size=100, num_bags=5)
        medr = result.medr("image_to_recipe")
        assert 30 <= medr <= 70  # chance is ~50 on bags of 100

    def test_bags_capped_at_population(self):
        emb = RNG(9).normal(size=(20, 4))
        result = evaluate_embeddings(emb, emb, bag_size=1000, num_bags=2)
        assert result.bag_size == 20

    def test_bag_sampling_unique_within_bag(self):
        protocol = RetrievalProtocol(bag_size=50, num_bags=4, seed=0)
        for bag in protocol.sample_bags(60):
            assert len(np.unique(bag)) == len(bag)

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            evaluate_embeddings(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RetrievalProtocol(bag_size=1)
        with pytest.raises(ValueError):
            RetrievalProtocol(num_bags=0)

    def test_summary_format(self):
        emb = RNG(10).normal(size=(30, 4))
        text = evaluate_embeddings(emb, emb, bag_size=30,
                                   num_bags=1).summary()
        assert "im->rec" in text and "MedR" in text

    def test_deterministic_given_seed(self):
        a, b = RNG(11).normal(size=(50, 6)), RNG(12).normal(size=(50, 6))
        r1 = evaluate_embeddings(a, b, bag_size=25, num_bags=3, seed=5)
        r2 = evaluate_embeddings(a, b, bag_size=25, num_bags=3, seed=5)
        assert r1.image_to_recipe == r2.image_to_recipe


class TestIndex:
    def test_query_returns_nearest(self):
        emb = np.eye(5)
        index = NearestNeighborIndex(emb)
        ids, dist = index.query(np.array([1.0, 0, 0, 0, 0]), k=2)
        assert ids[0] == 0
        assert dist[0] == pytest.approx(0.0, abs=1e-12)

    def test_class_constrained_query(self):
        emb = np.eye(4)
        classes = np.array([0, 0, 1, 1])
        index = NearestNeighborIndex(emb, class_ids=classes)
        ids, __ = index.query(np.array([1.0, 0, 0, 0]), k=2, class_id=1)
        assert set(ids) == {2, 3}

    def test_class_query_without_metadata_raises(self):
        index = NearestNeighborIndex(np.eye(3))
        with pytest.raises(ValueError):
            index.query(np.ones(3), class_id=0)

    def test_missing_class_returns_empty_pair(self):
        # empty pool: an empty answer, not an exception —
        # shards routinely hold zero items of a queried class
        index = NearestNeighborIndex(np.eye(3), class_ids=np.zeros(3))
        ids, dist = index.query(np.ones(3), class_id=7)
        assert ids.shape == (0,) and dist.shape == (0,)
        assert ids.dtype == np.int64 and dist.dtype == np.float64

    def test_custom_ids(self):
        index = NearestNeighborIndex(np.eye(3), ids=np.array([10, 20, 30]))
        ids, __ = index.query(np.array([0, 1.0, 0]), k=1)
        assert ids[0] == 20

    def test_misaligned_ids_raise(self):
        with pytest.raises(ValueError):
            NearestNeighborIndex(np.eye(3), ids=np.array([1]))
        with pytest.raises(ValueError):
            NearestNeighborIndex(np.eye(3), class_ids=np.array([1]))

    def test_invalid_k(self):
        index = NearestNeighborIndex(np.eye(3))
        with pytest.raises(ValueError):
            index.query(np.ones(3), k=0)


class TestIndexPoolContract:
    def make(self):
        return NearestNeighborIndex(np.eye(5),
                                    class_ids=np.array([0, 0, 0, 1, 1]))

    def test_pool_size(self):
        index = self.make()
        assert index.pool_size() == 5
        assert index.pool_size(0) == 3
        assert index.pool_size(1) == 2
        assert index.pool_size(9) == 0

    def test_pool_size_without_metadata_raises(self):
        with pytest.raises(ValueError):
            NearestNeighborIndex(np.eye(3)).pool_size(0)

    def test_underfull_pool_returns_fewer_results(self):
        index = self.make()
        ids, dist = index.query(np.ones(5), k=4, class_id=1)
        assert len(ids) == len(dist) == index.pool_size(1) == 2


class TestIndexBatch:
    def make(self, n=40, d=8, classes=3, seed=0):
        rng = np.random.default_rng(seed)
        return NearestNeighborIndex(
            rng.normal(size=(n, d)),
            class_ids=rng.integers(0, classes, size=n))

    def test_batch_matches_per_row_query(self):
        index = self.make()
        vectors = np.random.default_rng(1).normal(size=(7, 8))
        ids, dist = index.query_batch(vectors, k=5)
        assert ids.shape == dist.shape == (7, 5)
        for row, vector in enumerate(vectors):
            one_ids, one_dist = index.query(vector, k=5)
            np.testing.assert_array_equal(ids[row], one_ids)
            np.testing.assert_allclose(dist[row], one_dist,
                                       rtol=0, atol=1e-12)

    def test_batch_class_constraint(self):
        index = self.make()
        vectors = np.random.default_rng(2).normal(size=(3, 8))
        ids, __ = index.query_batch(vectors, k=4, class_id=1)
        member_rows = set(np.flatnonzero(index.class_ids == 1))
        assert all(int(i) in member_rows for i in ids.ravel())

    def test_batch_underfull_and_empty_pools(self):
        index = NearestNeighborIndex(
            np.eye(5), class_ids=np.array([0, 0, 0, 1, 1]))
        vectors = np.ones((4, 5))
        ids, dist = index.query_batch(vectors, k=4, class_id=1)
        assert ids.shape == dist.shape == (4, 2)
        ids, dist = index.query_batch(vectors, k=4, class_id=9)
        assert ids.shape == dist.shape == (4, 0)

    def test_batch_rejects_bad_shapes(self):
        index = self.make()
        with pytest.raises(ValueError, match="2-D"):
            index.query_batch(np.ones(8), k=2)
        with pytest.raises(ValueError, match="k must be"):
            index.query_batch(np.ones((2, 8)), k=0)


class TestIndexSubsetClone:
    def test_subset_preserves_bits_and_metadata(self):
        rng = np.random.default_rng(3)
        index = NearestNeighborIndex(
            rng.normal(size=(20, 6)), ids=np.arange(100, 120),
            class_ids=rng.integers(0, 2, size=20))
        positions = np.array([1, 4, 7, 19])
        sub = index.subset(positions)
        np.testing.assert_array_equal(sub.embeddings.tobytes(),
                                      index.embeddings[positions].tobytes())
        np.testing.assert_array_equal(sub.ids, index.ids[positions])
        np.testing.assert_array_equal(sub.class_ids,
                                      index.class_ids[positions])

    def test_subset_relabel_and_misalignment(self):
        index = NearestNeighborIndex(np.eye(4))
        sub = index.subset(np.array([2, 0]), relabel=np.array([7, 9]))
        ids, __ = sub.query(np.array([0, 0, 1.0, 0]), k=1)
        assert ids[0] == 7
        with pytest.raises(ValueError, match="relabel"):
            index.subset(np.array([0, 1]), relabel=np.array([5]))


def _stable_argsort_reference(index, vectors, k, class_id, mask):
    """The pre-partition rule: gather the candidate rows, then a stable
    argsort of their distances, first ``k`` kept."""
    keep = np.ones(len(index), dtype=bool)
    if class_id is not None:
        keep &= index.class_ids == class_id
    if mask is not None:
        keep &= mask
    candidates = np.flatnonzero(keep)
    singles = []
    for vector in vectors:
        distances = cosine_distances_to(index.embeddings[candidates], vector)
        order = np.argsort(distances, kind="stable")[:k]
        singles.append((candidates[order], distances[order]))
    batch = cosine_distance_matrix(vectors, index.embeddings[candidates])
    order = np.argsort(batch, axis=1,
                       kind="stable")[:, :min(k, candidates.size)]
    return (singles, candidates[order],
            np.take_along_axis(batch, order, axis=1))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 40),
       distinct=st.integers(1, 6), k=st.integers(1, 45),
       nans=st.sampled_from(["none", "some", "all"]),
       class_id=st.sampled_from([None, 0, 1, 7]),
       mask=st.sampled_from(["none", "random", "empty"]))
# 16 rows of 2 distinct vectors: k = 3 cuts a run of 5 exact ties
@example(seed=0, n=16, distinct=2, k=3, nans="none", class_id=None,
         mask="none")
@example(seed=1, n=12, distinct=3, k=4, nans="some", class_id=None,
         mask="none")
@example(seed=2, n=12, distinct=3, k=4, nans="all", class_id=None,
         mask="random")
@example(seed=3, n=6, distinct=2, k=9, nans="some", class_id=0,
         mask="random")
@example(seed=4, n=10, distinct=2, k=3, nans="none", class_id=7,
         mask="none")
@example(seed=5, n=10, distinct=2, k=3, nans="none", class_id=None,
         mask="empty")
def test_property_selection_matches_stable_argsort(seed, n, distinct, k,
                                                   nans, class_id, mask):
    """Top-k selection reproduces the stable-argsort rule bit for bit —
    positions, ids and distance bits — through duplicated rows (ties),
    NaN rows, pools smaller than ``k``, empty pools, class filters and
    liveness masks."""
    rng = RNG(seed)
    base = rng.normal(size=(distinct, 4))
    embeddings = base[rng.integers(0, distinct, size=n)]
    if nans == "some":
        embeddings[rng.random(n) < 0.3] = np.nan
    elif nans == "all":
        embeddings[:] = np.nan
    index = NearestNeighborIndex(
        embeddings, ids=1000 - 3 * np.arange(n),
        class_ids=rng.integers(0, 2, size=n))
    live = {"none": None, "random": rng.random(n) < 0.6,
            "empty": np.zeros(n, dtype=bool)}[mask]
    # a stored row as the query puts exact-zero ties at the top
    vectors = np.stack([base[0], rng.normal(size=4)])

    singles, batch_rows, batch_dist = _stable_argsort_reference(
        index, vectors, k, class_id, live)
    for vector, (positions, distances) in zip(vectors, singles):
        got_positions, got_distances = index.query_positions(
            vector, k=k, class_id=class_id, mask=live)
        assert np.array_equal(got_positions, positions)
        assert _same_bits(got_distances, distances)
        got_ids, got_distances = index.query(
            vector, k=k, class_id=class_id, mask=live)
        assert np.array_equal(got_ids, index.ids[positions])
        assert _same_bits(got_distances, distances)
    got_ids, got_distances = index.query_batch(
        vectors, k=k, class_id=class_id, mask=live)
    assert np.array_equal(got_ids, index.ids[batch_rows])
    assert _same_bits(got_distances, batch_dist)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=30))
def test_property_ranks_bounded(n):
    rng = np.random.default_rng(n)
    dist = rng.uniform(size=(n, n))
    ranks = ranks_of_matches(dist)
    assert (ranks >= 1).all() and (ranks <= n).all()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=20))
def test_property_recall_monotone_in_k(n):
    rng = np.random.default_rng(n + 100)
    ranks = rng.integers(1, n + 1, size=n)
    values = [recall_at_k(ranks, k) for k in (1, 5, 10)]
    assert values == sorted(values)
