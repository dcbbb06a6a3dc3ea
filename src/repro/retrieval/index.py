"""Exact nearest-neighbour index over latent embeddings.

Backs the qualitative experiments (Tables 2, 4, 5) and the serving
layer: retrieve the closest images for an arbitrary query vector,
optionally constrained to one semantic class (the paper's "within the
class pizza" search).

Single-query distances use a shape-stable kernel
(:func:`~repro.retrieval.distance.cosine_distances_to`) so an index
built over any row subset returns bitwise-identical distances for
those rows — the invariant the sharded cluster
(:mod:`repro.serving.cluster`) relies on to merge per-shard top-k into
exactly the monolithic result.  Batched queries
(:meth:`NearestNeighborIndex.query_batch`) instead use one BLAS matmul
for throughput; their distances agree with the single-query path to
within one ulp but are not guaranteed bit-identical.

Every query ranks in ``(distance, position)`` order — equal distances
go to the lower row, NaN distances last.  That order, not any sort
mechanism, is the contract the cluster's merge and the delta overlay
build on; one selection routine (a partition for the k-th distance,
then a lexsort over the candidates at or under it) produces it for
every query path.
"""

from __future__ import annotations

import copy

import numpy as np

from .distance import (cosine_distance_matrix, cosine_distances_to,
                       normalize_rows)

__all__ = ["NearestNeighborIndex", "top_k"]


def _select(distances: np.ndarray, keys: np.ndarray,
            k: int) -> np.ndarray:
    """Indices of the ``k`` smallest ``distances`` in ``(distance,
    key)`` order, NaN last.

    A partition finds the k-th distance; only the candidates at or
    under it are lexsorted.  The pool test is ``~(d > kth)`` rather
    than ``d <= kth``: NaN compares false both ways, so an all-NaN
    pool (``kth`` is NaN) keeps every row instead of none, and a
    corrupted index still answers with non-finite distances that the
    service's guard can see.
    """
    if k < len(distances):
        kth = np.partition(distances, k - 1)[k - 1]
        pool = np.flatnonzero(~(distances > kth))
    else:
        pool = np.arange(len(distances))
    return pool[np.lexsort((keys[pool], distances[pool]))[:k]]


def top_k(rows: np.ndarray, keys: np.ndarray, vector: np.ndarray,
          k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(keys, distances)`` of the ``k`` unit-norm ``rows`` nearest
    ``vector``, in the ``(distance, key)`` order of
    :func:`~repro.serving.sharding.merge_topk`."""
    if len(keys) == 0:
        return keys, np.empty(0, dtype=np.float64)
    distances = cosine_distances_to(rows, vector)
    order = _select(distances, keys, k)
    return keys[order], distances[order]


class NearestNeighborIndex:
    """Brute-force cosine index with optional per-item class metadata."""

    def __init__(self, embeddings: np.ndarray,
                 ids: np.ndarray | None = None,
                 class_ids: np.ndarray | None = None):
        self.embeddings = normalize_rows(embeddings)
        n = len(self.embeddings)
        self.ids = (np.arange(n) if ids is None
                    else np.asarray(ids, dtype=np.int64))
        if len(self.ids) != n:
            raise ValueError("ids must align with embeddings")
        self.class_ids = (None if class_ids is None
                          else np.asarray(class_ids, dtype=np.int64))
        if self.class_ids is not None and len(self.class_ids) != n:
            raise ValueError("class_ids must align with embeddings")

    @classmethod
    def from_normalized(cls, embeddings: np.ndarray,
                        ids: np.ndarray,
                        class_ids: np.ndarray | None = None
                        ) -> "NearestNeighborIndex":
        """Adopt already-normalized rows verbatim (no re-normalize).

        The constructor normalizes, which is correct for raw vectors
        but moves the last ulp of rows that are already unit-norm —
        re-normalization is not bitwise idempotent.  Snapshot loaders
        (streaming-ingest base folds) use this path so a round trip
        through disk reproduces distances bit for bit.
        """
        dup = object.__new__(cls)
        dup.embeddings = np.asarray(embeddings, dtype=np.float64).copy()
        if dup.embeddings.ndim != 2:
            raise ValueError("embeddings must be 2-D")
        dup.ids = np.asarray(ids, dtype=np.int64).copy()
        if len(dup.ids) != len(dup.embeddings):
            raise ValueError("ids must align with embeddings")
        dup.class_ids = (None if class_ids is None
                         else np.asarray(class_ids, dtype=np.int64).copy())
        if (dup.class_ids is not None
                and len(dup.class_ids) != len(dup.embeddings)):
            raise ValueError("class_ids must align with embeddings")
        return dup

    def __len__(self) -> int:
        return len(self.embeddings)

    # ------------------------------------------------------------------
    # Derived indexes (sharding, base folds)
    # ------------------------------------------------------------------
    def subset(self, positions: np.ndarray,
               relabel: np.ndarray | None = None) -> "NearestNeighborIndex":
        """A new index over the rows at ``positions``.

        The already-normalized embedding rows are copied verbatim —
        re-normalizing near-unit rows can move the last ulp, which
        would break the shard/monolith bitwise-identity contract.
        ``relabel`` substitutes new ids for the subset (the cluster
        relabels shard items with their global row positions so merged
        results can be tie-broken and mapped back exactly).
        """
        positions = np.asarray(positions, dtype=np.int64)
        dup = object.__new__(NearestNeighborIndex)
        dup.embeddings = self.embeddings[positions].copy()
        if relabel is None:
            dup.ids = self.ids[positions].copy()
        else:
            dup.ids = np.asarray(relabel, dtype=np.int64).copy()
            if len(dup.ids) != len(positions):
                raise ValueError("relabel must align with positions")
        dup.class_ids = (None if self.class_ids is None
                         else self.class_ids[positions].copy())
        return dup

    def relabeled(self, ids: np.ndarray) -> "NearestNeighborIndex":
        """This index under new ``ids``, sharing its rows and classes.

        Nothing is copied, so every distance is this index's own; a
        one-shard cluster serves its source index this way.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) != len(self):
            raise ValueError("ids must align with embeddings")
        dup = copy.copy(self)
        dup.ids = ids
        return dup

    def append_rows(self, rows: np.ndarray, ids: np.ndarray,
                    class_ids: np.ndarray | None = None
                    ) -> "NearestNeighborIndex":
        """A new index with ``rows`` appended — copied verbatim.

        ``rows`` must already be unit-normalized (the caller normalized
        them exactly once, at ingest time); like :meth:`subset`, this
        path never re-normalizes, so folding a delta overlay into a new
        base cannot perturb a single existing distance bit.  ``ids``
        aligns with ``rows``; ``class_ids`` is required iff the base
        carries class metadata.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != self.embeddings.shape[1]:
            raise ValueError(
                f"rows must be (n, {self.embeddings.shape[1]}); "
                f"got {rows.shape}")
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) != len(rows):
            raise ValueError("ids must align with rows")
        dup = object.__new__(NearestNeighborIndex)
        dup.embeddings = np.concatenate([self.embeddings, rows])
        dup.ids = np.concatenate([self.ids, ids])
        if self.class_ids is None:
            if class_ids is not None:
                raise ValueError("index built without class metadata")
            dup.class_ids = None
        else:
            if class_ids is None:
                raise ValueError(
                    "class_ids required: index carries class metadata")
            class_ids = np.asarray(class_ids, dtype=np.int64)
            if len(class_ids) != len(rows):
                raise ValueError("class_ids must align with rows")
            dup.class_ids = np.concatenate([self.class_ids, class_ids])
        return dup

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def pool_size(self, class_id: int | None = None) -> int:
        """Number of candidates a query with this ``class_id`` ranks.

        This is the upper bound on how many results :meth:`query` can
        return for that constraint; callers needing exactly ``k``
        results should check it.
        """
        if class_id is None:
            return len(self.embeddings)
        if self.class_ids is None:
            raise ValueError("index built without class metadata")
        return int(np.count_nonzero(self.class_ids == class_id))

    def _candidates(self, k: int, class_id: int | None,
                    mask: np.ndarray | None = None) -> np.ndarray:
        if k < 1:
            raise ValueError("k must be >= 1")
        candidates = np.arange(len(self.embeddings))
        if class_id is not None:
            if self.class_ids is None:
                raise ValueError("index built without class metadata")
            candidates = np.flatnonzero(self.class_ids == class_id)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if len(mask) != len(self.embeddings):
                raise ValueError("mask must align with embeddings")
            candidates = candidates[mask[candidates]]
        return candidates

    def query(self, vector: np.ndarray, k: int = 5,
              class_id: int | None = None,
              mask: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(ids, distances)`` for one query vector.

        ``class_id`` restricts candidates to one class (requires the
        index to have been built with ``class_ids``).

        Contract: returns ``min(k, pool)`` pairs, where ``pool`` is
        the candidate count for the constraint (see
        :meth:`pool_size`) — a class-filtered pool smaller than ``k``
        yields fewer results rather than padding with junk; an *empty*
        pool yields an empty pair.

        Results come in ``(distance, position)`` order: equal
        distances resolve to the lower row, and NaN distances sort
        last — the same order the cluster's merge reproduces across
        shards.

        ``mask`` is an optional per-row liveness filter aligned with
        the embedding rows; masked-out rows are excluded from the
        candidate pool (the streaming-ingest overlay uses it to hide
        tombstoned base rows without touching the frozen arrays).
        """
        candidates, distances = self.query_positions(
            vector, k=k, class_id=class_id, mask=mask)
        return self.ids[candidates], distances

    def query_positions(self, vector: np.ndarray, k: int = 5,
                        class_id: int | None = None,
                        mask: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(row positions, distances)`` for one vector.

        Same contract as :meth:`query` but returns raw row positions
        instead of ids — the form the delta overlay merges on, since
        positions are the tie-break key of the cluster's
        ``(distance, position)`` lexsort.

        Without a class filter the kernel scores the stored rows in
        place (a liveness ``mask`` then indexes the distances, which
        is bit-identical: the kernel reduces each row on its own); a
        class filter gathers its rows first, since a class is a small
        share of the index.
        """
        candidates = self._candidates(k, class_id, mask=mask)
        if class_id is not None:
            return top_k(self.embeddings[candidates], candidates, vector,
                         k)
        distances = cosine_distances_to(self.embeddings, vector)
        if mask is not None:
            distances = distances[candidates]
        order = _select(distances, candidates, k)
        return candidates[order], distances[order]

    def query_batch(self, vectors: np.ndarray, k: int = 5,
                    class_id: int | None = None,
                    mask: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` for a whole batch of queries in one matmul.

        ``vectors`` is ``(B, d)``; returns ``(ids, distances)`` each of
        shape ``(B, min(k, pool))``, row ``b`` being the same result
        :meth:`query` gives for ``vectors[b]`` (distances may differ in
        the last ulp: the batched path trades the shape-stable kernel
        for one BLAS call over all queries).  Pool semantics match
        :meth:`query`: an empty pool yields ``(B, 0)`` arrays.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ValueError(
                f"vectors must be 2-D (batch, dim); got {vectors.shape}")
        candidates = self._candidates(k, class_id, mask=mask)
        if candidates.size == 0:
            return (np.empty((len(vectors), 0), dtype=np.int64),
                    np.empty((len(vectors), 0), dtype=np.float64))
        distances = cosine_distance_matrix(vectors,
                                           self.embeddings[candidates])
        order = np.empty((len(vectors), min(k, candidates.size)),
                         dtype=np.int64)
        for row, row_distances in enumerate(distances):
            order[row] = _select(row_distances, candidates, k)
        return (self.ids[candidates[order]],
                np.take_along_axis(distances, order, axis=1))
