"""Deterministic hash-by-id shard placement and exact top-k merging.

The cluster (:mod:`repro.serving.cluster`) splits a corpus index into
``N`` shards.  Placement must be a pure function of the item id —
never of insertion order, process, or ``PYTHONHASHSEED`` — so that a
replica rebuilt on another host lands every item on the same shard.
We use the splitmix64 finalizer, a well-mixed 64-bit permutation with
a one-line vectorized form.

Merging is the other half of the correctness contract: for any shard
layout, the globally merged top-k must be *bitwise identical* (ids and
distances) to querying one monolithic index.  Distances are identical
because shard indexes copy normalized rows verbatim and the query
kernel is shape-stable (see
:func:`~repro.retrieval.distance.cosine_distances_to`); order is
identical because the monolithic index breaks distance ties by row
position, and :func:`merge_topk` reproduces exactly that via a
``(distance, global position)`` lexicographic sort.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_hash64", "partition_positions", "merge_topk"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def stable_hash64(ids) -> np.ndarray:
    """splitmix64 finalizer over an array of (signed) 64-bit ids.

    Vectorized and process-stable: the same id always hashes to the
    same value, on any host, in any session.
    """
    z = np.asarray(ids, dtype=np.int64).astype(np.uint64) + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def partition_positions(ids: np.ndarray,
                        num_shards: int) -> list[np.ndarray]:
    """Row positions per shard for an aligned id array.

    Returns ``num_shards`` position arrays (ascending within each
    shard — relative row order is preserved, which keeps per-shard tie
    breaking consistent with the monolithic index).  Every position
    appears in exactly one shard; shards may be empty for tiny
    corpora.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_shards == 1:
        return [np.arange(len(ids))]
    assignment = stable_hash64(ids) % np.uint64(num_shards)
    return [np.flatnonzero(assignment == np.uint64(shard))
            for shard in range(num_shards)]


def merge_topk(parts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(positions, distances)`` pairs into a global
    top-``k``.

    ``parts`` is an iterable of pairs of aligned 1-D arrays, one pair
    per answering shard (empty pairs are fine).  The result is sorted
    by ``(distance, position)`` — the exact order a monolithic
    :meth:`~repro.retrieval.index.NearestNeighborIndex.query_positions`
    returns — and truncated to ``k``.  Returns ``(positions,
    distances)``.
    Each part must already be in that order, as every scan returns
    it, so a lone non-empty part is only cut to ``k``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = [(np.asarray(p, dtype=np.int64),
              np.asarray(d, dtype=np.float64)) for p, d in parts]
    pairs = [(p, d) for p, d in pairs if p.size]
    if not pairs:
        return (np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64))
    if len(pairs) == 1:
        return pairs[0][0][:k], pairs[0][1][:k]
    positions = np.concatenate([p for p, __ in pairs])
    distances = np.concatenate([d for __, d in pairs])
    order = np.lexsort((positions, distances))[:k]
    return positions[order], distances[order]
