"""Exact top-k reference: plain numpy brute force, no program code.

Rows are unit-normalized with the same arithmetic the index uses and
scored with a per-row pairwise reduction, so the reference ranks by
the very distances the exact index computes.  Ties break by key (row
position), lower first — the order the index's stable sort and the
cluster's ``(distance, position)`` merge both promise.
"""

from __future__ import annotations

import numpy as np


def normalize(x: np.ndarray) -> np.ndarray:
    """L2-normalize rows (``x / max(‖x‖, 1e-12)``)."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, 1e-12)


def distances(unit_rows: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Cosine distance from ``vector`` to each unit-norm row."""
    query = normalize(np.asarray(vector, dtype=np.float64).reshape(1, -1))[0]
    return 1.0 - np.add.reduce(unit_rows * query, axis=1)


def topk(keys: np.ndarray, dist: np.ndarray, k: int
         ) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest ``(distance, key)`` pairs, in that order."""
    order = np.lexsort((keys, dist))[:k]
    return np.asarray(keys)[order], dist[order]


class Reference:
    """Exact top-k over a fixed base plus a mutable set of extra rows.

    The base top-k of every pooled query is computed once.  Extra rows
    (streamed adds) are scored at check time and merged in, which is
    exact because the base itself never changes.
    """

    def __init__(self, base_rows: np.ndarray, vectors: list[np.ndarray],
                 k: int):
        self.k = k
        unit = normalize(base_rows)
        keys = np.arange(len(unit), dtype=np.int64)
        self.base = [topk(keys, distances(unit, vector), k)
                     for vector in vectors]
        self.vectors = [np.asarray(v, dtype=np.float64) for v in vectors]

    def ids(self, query: int, extra_keys=(), extra_rows=None
            ) -> np.ndarray:
        """Exact top-k keys of pooled query ``query``; ``extra_rows``
        must already be unit-normalized."""
        base_keys, base_dist = self.base[query]
        if extra_rows is None or len(extra_keys) == 0:
            return base_keys
        extra = distances(extra_rows, self.vectors[query])
        keys = np.concatenate([base_keys, np.asarray(extra_keys,
                                                     dtype=np.int64)])
        return topk(keys, np.concatenate([base_dist, extra]), self.k)[0]


def recall(returned, exact) -> float:
    """Share of the exact ids that ``returned`` contains."""
    exact = set(int(i) for i in exact)
    if not exact:
        return 1.0
    return len(exact & set(int(i) for i in returned)) / len(exact)
