"""Model-free degraded-mode ranking.

When the embed stage is broken (circuit open, retries exhausted) or
over its deadline slice, the service still answers: this ranker scores
corpus rows by lexical overlap with the query, using nothing but the
raw recipe payloads — no model forward pass, no index, no floating
point that can be poisoned by a sick model.

* ingredient queries (fridge search) rank by Jaccard overlap between
  the query ingredient set and each recipe's ingredient set;
* recipe queries rank by Jaccard overlap over the union of
  ingredients and title/instruction tokens;
* image queries carry no text, so degraded mode returns a
  deterministic class-filtered slate in corpus order (documented
  best-effort: availability over relevance).

The build works once per *distinct* recipe (one recipe backs many dish
rows): each is a row of a sparse recipe × term incidence matrix, and a
query is one sparse mat-vec plus a gather to the corpus rows.

Distances are ``1 - overlap`` so results sort ascending exactly like
the cosine distances of the healthy path; ties go to the lower row.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

import numpy as np
from scipy import sparse

from ..data.dataset import RecipeDataset
from ..data.encoding import EncodedCorpus
from ..data.schema import Recipe
from ..retrieval.index import _select
from ..text import tokenize

__all__ = ["DegradedRanker"]


def _lexicon(recipe: Recipe) -> tuple[list[str], list[str]]:
    """Lower-cased ingredient names, and title/instruction tokens (no
    token spans a space, so the joined text tokenizes as its pieces do)."""
    return ([name.lower() for name in recipe.ingredients],
            tokenize(" ".join([recipe.title, *recipe.instructions])))


def _cells(term_lists: list[list[str]], vocab: dict[str, int]
           ) -> tuple[np.ndarray, np.ndarray]:
    """``(row, column)`` of every term occurrence, repeats included."""
    lengths = [len(terms) for terms in term_lists]
    columns = np.fromiter(
        map(vocab.__getitem__, chain.from_iterable(term_lists)),
        dtype=np.int64, count=sum(lengths))
    return np.repeat(np.arange(len(lengths)), lengths), columns


class DegradedRanker:
    """Lexical fallback ranker over one corpus generation.

    Built eagerly alongside each engine generation (at service start
    and on every hot-swap) so the fallback path never has to touch the
    model even to warm up.  A query's optional boolean ``mask`` over
    corpus rows drops rows it marks ``False`` (deleted items).
    """

    def __init__(self, dataset: RecipeDataset, corpus: EncodedCorpus):
        self._class_ids = np.asarray(corpus.true_class_ids, dtype=np.int64)
        # Per-class candidate rows, computed once: under brownout the
        # ranker serves *every* request, so the per-query flatnonzero
        # scan would become the new hot path.
        self._candidate_cache: dict[int | None, np.ndarray] = {}
        recipes, self._recipe_of_row = np.unique(corpus.recipe_indices,
                                                 return_inverse=True)
        lexicons = [_lexicon(dataset[int(index)]) for index in recipes]
        vocab = defaultdict()
        vocab.default_factory = vocab.__len__  # next column for a new term
        names = _cells([n for n, _ in lexicons], vocab)
        words = _cells([w for _, w in lexicons], vocab)
        self._vocab = dict(vocab)
        self._ingredients = self._incidence(len(recipes), *names)
        self._terms = self._incidence(
            len(recipes), *map(np.concatenate, zip(names, words)))

    def _incidence(self, n: int, rows: np.ndarray, columns: np.ndarray
                   ) -> sparse.csr_matrix:
        """The 0/1 recipe × term matrix: a repeated term counts once."""
        matrix = sparse.csr_matrix(
            (np.ones(len(rows), dtype=np.int64), (rows, columns)),
            shape=(n, len(self._vocab)))
        matrix.sum_duplicates()
        matrix.data[:] = 1
        return matrix

    def __len__(self) -> int:
        return len(self._recipe_of_row)

    # -- queries -------------------------------------------------------
    def rank_ingredients(self, ingredients: list[str], k: int = 5,
                         class_id: int | None = None,
                         mask: np.ndarray | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Fridge search without a model: ingredient-set overlap."""
        query = {name.lower() for name in ingredients}
        return self._rank(query, self._ingredients, k, class_id, mask)

    def rank_recipe(self, recipe: Recipe, k: int = 5,
                    class_id: int | None = None,
                    mask: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Recipe query without a model: ingredient + text overlap."""
        names, words = _lexicon(recipe)
        return self._rank(set(names).union(words), self._terms, k,
                          class_id, mask)

    def rank_default(self, k: int = 5, class_id: int | None = None,
                     mask: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Text-free fallback (image queries): class-filtered corpus
        order with sentinel distance 1.0."""
        rows = self._candidates(class_id, mask)[:k]
        return rows, np.ones(len(rows))

    # -- internals -----------------------------------------------------
    def _candidates(self, class_id: int | None,
                    mask: np.ndarray | None) -> np.ndarray:
        key = None if class_id is None else int(class_id)
        rows = self._candidate_cache.get(key)
        if rows is None:
            if key is None:
                rows = np.arange(len(self._class_ids))
            else:
                rows = np.flatnonzero(self._class_ids == key)
            self._candidate_cache[key] = rows
        if rows.size == 0:
            raise ValueError(f"no items of class {class_id} in corpus")
        return rows if mask is None else rows[mask[rows]]

    def _rank(self, query: set[str], pools: sparse.csr_matrix, k: int,
              class_id: int | None, mask: np.ndarray | None
              ) -> tuple[np.ndarray, np.ndarray]:
        if k < 1:
            raise ValueError("k must be >= 1")
        rows = self._candidates(class_id, mask)
        hits = np.zeros(pools.shape[1], dtype=np.int64)
        hits[[self._vocab[t] for t in query if t in self._vocab]] = 1
        overlap = pools @ hits
        # |q ∪ r| = |q| + |r| − |q ∩ r|: the integers (and so the
        # quotients) are exactly those of the Python set arithmetic.
        union = len(query) + np.diff(pools.indptr) - overlap
        jaccard = np.divide(overlap, union, out=np.zeros(len(overlap)),
                            where=overlap > 0)
        scores = jaccard[self._recipe_of_row[rows]]
        order = _select(-scores, rows, k)
        return rows[order], 1.0 - scores[order]
