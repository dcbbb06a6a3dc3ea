"""Recipe featurization: raw recipes → model-ready arrays.

Mirrors the paper's preprocessing pipeline:

* ingredients → ids into an ingredient vocabulary, with **word2vec
  vectors pretrained on ingredient co-occurrence** feeding the
  Bi-LSTM's (frozen) embedding table;
* instructions → per-sentence vectors from a **frozen SkipThoughtLite
  encoder** (the skip-thought stand-in), consumed by the trainable
  sentence-level LSTM;
* images → channel-first float arrays.

``fit`` uses the training split only, so no test text leaks into the
pretrained encoders.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np

from ..text import SkipThoughtLite, Vocabulary, Word2Vec, tokenize
from .dataset import RecipeDataset
from .schema import Recipe

__all__ = ["EncodedCorpus", "RecipeFeaturizer"]


@dataclass
class EncodedCorpus:
    """Model-ready arrays for a list of recipes (aligned by row).

    ``class_ids`` uses ``-1`` for unlabeled pairs; ``true_class_ids``
    always carries the generating class (evaluation only).
    """

    ingredient_ids: np.ndarray   # (n, max_ingredients) int64
    ingredient_lengths: np.ndarray  # (n,) int64
    sentence_vectors: np.ndarray  # (n, max_sentences, sent_dim) float64
    sentence_lengths: np.ndarray  # (n,) int64
    images: np.ndarray           # (n, 3, size, size) float64
    class_ids: np.ndarray        # (n,) int64, -1 when unlabeled
    true_class_ids: np.ndarray   # (n,) int64
    recipe_indices: np.ndarray   # (n,) int64 position in the dataset

    def __len__(self) -> int:
        return len(self.recipe_indices)

    def subset(self, rows: np.ndarray) -> "EncodedCorpus":
        """Row-select a sub-corpus (used by the retrieval protocol)."""
        rows = np.asarray(rows, dtype=np.int64)
        return EncodedCorpus(
            ingredient_ids=self.ingredient_ids[rows],
            ingredient_lengths=self.ingredient_lengths[rows],
            sentence_vectors=self.sentence_vectors[rows],
            sentence_lengths=self.sentence_lengths[rows],
            images=self.images[rows],
            class_ids=self.class_ids[rows],
            true_class_ids=self.true_class_ids[rows],
            recipe_indices=self.recipe_indices[rows],
        )


class RecipeFeaturizer:
    """Fit text encoders on the train split, then encode any recipe.

    Parameters
    ----------
    word_dim:
        Dimensionality of the pretrained ingredient word2vec vectors.
    sentence_dim:
        Dimensionality of the frozen sentence embeddings.
    max_ingredients, max_sentences:
        Padding lengths (longer inputs are truncated).
    seed:
        Seed for the pretraining procedures.
    """

    def __init__(self, word_dim: int = 24, sentence_dim: int = 24,
                 max_ingredients: int = 12, max_sentences: int = 8,
                 seed: int = 0):
        self.word_dim = word_dim
        self.sentence_dim = sentence_dim
        self.max_ingredients = max_ingredients
        self.max_sentences = max_sentences
        self.seed = seed
        self.ingredient_vocab: Vocabulary | None = None
        self.word2vec: Word2Vec | None = None
        self.sentence_encoder: SkipThoughtLite | None = None

    # ------------------------------------------------------------------
    def fit(self, dataset: RecipeDataset, split: str = "train"
            ) -> "RecipeFeaturizer":
        """Build vocabularies and pretrain the frozen text encoders."""
        train = dataset.split(split)
        if not train:
            raise ValueError(f"split {split!r} is empty")

        # Ingredient vocabulary: one token per canonical ingredient name
        # (Recipe1M ships canonicalized ingredient lists).
        ingredient_docs = [self._canonical(r.ingredients) for r in train]
        self.ingredient_vocab = Vocabulary.from_corpus(ingredient_docs)
        self.word2vec = Word2Vec(self.ingredient_vocab, dim=self.word_dim,
                                 window=4, seed=self.seed)
        self.word2vec.fit(ingredient_docs, epochs=2)

        # Instruction-word vocabulary + word vectors for SkipThoughtLite.
        instruction_docs = [tokenize(" ".join(r.instructions)) for r in train]
        word_vocab = Vocabulary.from_corpus(instruction_docs, min_count=1)
        word_model = Word2Vec(word_vocab, dim=self.word_dim, window=4,
                              seed=self.seed + 1)
        word_model.fit(instruction_docs, epochs=1)
        self.sentence_encoder = SkipThoughtLite(
            word_vocab, word_model.vectors(), dim=self.sentence_dim,
            seed=self.seed + 2)
        self.sentence_encoder.fit([r.instructions for r in train], epochs=1,
                                  seed=self.seed + 3)
        return self

    @staticmethod
    def _canonical(names: list[str]) -> list[str]:
        """Canonical ingredient tokens: multiword names joined with '_'."""
        return [n.replace(" ", "_") for n in names]

    @property
    def ingredient_vectors(self) -> np.ndarray:
        """Pretrained ingredient embedding table (padding row zeroed)."""
        self._require_fitted()
        return self.word2vec.vectors()

    def _require_fitted(self) -> None:
        if self.ingredient_vocab is None:
            raise RuntimeError("featurizer not fitted; call fit() first")

    # ------------------------------------------------------------------
    def encode_recipe(self, recipe: Recipe) -> tuple[np.ndarray, int,
                                                     np.ndarray, int]:
        """Encode one recipe's text: padded ingredient ids and
        sentence-vector matrix plus true lengths."""
        self._require_fitted()
        tokens = self._canonical(recipe.ingredients)
        ids = self.ingredient_vocab.encode_padded(tokens,
                                                  self.max_ingredients)
        n_ing = min(len(tokens), self.max_ingredients)

        sentences = recipe.instructions[: self.max_sentences]
        vectors = np.zeros((self.max_sentences, self.sentence_dim))
        if sentences:
            vectors[: len(sentences)] = self.sentence_encoder.encode_many(
                sentences)
        return ids, n_ing, vectors, len(sentences)

    def encode_corpus(self, dataset: RecipeDataset,
                      indices: np.ndarray) -> EncodedCorpus:
        """Encode the recipes at ``indices`` into aligned arrays."""
        self._require_fitted()
        indices = np.asarray(indices, dtype=np.int64)
        n = len(indices)
        first = dataset[int(indices[0])] if n else None
        image_shape = first.image.shape if first is not None else (3, 8, 8)

        ingredient_ids = np.zeros((n, self.max_ingredients), dtype=np.int64)
        ingredient_lengths = np.zeros(n, dtype=np.int64)
        sentence_vectors = np.zeros((n, self.max_sentences,
                                     self.sentence_dim))
        sentence_lengths = np.zeros(n, dtype=np.int64)
        images = np.zeros((n, *image_shape))
        class_ids = np.full(n, -1, dtype=np.int64)
        true_class_ids = np.zeros(n, dtype=np.int64)

        for row, dataset_index in enumerate(indices):
            recipe = dataset[int(dataset_index)]
            ids, n_ing, vectors, n_sent = self.encode_recipe(recipe)
            ingredient_ids[row] = ids
            ingredient_lengths[row] = max(n_ing, 1)
            sentence_vectors[row] = vectors
            sentence_lengths[row] = max(n_sent, 1)
            images[row] = recipe.image
            if recipe.class_id is not None:
                class_ids[row] = recipe.class_id
            true_class_ids[row] = recipe.true_class_id

        return EncodedCorpus(
            ingredient_ids=ingredient_ids,
            ingredient_lengths=ingredient_lengths,
            sentence_vectors=sentence_vectors,
            sentence_lengths=sentence_lengths,
            images=images,
            class_ids=class_ids,
            true_class_ids=true_class_ids,
            recipe_indices=indices.copy(),
        )

    def encode_split(self, dataset: RecipeDataset, split: str
                     ) -> EncodedCorpus:
        """Encode a whole named split."""
        return self.encode_corpus(dataset, dataset.split_indices(split))

    # ------------------------------------------------------------------
    # Persistence (JSON metadata + npz arrays)
    # ------------------------------------------------------------------
    def save(self, directory) -> None:
        """Persist the fitted featurizer (vocabularies + encoders)."""
        self._require_fitted()
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        encoder = self.sentence_encoder
        meta = {
            "word_dim": self.word_dim,
            "sentence_dim": self.sentence_dim,
            "max_ingredients": self.max_ingredients,
            "max_sentences": self.max_sentences,
            "seed": self.seed,
            "ingredient_tokens": self.ingredient_vocab.tokens,
            "instruction_tokens": encoder.vocab.tokens,
        }
        with open(directory / "featurizer.json", "w") as handle:
            json.dump(meta, handle)
        np.savez_compressed(
            directory / "featurizer.npz",
            ingredient_vectors=self.word2vec.vectors(),
            instruction_word_vectors=encoder.word_vectors,
            sentence_projection=encoder.projection,
        )

    @classmethod
    def load(cls, directory) -> "RecipeFeaturizer":
        """Restore a featurizer written by :meth:`save`."""
        directory = pathlib.Path(directory)
        with open(directory / "featurizer.json") as handle:
            meta = json.load(handle)
        with np.load(directory / "featurizer.npz") as archive:
            arrays = {key: archive[key] for key in archive.files}

        featurizer = cls(word_dim=meta["word_dim"],
                         sentence_dim=meta["sentence_dim"],
                         max_ingredients=meta["max_ingredients"],
                         max_sentences=meta["max_sentences"],
                         seed=meta["seed"])
        # Reserved tokens are re-added by Vocabulary(); skip them here.
        featurizer.ingredient_vocab = Vocabulary(
            meta["ingredient_tokens"][2:])
        featurizer.word2vec = Word2Vec(featurizer.ingredient_vocab,
                                       dim=meta["word_dim"])
        featurizer.word2vec.input_vectors = arrays["ingredient_vectors"]
        word_vocab = Vocabulary(meta["instruction_tokens"][2:])
        featurizer.sentence_encoder = SkipThoughtLite(
            word_vocab, arrays["instruction_word_vectors"],
            dim=meta["sentence_dim"])
        featurizer.sentence_encoder.projection = arrays[
            "sentence_projection"]
        return featurizer
