"""SkipThoughtLite: a frozen sentence encoder for instruction text.

The paper uses skip-thought vectors (Kiros et al., 2015) as a frozen
word-level encoder of instruction sentences; only the sentence-level
LSTM above it is trained. Skip-thought trains an encoder so a
sentence's representation predicts its neighbouring sentences.

This scaled-down stand-in keeps that training signal: a linear encoder
over a bag of word2vec-style vectors, trained contrastively so that
*adjacent* instruction sentences (same recipe) score higher than random
sentences from other recipes. After :meth:`fit`, the encoder is frozen
and :meth:`encode` maps each sentence to a fixed vector — exactly the
role skip-thought plays in the AdaMine pipeline.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tokenizer import tokenize
from .vocab import Vocabulary

__all__ = ["SkipThoughtLite"]


class SkipThoughtLite:
    """Frozen sentence encoder trained with a neighbour-sentence objective.

    Parameters
    ----------
    vocab:
        Instruction-word vocabulary.
    word_vectors:
        Pretrained word embedding table, shape ``(len(vocab), word_dim)``.
    dim:
        Output sentence embedding dimensionality.
    lr:
        Contrastive training learning rate.
    seed:
        RNG seed.
    """

    def __init__(self, vocab: Vocabulary, word_vectors: np.ndarray,
                 dim: int = 32, lr: float = 0.05, seed: int = 0):
        if word_vectors.shape[0] != len(vocab):
            raise ValueError("word_vectors rows must match vocabulary size")
        self.vocab = vocab
        self.word_vectors = np.asarray(word_vectors, dtype=np.float64)
        self.dim = dim
        self.lr = lr
        rng = np.random.default_rng(seed)
        word_dim = word_vectors.shape[1]
        scale = 1.0 / np.sqrt(word_dim)
        self.projection = rng.uniform(-scale, scale, size=(word_dim, dim))

    # ------------------------------------------------------------------
    def _bag(self, sentence: str) -> np.ndarray:
        """Mean word vector of a sentence (zero vector if no known word)."""
        ids = [i for i in self.vocab.encode(tokenize(sentence)) if i > 1]
        if not ids:
            return np.zeros(self.word_vectors.shape[1])
        return self.word_vectors[ids].mean(axis=0)

    def encode(self, sentence: str) -> np.ndarray:
        """Map one sentence to its frozen embedding (unit-normalized)."""
        raw = np.tanh(self._bag(sentence) @ self.projection)
        norm = np.linalg.norm(raw)
        return raw / norm if norm > 0 else raw

    def encode_many(self, sentences: Sequence[str]) -> np.ndarray:
        """Encode a list of sentences to an ``(n, dim)`` matrix."""
        if not sentences:
            return np.zeros((0, self.dim))
        return np.stack([self.encode(s) for s in sentences])

    # ------------------------------------------------------------------
    def fit(self, documents: Sequence[Sequence[str]], epochs: int = 2,
            seed: int = 0) -> "SkipThoughtLite":
        """Contrastive pretraining on documents (lists of sentences).

        For each adjacent sentence pair (a, b) in a document, push
        ``enc(a)·enc(b)`` above ``enc(a)·enc(r)`` for a random sentence
        ``r`` drawn from another document (margin hinge on the linear
        pre-activation scores, SGD on the shared projection).
        """
        rng = np.random.default_rng(seed)
        bags = [[self._bag(s) for s in doc] for doc in documents]
        flat = [b for doc in bags for b in doc]
        if len(flat) < 3:
            raise ValueError("need at least 3 sentences to pretrain")
        flat = np.stack(flat)
        margin = 0.2
        for __ in range(epochs):
            for doc in bags:
                for i in range(len(doc) - 1):
                    anchor, positive = doc[i], doc[i + 1]
                    negative = flat[rng.integers(len(flat))]
                    self._hinge_step(anchor, positive, negative, margin)
        return self

    def _hinge_step(self, anchor: np.ndarray, positive: np.ndarray,
                    negative: np.ndarray, margin: float) -> None:
        za = anchor @ self.projection
        zp = positive @ self.projection
        zn = negative @ self.projection
        # hinge on raw scores: want za·zp > za·zn + margin
        if za @ zp - za @ zn >= margin:
            return
        # d/dW of -(za·zp - za·zn): product-rule over the shared projection
        grad = -(np.outer(anchor, zp) + np.outer(positive, za)
                 - np.outer(anchor, zn) - np.outer(negative, za))
        self.projection -= self.lr * grad
