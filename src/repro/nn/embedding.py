"""Token embedding table."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from .init import normal
from .module import Module, Parameter

__all__ = ["Embedding"]


class Embedding(Module):
    """Lookup table mapping integer token ids to dense vectors.

    Index 0 is conventionally the padding token; its row is zeroed at
    initialization (gradients may still update it unless the whole
    table is frozen, matching common practice).
    """

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator, padding_idx: int | None = 0,
                 std: float = 0.05):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        table = normal((num_embeddings, embedding_dim), rng, std=std)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.weight = Parameter(table)

    def forward(self, token_ids: np.ndarray) -> Tensor:
        """Map an integer array (any shape) to embeddings of shape +(dim,)."""
        return self.weight[self._checked_ids(token_ids)]

    def infer(self, token_ids: np.ndarray) -> np.ndarray:
        """:meth:`forward` as a plain array (the same rows, bitwise)."""
        return self.weight.data[self._checked_ids(token_ids)]

    def _checked_ids(self, token_ids) -> np.ndarray:
        token_ids = np.asarray(token_ids, dtype=np.int64)
        if token_ids.min(initial=0) < 0 or token_ids.max(initial=0) >= self.num_embeddings:
            raise IndexError(
                f"token id out of range for table of size {self.num_embeddings}"
            )
        return token_ids

    @classmethod
    def from_pretrained(cls, vectors: np.ndarray, freeze: bool = True,
                        padding_idx: int | None = 0) -> "Embedding":
        """Build an embedding from pretrained vectors (e.g. word2vec)."""
        rng = np.random.default_rng(0)
        module = cls(vectors.shape[0], vectors.shape[1], rng,
                     padding_idx=padding_idx)
        module.weight.data = np.asarray(vectors, dtype=np.float64).copy()
        if padding_idx is not None:
            module.weight.data[padding_idx] = 0.0
        if freeze:
            module.freeze()
        return module
