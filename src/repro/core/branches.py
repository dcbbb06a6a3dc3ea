"""The two modality branches of the AdaMine architecture (§3.2.1).

* :class:`ImageBranch` — a vision backbone (MiniResNet stand-in for the
  ResNet-50, or the fast MLP encoder) followed by a fully connected
  projection into the latent space, trained from scratch.
* :class:`RecipeBranch` — ingredients and instructions are embedded
  separately and concatenated into a fully connected projection:

  - ingredients: frozen pretrained word2vec embeddings → Bi-LSTM;
  - instructions: frozen skip-thought sentence vectors (computed by the
    featurizer) → trainable sentence-level LSTM — the hierarchical
    LSTM of the paper with its word level pretrained and frozen.

The ``use_ingredients`` / ``use_instructions`` switches implement the
AdaMine_ingr and AdaMine_instr ablations.

:meth:`RecipeBranch.infer` is the recipe branch on plain numpy arrays,
the path every query embed takes with grad off. It calls the ``infer``
of each submodule in ``forward``'s order, so at the same batch shape
its output is bitwise equal to ``forward``'s (``tests/test_inference.py``
pins this). The image branch has no such path: no served workload
embeds images per query.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concat
from ..nn import BiLSTM, Embedding, LSTM, Linear, Module

__all__ = ["ImageBranch", "RecipeBranch"]


class ImageBranch(Module):
    """Vision backbone + latent projection."""

    def __init__(self, backbone: Module, latent_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.backbone = backbone
        self.projection = Linear(backbone.feature_dim, latent_dim, rng)
        self.latent_dim = latent_dim

    def forward(self, images) -> Tensor:
        """Encode (N, 3, S, S) images to unnormalized latent vectors."""
        if not isinstance(images, Tensor):
            images = Tensor(images)
        return self.projection(self.backbone(images))


class RecipeBranch(Module):
    """Ingredient Bi-LSTM ⊕ hierarchical instruction LSTM → projection.

    Parameters
    ----------
    ingredient_vectors:
        Pretrained word2vec table for the ingredient vocabulary
        (frozen, as in the paper).
    sentence_dim:
        Dimensionality of the frozen instruction sentence vectors.
    ingredient_hidden, instruction_hidden:
        Hidden sizes of the two trainable recurrent encoders.
    latent_dim:
        Latent space dimensionality.
    use_ingredients, use_instructions:
        Ablation switches; at least one must be True.
    """

    def __init__(self, ingredient_vectors: np.ndarray, sentence_dim: int,
                 latent_dim: int, rng: np.random.Generator,
                 ingredient_hidden: int = 16, instruction_hidden: int = 16,
                 use_ingredients: bool = True,
                 use_instructions: bool = True):
        super().__init__()
        if not (use_ingredients or use_instructions):
            raise ValueError("recipe branch needs at least one text source")
        self.use_ingredients = use_ingredients
        self.use_instructions = use_instructions
        self.latent_dim = latent_dim

        input_dim = 0
        if use_ingredients:
            self.ingredient_embedding = Embedding.from_pretrained(
                ingredient_vectors, freeze=True)
            self.ingredient_encoder = BiLSTM(
                ingredient_vectors.shape[1], ingredient_hidden, rng)
            input_dim += self.ingredient_encoder.output_dim
        if use_instructions:
            self.instruction_encoder = LSTM(sentence_dim,
                                            instruction_hidden, rng)
            input_dim += instruction_hidden
        self.projection = Linear(input_dim, latent_dim, rng)

    def forward(self, ingredient_ids: np.ndarray,
                ingredient_lengths: np.ndarray,
                sentence_vectors: np.ndarray,
                sentence_lengths: np.ndarray) -> Tensor:
        """Encode a batch of recipes to unnormalized latent vectors."""
        parts = []
        if self.use_ingredients:
            embedded = self.ingredient_embedding(ingredient_ids)
            parts.append(self.ingredient_encoder(embedded,
                                                 ingredient_lengths))
        if self.use_instructions:
            vectors = (sentence_vectors if isinstance(sentence_vectors, Tensor)
                       else Tensor(sentence_vectors))
            __, final = self.instruction_encoder(vectors, sentence_lengths)
            parts.append(final)
        features = parts[0] if len(parts) == 1 else concat(parts, axis=-1)
        return self.projection(features)

    def infer(self, ingredient_ids: np.ndarray,
              ingredient_lengths: np.ndarray,
              sentence_vectors: np.ndarray,
              sentence_lengths: np.ndarray) -> np.ndarray:
        """:meth:`forward` on plain arrays, bitwise equal to it."""
        parts = []
        if self.use_ingredients:
            embedded = self.ingredient_embedding.infer(ingredient_ids)
            parts.append(self.ingredient_encoder.infer(embedded,
                                                       ingredient_lengths))
        if self.use_instructions:
            vectors = np.asarray(sentence_vectors, dtype=np.float64)
            parts.append(self.instruction_encoder.infer(vectors,
                                                        sentence_lengths))
        features = (parts[0] if len(parts) == 1
                    else np.concatenate(parts, axis=-1))
        return self.projection.infer(features)
