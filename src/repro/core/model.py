"""The dual-branch joint embedding model.

Wraps the two modality branches, L2-normalizes their outputs into the
shared cosine latent space, and optionally carries the classifier head
used by the PWC and AdaMine_ins+cls scenarios (the extra
"parameter-heavy" layer the paper's semantic loss removes).

With grad off, :meth:`JointEmbeddingModel.embed_recipes` runs the recipe
branch's plain-numpy ``infer`` and normalizes with the same ops as
:func:`~repro.autograd.l2_normalize`, building one :class:`Tensor`
instead of hundreds. Its output is bitwise equal to the autograd
forward at the same batch shape, so MedR/R@K and every index built
from :meth:`~JointEmbeddingModel.encode_corpus` are unchanged.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, is_grad_enabled, l2_normalize, no_grad
from ..nn import Linear, Module
from .branches import ImageBranch, RecipeBranch

__all__ = ["JointEmbeddingModel"]


def _l2_normalize_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """:func:`~repro.autograd.l2_normalize` (last axis) on an array.

    ``clamp_min`` is an ``np.where``, not ``np.maximum``: the two differ
    on a NaN norm.
    """
    norms = (x * x).sum(axis=-1, keepdims=True)
    norms = np.where(norms > eps, norms, eps)
    return x / np.sqrt(norms)


class JointEmbeddingModel(Module):
    """AdaMine's dual network: images and recipes → one latent space.

    Parameters
    ----------
    image_branch, recipe_branch:
        The two modality encoders (their ``latent_dim`` must agree).
    num_classes:
        When given, adds a shared classifier head over the latent
        space (used by classification-regularized scenarios only).
    rng:
        Initialization generator for the optional head.
    """

    def __init__(self, image_branch: ImageBranch,
                 recipe_branch: RecipeBranch,
                 num_classes: int | None = None,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if image_branch.latent_dim != recipe_branch.latent_dim:
            raise ValueError("branch latent dimensions differ")
        self.image_branch = image_branch
        self.recipe_branch = recipe_branch
        self.latent_dim = image_branch.latent_dim
        self.classifier = None
        if num_classes is not None:
            if rng is None:
                raise ValueError("classifier head needs an rng")
            self.classifier = Linear(self.latent_dim, num_classes, rng)

    # ------------------------------------------------------------------
    def embed_images(self, images) -> Tensor:
        """Images → unit-norm latent embeddings."""
        return l2_normalize(self.image_branch(images))

    def embed_recipes(self, ingredient_ids, ingredient_lengths,
                      sentence_vectors, sentence_lengths) -> Tensor:
        """Recipe text → unit-norm latent embeddings.

        With grad off this runs :meth:`RecipeBranch.infer` on plain
        arrays (bitwise equal to the autograd forward at the same batch
        shape); with grad on, the autograd forward.
        """
        if not is_grad_enabled():
            return Tensor(_l2_normalize_rows(self.recipe_branch.infer(
                ingredient_ids, ingredient_lengths,
                sentence_vectors, sentence_lengths)))
        return l2_normalize(self.recipe_branch(
            ingredient_ids, ingredient_lengths,
            sentence_vectors, sentence_lengths))

    def forward(self, images, ingredient_ids, ingredient_lengths,
                sentence_vectors, sentence_lengths
                ) -> tuple[Tensor, Tensor]:
        """Embed a batch of pairs; returns (image, recipe) embeddings."""
        return (self.embed_images(images),
                self.embed_recipes(ingredient_ids, ingredient_lengths,
                                   sentence_vectors, sentence_lengths))

    def classify(self, embeddings: Tensor) -> Tensor:
        """Class logits from latent embeddings (classifier head)."""
        if self.classifier is None:
            raise RuntimeError("model was built without a classifier head")
        return self.classifier(embeddings)

    # ------------------------------------------------------------------
    def encode_corpus(self, corpus, batch_size: int = 256
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Embed a whole :class:`~repro.data.encoding.EncodedCorpus`.

        Runs in eval mode without building the autograd graph; returns
        plain aligned numpy matrices (image, recipe embeddings).
        """
        was_training = self.training
        self.eval()
        image_rows, recipe_rows = [], []
        try:
            with no_grad():
                for start in range(0, len(corpus), batch_size):
                    sl = slice(start, start + batch_size)
                    image_rows.append(self.embed_images(
                        corpus.images[sl]).data)
                    recipe_rows.append(self.embed_recipes(
                        corpus.ingredient_ids[sl],
                        corpus.ingredient_lengths[sl],
                        corpus.sentence_vectors[sl],
                        corpus.sentence_lengths[sl]).data)
        finally:
            self.train(was_training)
        return np.concatenate(image_rows), np.concatenate(recipe_rows)
