"""Fully connected layers."""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from .init import xavier_uniform, zeros
from .module import Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    rng:
        Generator used for Xavier initialization.
    bias:
        Whether to learn an additive bias.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain array, bitwise equal to it."""
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out
