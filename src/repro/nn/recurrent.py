"""LSTM recurrences: cell, unidirectional and bidirectional layers.

The recipe branch of AdaMine uses a bidirectional LSTM over pretrained
ingredient embeddings and a hierarchical LSTM over instructions
(a frozen word-level sentence encoder feeding a trainable
sentence-level LSTM). All sequence handling is mask-aware so padded
positions never touch the recurrent state.

Beside each ``forward`` sits an ``infer``: the same recurrence on plain
numpy arrays, for query embedding with grad off. It reads the same
``Parameter.data`` and repeats the autograd ops in the same order (the
same slices, ``sigmoid`` as ``1.0 / (1.0 + np.exp(-x))``, padding
frozen by ``np.where``; only the steps past the longest sequence, whose
results ``forward`` discards, are skipped), so at the same batch shape
its outputs are bitwise equal to ``forward``'s — NaN inputs and empty
sequences included. A change to one forward must be mirrored in the other;
``tests/test_inference.py`` pins the pair.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concat, stack, where
from .init import orthogonal, xavier_uniform, zeros
from .module import Module, Parameter

__all__ = ["LSTMCell", "LSTM", "BiLSTM", "reverse_padded"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """:meth:`Tensor.sigmoid`'s arithmetic, on an array."""
    return 1.0 / (1.0 + np.exp(-x))


def _checked_lengths(lengths, batch: int, time: int) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,):
        raise ValueError(f"lengths shape {lengths.shape} != ({batch},)")
    if time and lengths.max(initial=0) > time:
        raise ValueError("a sequence length exceeds the padded time axis")
    return lengths


class LSTMCell(Module):
    """Single LSTM step with the four gates fused into one projection."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_input = Parameter(xavier_uniform((input_dim, 4 * hidden_dim), rng))
        self.w_hidden = Parameter(orthogonal((hidden_dim, 4 * hidden_dim), rng))
        bias = zeros((4 * hidden_dim,))
        bias[hidden_dim:2 * hidden_dim] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)

    def forward(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """Advance one step: returns the new (hidden, cell) states."""
        gates = x @ self.w_input + h @ self.w_hidden + self.bias
        hd = self.hidden_dim
        i = gates[:, 0 * hd:1 * hd].sigmoid()
        f = gates[:, 1 * hd:2 * hd].sigmoid()
        g = gates[:, 2 * hd:3 * hd].tanh()
        o = gates[:, 3 * hd:4 * hd].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def infer(self, x: np.ndarray, h: np.ndarray, c: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`forward` on plain arrays, bitwise equal to it."""
        gates = x @ self.w_input.data + h @ self.w_hidden.data + self.bias.data
        hd = self.hidden_dim
        i = _sigmoid(gates[:, 0 * hd:1 * hd])
        f = _sigmoid(gates[:, 1 * hd:2 * hd])
        g = np.tanh(gates[:, 2 * hd:3 * hd])
        o = _sigmoid(gates[:, 3 * hd:4 * hd])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        return h_new, c_new


class LSTM(Module):
    """Run an :class:`LSTMCell` over a padded batch of sequences.

    Parameters
    ----------
    input_dim, hidden_dim:
        Feature sizes.
    rng:
        Initialization generator.

    Call with embeddings of shape ``(batch, time, input_dim)`` and an
    integer ``lengths`` array; returns ``(outputs, final_hidden)`` where
    ``outputs`` is ``(batch, time, hidden_dim)`` and ``final_hidden`` is
    the state at each sequence's last valid step.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.cell = LSTMCell(input_dim, hidden_dim, rng)

    def forward(self, x: Tensor, lengths: np.ndarray) -> tuple[Tensor, Tensor]:
        batch, time, _ = x.shape
        lengths = _checked_lengths(lengths, batch, time)
        h = Tensor(np.zeros((batch, self.hidden_dim)))
        c = Tensor(np.zeros((batch, self.hidden_dim)))
        outputs = []
        for t in range(time):
            h_new, c_new = self.cell(x[:, t, :], h, c)
            active = (lengths > t)[:, None]  # freeze state on padding
            h = where(active, h_new, h)
            c = where(active, c_new, c)
            outputs.append(h)
        if outputs:
            all_out = stack(outputs, axis=1)
        else:
            all_out = Tensor(np.zeros((batch, 0, self.hidden_dim)))
        return all_out, h

    def infer(self, x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """:meth:`forward`'s ``final_hidden`` from a plain float64 array.

        Bitwise equal to it. Only the final state is built (no inference
        caller reads per-step outputs), and the loop stops at the
        longest sequence: past it ``forward``'s ``where`` keeps every
        row's state, whatever the cell computes.
        """
        batch, time, _ = x.shape
        lengths = _checked_lengths(lengths, batch, time)
        h = np.zeros((batch, self.hidden_dim))
        c = np.zeros((batch, self.hidden_dim))
        for t in range(min(time, int(lengths.max(initial=0)))):
            h_new, c_new = self.cell.infer(x[:, t, :], h, c)
            active = (lengths > t)[:, None]  # freeze state on padding
            h = np.where(active, h_new, h)
            c = np.where(active, c_new, c)
        return h


def reverse_padded(x, lengths: np.ndarray):
    """Reverse each sequence's valid prefix, leaving padding in place.

    Needed by the backward direction of :class:`BiLSTM`. ``x`` is a
    :class:`Tensor` or a plain array; the result is of the same kind.
    """
    batch, time = x.shape[0], x.shape[1]
    lengths = np.asarray(lengths, dtype=np.int64)
    positions = np.arange(time)[None, :]
    reversed_index = np.where(
        positions < lengths[:, None],
        np.maximum(lengths[:, None] - 1 - positions, 0),
        positions,
    )
    rows = np.arange(batch)[:, None]
    return x[rows, reversed_index]


class BiLSTM(Module):
    """Bidirectional LSTM; the two final hidden states are concatenated.

    This mirrors the paper's ingredient encoder: a Bi-LSTM over
    word2vec ingredient embeddings whose output feeds the recipe
    branch's fully connected projection.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.forward_lstm = LSTM(input_dim, hidden_dim, rng)
        self.backward_lstm = LSTM(input_dim, hidden_dim, rng)

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden_dim

    def forward(self, x: Tensor, lengths: np.ndarray) -> Tensor:
        """Encode ``(batch, time, dim)`` to ``(batch, 2*hidden_dim)``."""
        _, h_forward = self.forward_lstm(x, lengths)
        _, h_backward = self.backward_lstm(reverse_padded(x, lengths), lengths)
        return concat([h_forward, h_backward], axis=-1)

    def infer(self, x: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a plain float64 array, bitwise equal to it."""
        h_forward = self.forward_lstm.infer(x, lengths)
        h_backward = self.backward_lstm.infer(reverse_padded(x, lengths),
                                              lengths)
        return np.concatenate([h_forward, h_backward], axis=-1)
