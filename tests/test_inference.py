"""The plain-numpy inference forwards equal the autograd forwards, bit
for bit.

Query embedding runs ``infer`` (grad off); training and the gradient
tests run ``forward``. Each property draws a padded batch — batch sizes
1..4, lengths 0..T (T may be 0), optionally the engine's ``max(n, 1)``
lengths, optionally a NaN — and compares the two paths' bytes at the
same batch shape.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, l2_normalize, no_grad
from repro.core import ImageBranch, JointEmbeddingModel, RecipeBranch
from repro.data.encoding import EncodedCorpus
from repro.nn import LSTM, BiLSTM
from repro.vision import MLPEncoder

RNG = lambda seed=0: np.random.default_rng(seed)

VOCAB, WORD_DIM, SENTENCE_DIM, LATENT = 9, 5, 6, 7
MAX_T = 6


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())


def _model(seed: int, nan_bias: bool = False, **switches
           ) -> JointEmbeddingModel:
    rng = RNG(seed)
    vectors = rng.normal(size=(VOCAB, WORD_DIM))
    image = ImageBranch(MLPEncoder(rng, image_size=4, feature_dim=8),
                        LATENT, rng)
    recipe = RecipeBranch(vectors, SENTENCE_DIM, LATENT, rng,
                          ingredient_hidden=4, instruction_hidden=3,
                          **switches)
    if nan_bias:
        # One NaN latent column: every row's norm is NaN while its
        # other entries stay finite, which is where clamp_min's
        # np.where and np.maximum part ways.
        recipe.projection.bias.data[2] = np.nan
    return JointEmbeddingModel(image, recipe).eval()


MODELS = {
    "full": _model(0),
    "ingredients": _model(1, use_instructions=False),
    "instructions": _model(2, use_ingredients=False),
    "nan_bias": _model(3, nan_bias=True),
}
LSTM_ = LSTM(WORD_DIM, 4, RNG(4))
BILSTM = BiLSTM(WORD_DIM, 4, RNG(5))


@st.composite
def padded_batches(draw):
    """``(x, lengths, token_ids, rng)`` for one padded batch."""
    batch = draw(st.integers(1, 4))
    time = draw(st.integers(0, MAX_T))
    lengths = np.array(draw(st.lists(st.integers(0, time),
                                     min_size=batch, max_size=batch)),
                       dtype=np.int64)
    if time and draw(st.booleans()):
        lengths = np.maximum(lengths, 1)   # the engine's max(n, 1)
    rng = RNG(draw(st.integers(0, 2**16)))
    x = rng.normal(size=(batch, time, WORD_DIM))
    if x.size and draw(st.booleans()):
        x.flat[draw(st.integers(0, x.size - 1))] = np.nan
    token_ids = rng.integers(1, VOCAB, size=(batch, time))
    token_ids[np.arange(time)[None, :] >= lengths[:, None]] = 0
    return x, lengths, token_ids, rng


@settings(max_examples=150, deadline=None)
@given(padded_batches())
def test_lstm_infer_is_forward_bitwise(drawn):
    x, lengths, _, _ = drawn
    __, final = LSTM_(Tensor(x), lengths)
    assert _bitwise_equal(LSTM_.infer(x, lengths), final.data)


@settings(max_examples=150, deadline=None)
@given(padded_batches())
def test_bilstm_infer_is_forward_bitwise(drawn):
    x, lengths, _, _ = drawn
    assert _bitwise_equal(BILSTM.infer(x, lengths),
                          BILSTM(Tensor(x), lengths).data)


def _recipe_inputs(drawn, sentence_dtype):
    x, lengths, token_ids, rng = drawn
    batch, time = token_ids.shape
    sentence_lengths = rng.integers(0, time + 1, size=batch)
    sentences = rng.normal(size=(batch, time, SENTENCE_DIM))
    if np.isnan(x).any():  # carry the drawn NaN into the sentences
        row, step, _ = np.argwhere(np.isnan(x))[0]
        sentences[row, step] = np.nan
    return (token_ids, lengths, sentences.astype(sentence_dtype),
            sentence_lengths)


@settings(max_examples=150, deadline=None)
@given(padded_batches(), st.sampled_from(sorted(MODELS)),
       st.sampled_from([np.float64, np.float32]))
def test_recipe_branch_infer_is_forward_bitwise(drawn, name, dtype):
    branch = MODELS[name].recipe_branch
    args = _recipe_inputs(drawn, dtype)
    assert _bitwise_equal(branch.infer(*args), branch(*args).data)


@settings(max_examples=150, deadline=None)
@given(padded_batches(), st.sampled_from(sorted(MODELS)))
def test_embed_recipes_without_grad_is_autograd_bitwise(drawn, name):
    model = MODELS[name]
    args = _recipe_inputs(drawn, np.float64)
    with no_grad():
        served = model.embed_recipes(*args)
    assert isinstance(served, Tensor) and not served.requires_grad
    assert _bitwise_equal(served.data, model.embed_recipes(*args).data)


def test_nan_bias_model_exercises_the_clamp():
    """The NaN-bias model really feeds NaN norms to the clamp."""
    model = MODELS["nan_bias"]
    args = _recipe_inputs((np.zeros((1, 2, WORD_DIM)), np.array([2]),
                           np.array([[1, 2]]), RNG(6)), np.float64)
    with no_grad():
        row = model.embed_recipes(*args).data[0]
    assert np.isnan(row[2]) and np.isfinite(np.delete(row, 2)).all()


def test_encode_corpus_rows_equal_autograd_rows():
    """Every ``encode_corpus`` batch (256, then the rest) matches the
    autograd forward over the same rows."""
    rng = RNG(7)
    n, time = 300, 5
    lengths = rng.integers(0, time + 1, size=n)
    ids = rng.integers(1, VOCAB, size=(n, time))
    ids[np.arange(time)[None, :] >= lengths[:, None]] = 0
    corpus = EncodedCorpus(
        ingredient_ids=ids, ingredient_lengths=np.maximum(lengths, 1),
        sentence_vectors=rng.normal(size=(n, time, SENTENCE_DIM)),
        sentence_lengths=rng.integers(1, time + 1, size=n),
        images=rng.random(size=(n, 3, 4, 4)),
        class_ids=np.zeros(n, dtype=np.int64),
        true_class_ids=np.zeros(n, dtype=np.int64),
        recipe_indices=np.arange(n))
    model = MODELS["full"]
    __, rows = model.encode_corpus(corpus)
    expected = np.concatenate([
        l2_normalize(model.recipe_branch(
            corpus.ingredient_ids[sl], corpus.ingredient_lengths[sl],
            corpus.sentence_vectors[sl], corpus.sentence_lengths[sl])).data
        for sl in (slice(0, 256), slice(256, n))])
    assert _bitwise_equal(rows, expected)
