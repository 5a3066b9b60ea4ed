"""Where batch norm's scale (gamma) and shift (beta) come from, and the one
taped node that normalizes with them.

* ``LearnedScaleShift`` (bn) learns one constant pair.
* ``FrameAbnGenerator`` (abn-f) embeds frames, attends over them with one
  weight per frame, pools to a single utterance vector, and emits ONE
  (gamma, beta) pair for the whole utterance.
* ``UttAbnGenerator`` (abn-u) runs scaled dot-product self-attention
  across the utterance and emits a (gamma_t, beta_t) pair PER FRAME.

The generators read the standardized frames of the whole padded [B, T, D]
batch at once; masks keep each utterance's attention on its own valid
frames. Both zero-initialize their output heads with a bias of one on the
scale, so a fresh generator reproduces plain batch norm exactly.

``abn_forward`` is every variant's normalizer, one taped node: standardize,
take (gamma, beta) from the source's ``scale_shift``, then ``(xhat * gamma
+ beta) * mask``. Each ``scale_shift`` runs the plain-numpy stage functions
below and returns a ``back`` whose hand-written VJP repeats, in reverse,
the arithmetic that generic taped primitives (the tests' reference
library, ``tests/taped.py``) would do for the same stages, in the order
the tape would add the gradients, so the node matches that taped
composition bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .data import SequenceBatch
from .normalization import (
    BatchNormState,
    masked_affine_array,
    masked_affine_vjp,
    standardize_batch,
)
from .tensor import Tensor


def _fresh_heads(p: int, d: int) -> dict[str, Tensor]:
    """Output heads that emit gamma = 1 and beta = 0 whatever their input."""
    return dict(w_gamma=tc.zeros(p, d), b_gamma=tc.ones(p),
                w_beta=tc.zeros(p, d), b_beta=tc.zeros(p))


@dataclass(slots=True, eq=False)
class LearnedScaleShift:
    """Plain batch norm's learned scale and shift, ``[p]`` each: one pair
    for every frame of every utterance."""

    gamma: Tensor
    beta: Tensor

    @classmethod
    def init(cls, feature_dim: int, width=None, rng=None):
        """gamma = 1 and beta = 0. There is no width, and nothing is drawn."""
        return cls(tc.ones(feature_dim), tc.zeros(feature_dim))

    def scale_shift(self, x, mask, dropout_rate: float, rng, mode: str):
        """The learned pair, whatever the frames; dropout leaves it alone."""
        gamma, beta = (tc.per_replica(t.data, 1, 4) for t in (self.gamma, self.beta))
        return gamma, beta, lambda g_x, g_gamma, g_beta: (g_gamma, g_beta)


@dataclass(slots=True, eq=False)
class FrameAbnGenerator:
    """Pooled-attention generator: one (gamma, beta) per utterance.

    ``w_embed``/``b_embed`` project each standardized frame into a
    bottleneck of width ``embed_dim`` (below the feature dim, a bound of
    ``ModelConfig``); the attention-weighted mean of those embeddings
    drives the two output heads.
    """

    w_embed: Tensor
    b_embed: Tensor
    w_gamma: Tensor
    b_gamma: Tensor
    w_beta: Tensor
    b_beta: Tensor

    @classmethod
    def init(cls, feature_dim: int, embed_dim: int, rng: np.random.Generator):
        scale = 1.0 / math.sqrt(feature_dim)
        return cls(
            w_embed=Tensor(rng.normal(0.0, scale, size=(embed_dim, feature_dim))),
            b_embed=tc.zeros(embed_dim),
            **_fresh_heads(feature_dim, embed_dim),
        )

    def scale_shift(self, x: np.ndarray, mask: np.ndarray, dropout_rate: float, rng, mode: str):
        """One generated (gamma, beta) pair per utterance, ``[B, 1, p]``, from
        the standardized frames ``x`` (``[B, T, p]``, frame mask ``[B, T]``),
        and their ``back``. Dropout, when active, hits the frame embeddings."""
        embedded = frame_embed(x, self)
        scale = tc.dropout_scale(embedded.shape, dropout_rate, rng, mode)
        e = embedded if scale is None else np.multiply(embedded, scale)
        alpha = frame_attention(e, mask)
        z = frame_pool(e, alpha)[..., None, :]  # [B, 1, d_e]
        gamma, beta = head_params(z, self)

        def back(g_x, g_gamma, g_beta):
            g_z, *g_heads = _heads_vjp(g_gamma, g_beta, z, self)
            # frame_pool: g_z reaches every frame, weighted by its alpha.
            weights = alpha[:, :, None]
            g_e = g_z * weights
            g_alpha = tc._unbroadcast(g_z * e, weights.shape).reshape(alpha.shape)
            # frame_attention: the softmax, then the mean over embedding units.
            g_means = tc.masked_softmax_vjp(g_alpha, alpha)
            g_e += (g_means / float(e.shape[-1]))[:, :, None]
            if scale is not None:
                g_e *= scale
            g_pre = g_e * (1.0 - embedded * embedded)
            g_x_embed, g_w_embed = tc.linear_vjp(g_pre, x, self.w_embed.data)
            g_b_embed = tc._unbroadcast(g_pre, self.b_embed.shape)
            g_x += g_x_embed
            return (g_w_embed, g_b_embed, *g_heads)

        return gamma, beta, back


@dataclass(slots=True, eq=False)
class UttAbnGenerator:
    """Self-attention generator: one (gamma_t, beta_t) per frame."""

    w_key: Tensor
    w_query: Tensor
    w_value: Tensor
    w_gamma: Tensor
    b_gamma: Tensor
    w_beta: Tensor
    b_beta: Tensor

    @classmethod
    def init(cls, feature_dim: int, attn_dim: int, rng: np.random.Generator):
        scale = 1.0 / math.sqrt(feature_dim)
        return cls(
            w_key=Tensor(rng.normal(0.0, scale, size=(attn_dim, feature_dim))),
            w_query=Tensor(rng.normal(0.0, scale, size=(attn_dim, feature_dim))),
            w_value=Tensor(rng.normal(0.0, scale, size=(attn_dim, feature_dim))),
            **_fresh_heads(feature_dim, attn_dim),
        )

    def scale_shift(self, x: np.ndarray, mask: np.ndarray, dropout_rate: float, rng, mode: str):
        """One generated (gamma_t, beta_t) pair per frame, ``[B, T, p]``, from
        the standardized frames ``x`` (``[B, T, p]``, frame mask ``[B, T]``),
        and their ``back``. Dropout, when active, hits the context vectors."""
        k, q, v = utt_project(x, self)
        alpha = utt_attention(k, q, mask[:, None, :])
        context = utt_context(alpha, v)
        # Without a tape nothing reads the attention arrays again: this frees
        # the [B, T, T] weights before the heads allocate gamma and beta.
        saved = (k, q, v, alpha) if tc.is_recording() else None
        del k, q, v, alpha
        scale = tc.dropout_scale(context.shape, dropout_rate, rng, mode)
        c = context if scale is None else np.multiply(context, scale)
        gamma, beta = head_params(c, self)

        def back(g_x, g_gamma, g_beta):
            k, q, v, alpha = saved
            g_c, *g_heads = _heads_vjp(g_gamma, g_beta, c, self)
            if scale is not None:
                g_c *= scale
            # utt_context, then utt_attention: the softmax, then the scores.
            g_alpha = g_c @ np.swapaxes(v, -1, -2)
            g_v = np.swapaxes(alpha, -1, -2) @ g_c
            g_scores = tc.masked_softmax_vjp(g_alpha, alpha)
            q_scaled, k_t = _score_factors(k, q)
            g_q = (g_scores @ np.swapaxes(k_t, -1, -2)) / math.sqrt(float(k.shape[-1]))
            g_k = np.swapaxes(np.swapaxes(q_scaled, -1, -2) @ g_scores, -1, -2)
            # utt_project, value first: the order the tape adds the shares of x.
            g_x_v, g_w_value = tc.linear_vjp(g_v, x, self.w_value.data)
            g_x += g_x_v
            g_x_q, g_w_query = tc.linear_vjp(g_q, x, self.w_query.data)
            g_x += g_x_q
            g_x_k, g_w_key = tc.linear_vjp(g_k, x, self.w_key.data)
            g_x += g_x_k
            return (g_w_key, g_w_query, g_w_value, *g_heads)

        return gamma, beta, back


def frame_embed(h_norm: np.ndarray, gen: FrameAbnGenerator) -> np.ndarray:
    """Bottleneck embedding of standardized frames.

    ``h_norm`` is [batch, frames, feature_dim]; each frame maps to
    tanh(W h + b), of width embed_dim.
    """
    e = tc.linear_array(h_norm, gen.w_embed.data)
    e += tc.per_replica(gen.b_embed.data, 1, e.ndim)
    return np.tanh(e, out=e)


def frame_attention(e: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """One attention weight per frame from the mean of its embedding.

    ``valid`` is the boolean frame mask, [batch, frames].
    """
    means = np.sum(e, axis=-1, dtype=np.float64) / float(e.shape[-1])
    return tc.masked_softmax_array(means, valid)


def frame_pool(e: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Attention-weighted mean over frames: [.., frames, d] x [.., frames] -> [.., d]."""
    return np.sum(e * alpha[..., None], axis=-2, dtype=np.float64)


def head_params(z: np.ndarray, gen) -> tuple[np.ndarray, np.ndarray]:
    """Scale and shift from a generator's output heads.

    ``z`` is abn-f's pooled embedding (one pair per utterance) or abn-u's
    per-frame context vectors (one pair per frame).
    """
    gamma = tc.linear_array(z, gen.w_gamma.data)
    gamma += tc.per_replica(gen.b_gamma.data, 1, gamma.ndim)
    beta = tc.linear_array(z, gen.w_beta.data)
    beta += tc.per_replica(gen.b_beta.data, 1, beta.ndim)
    return gamma, beta


def _heads_vjp(g_gamma: np.ndarray, g_beta: np.ndarray, z: np.ndarray, gen):
    """Gradients of ``head_params`` for ``z``, then ``w_gamma``, ``b_gamma``,
    ``w_beta`` and ``b_beta``. The beta head's share of ``z`` comes first,
    as the tape adds them."""
    g_z, g_w_beta = tc.linear_vjp(g_beta, z, gen.w_beta.data)
    g_b_beta = tc._unbroadcast(g_beta, gen.b_beta.shape)
    g_z_gamma, g_w_gamma = tc.linear_vjp(g_gamma, z, gen.w_gamma.data)
    g_b_gamma = tc._unbroadcast(g_gamma, gen.b_gamma.shape)
    return g_z + g_z_gamma, g_w_gamma, g_b_gamma, g_w_beta, g_b_beta


def utt_project(h_norm: np.ndarray, gen: UttAbnGenerator):
    """Bias-free key/query/value projections of standardized frames."""
    return tuple(tc.linear_array(h_norm, w.data)
                 for w in (gen.w_key, gen.w_query, gen.w_value))


def _score_factors(k: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``q / sqrt(d_a)`` and a contiguous ``k^T``, whose product is the scores.

    Scaling q rather than the scores keeps one [.., T, T] array fewer. The
    node's VJP rebuilds both from ``k`` and ``q``, bit for bit, rather than
    keep them alive.
    """
    return q / math.sqrt(float(k.shape[-1])), np.swapaxes(k, -1, -2).copy()


def utt_attention(k: np.ndarray, q: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention matrix; row t weights the frames c_t reads.

    Scores are (K_tau . Q_t) / sqrt(d_a); each row is a masked softmax over
    valid frames. ``valid`` is the boolean key mask, [batch, 1, frames], so
    padded query rows still see their utterance's frames.
    """
    q_scaled, k_t = _score_factors(k, q)
    return tc.masked_softmax_array(q_scaled @ k_t, valid)


def utt_context(alpha: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-frame context vectors: weighted sums of value rows."""
    return alpha @ v


# Each variant's source of scale and shift, and the ModelConfig field that
# holds its width (bn has none).
GENERATORS = {
    "bn": (LearnedScaleShift, None),
    "abn-f": (FrameAbnGenerator, "embed_dim"),
    "abn-u": (UttAbnGenerator, "attn_dim"),
}
VARIANTS = tuple(GENERATORS)


def abn_forward(
    batch: SequenceBatch,
    state: BatchNormState,
    gen,
    mode: str,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SequenceBatch:
    """Normalize a batch with learned or attention-generated scale/shift,
    as one taped node.

    The node standardizes the batch (``standardize_batch``), takes (gamma,
    beta) from ``gen.scale_shift`` and returns ``(xhat * gamma + beta) *
    mask``. Its inputs are ``batch.features`` and the fields of ``gen``.
    The VJP runs the affine's backward, the source's ``back`` (which adds
    its shares of xhat's gradient in place and returns its fields'
    gradients), then the standardization's. Dropout, when active, hits the
    generator's intermediate activations only (frame embeddings, or context
    vectors), never the main signal.

    Untaped in train mode, the batch and any fields of ``gen`` may carry a
    leading replica axis (``tc.per_replica``); every stage keeps it, and
    the running statistics are left alone. The batch's width is checked
    where it enters the stack (``abn.recurrent.run_layers``), not here.
    """
    x, standardize_vjp = standardize_batch(batch, state, mode)
    gamma, beta, back = gen.scale_shift(x, batch.frames.mask, dropout_rate, rng, mode)
    mask = batch.frames.mask[:, :, None]
    out = Tensor._wrap(masked_affine_array(x, gamma, beta, mask))

    def vjp(g):
        g_x, g_gamma, g_beta = masked_affine_vjp(g, x, gamma, mask)
        shares = back(g_x, g_gamma, g_beta)
        return (standardize_vjp(g_x), *shares)

    fields = [getattr(gen, name) for name in type(gen).__slots__]
    tc.record_op(out, (batch.features, *fields), vjp)
    return SequenceBatch._wrap(out, batch.frames)
