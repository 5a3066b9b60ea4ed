"""Attention-driven generation of batch-norm scale/shift parameters.

Two generator flavors share one pipeline: standardize the mini-batch,
feed its standardized frames to an attention network, and use its output
to produce the scale (gamma) and shift (beta) applied in place of the
learned BN parameters. The whole padded [B, T, D] batch goes through the
network at once; masks keep each utterance's attention on its own valid
frames.

* ``FrameAbnGenerator`` embeds frames, attends over them with one weight
  per frame, pools to a single utterance vector, and emits ONE
  (gamma, beta) pair for the whole utterance.
* ``UttAbnGenerator`` runs scaled dot-product self-attention across the
  utterance and emits a (gamma_t, beta_t) pair PER FRAME.

Both zero-initialize their output heads with a bias of one on the scale,
so a fresh generator reproduces plain batch norm exactly; training then
moves the parameters away from that safe point.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as tc
from .data import SequenceBatch
from .errors import ContractError, ShapeError
from .normalization import BatchNormState, bn_forward, masked_affine, standardize_batch
from .tensor import Tensor


class FrameAbnGenerator:
    """Pooled-attention generator: one (gamma, beta) per utterance.

    ``w_embed``/``b_embed`` project each standardized frame into a
    bottleneck of width ``embed_dim`` (strictly smaller than the feature
    dim); the attention-weighted mean of those embeddings drives the two
    output heads.
    """

    __slots__ = ("w_embed", "b_embed", "w_gamma", "b_gamma", "w_beta", "b_beta")

    def __init__(self, w_embed, b_embed, w_gamma, b_gamma, w_beta, b_beta):
        d_e, p = w_embed.shape
        if d_e >= p:
            raise ContractError(f"embed width {d_e} must be smaller than feature dim {p}")
        if b_embed.shape != (d_e,):
            raise ShapeError(f"b_embed {b_embed.shape} does not match embed width {d_e}")
        for name, t in (("w_gamma", w_gamma), ("w_beta", w_beta)):
            if t.shape != (p, d_e):
                raise ShapeError(f"{name} must be [{p}, {d_e}], got {t.shape}")
        for name, t in (("b_gamma", b_gamma), ("b_beta", b_beta)):
            if t.shape != (p,):
                raise ShapeError(f"{name} must be [{p}], got {t.shape}")
        self.w_embed = w_embed
        self.b_embed = b_embed
        self.w_gamma = w_gamma
        self.b_gamma = b_gamma
        self.w_beta = w_beta
        self.b_beta = b_beta

    @classmethod
    def init(cls, feature_dim: int, embed_dim: int, rng: np.random.Generator):
        scale = 1.0 / math.sqrt(feature_dim)
        return cls(
            w_embed=Tensor(rng.normal(0.0, scale, size=(embed_dim, feature_dim))),
            b_embed=tc.zeros(embed_dim),
            w_gamma=tc.zeros(feature_dim, embed_dim),
            b_gamma=tc.ones(feature_dim),
            w_beta=tc.zeros(feature_dim, embed_dim),
            b_beta=tc.zeros(feature_dim),
        )

    @property
    def feature_dim(self) -> int:
        return self.w_embed.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.w_embed.shape[0]


class UttAbnGenerator:
    """Self-attention generator: one (gamma_t, beta_t) per frame."""

    __slots__ = ("w_key", "w_query", "w_value", "w_gamma", "b_gamma", "w_beta", "b_beta")

    def __init__(self, w_key, w_query, w_value, w_gamma, b_gamma, w_beta, b_beta):
        d_a, p = w_key.shape
        for name, t in (("w_query", w_query), ("w_value", w_value)):
            if t.shape != (d_a, p):
                raise ShapeError(f"{name} must be [{d_a}, {p}], got {t.shape}")
        for name, t in (("w_gamma", w_gamma), ("w_beta", w_beta)):
            if t.shape != (p, d_a):
                raise ShapeError(f"{name} must be [{p}, {d_a}], got {t.shape}")
        for name, t in (("b_gamma", b_gamma), ("b_beta", b_beta)):
            if t.shape != (p,):
                raise ShapeError(f"{name} must be [{p}], got {t.shape}")
        self.w_key = w_key
        self.w_query = w_query
        self.w_value = w_value
        self.w_gamma = w_gamma
        self.b_gamma = b_gamma
        self.w_beta = w_beta
        self.b_beta = b_beta

    @classmethod
    def init(cls, feature_dim: int, attn_dim: int, rng: np.random.Generator):
        scale = 1.0 / math.sqrt(feature_dim)
        return cls(
            w_key=Tensor(rng.normal(0.0, scale, size=(attn_dim, feature_dim))),
            w_query=Tensor(rng.normal(0.0, scale, size=(attn_dim, feature_dim))),
            w_value=Tensor(rng.normal(0.0, scale, size=(attn_dim, feature_dim))),
            w_gamma=tc.zeros(feature_dim, attn_dim),
            b_gamma=tc.ones(feature_dim),
            w_beta=tc.zeros(feature_dim, attn_dim),
            b_beta=tc.zeros(feature_dim),
        )

    @property
    def feature_dim(self) -> int:
        return self.w_key.shape[1]

    @property
    def attn_dim(self) -> int:
        return self.w_key.shape[0]


def frame_embed(h_norm: Tensor, gen: FrameAbnGenerator) -> Tensor:
    """Bottleneck embedding of standardized frames.

    ``h_norm`` is [frames, feature_dim] for one utterance or
    [batch, frames, feature_dim] for a batch; each frame maps to
    tanh(W h + b), of width embed_dim.
    """
    return tc.tanh(tc.affine(h_norm, gen.w_embed, gen.b_embed))


def frame_attention(e: Tensor, valid=None) -> Tensor:
    """One attention weight per frame from the mean of its embedding.

    ``valid`` masks the frames axis: [batch, frames] for a batch.
    """
    means = tc.tmean(e, axis=-1)
    return tc.masked_softmax(means, valid)


def frame_pool(e: Tensor, alpha: Tensor) -> Tensor:
    """Attention-weighted mean over frames: [.., frames, d] x [.., frames] -> [.., d]."""
    weighted = tc.mul(e, tc.reshape(alpha, alpha.shape + (1,)))
    return tc.tsum(weighted, axis=-2)


def frame_params(u: Tensor, gen: FrameAbnGenerator) -> tuple[Tensor, Tensor]:
    """Scale and shift for a whole utterance from its pooled embedding."""
    gamma = tc.affine(u, gen.w_gamma, gen.b_gamma)
    beta = tc.affine(u, gen.w_beta, gen.b_beta)
    return gamma, beta


def utt_project(h_norm: Tensor, gen: UttAbnGenerator) -> tuple[Tensor, Tensor, Tensor]:
    """Bias-free key/query/value projections of standardized frames."""
    k = tc.linear(h_norm, gen.w_key)
    q = tc.linear(h_norm, gen.w_query)
    v = tc.linear(h_norm, gen.w_value)
    return k, q, v


def utt_attention(k: Tensor, q: Tensor, valid=None) -> Tensor:
    """Scaled dot-product attention matrix; row t weights the frames c_t reads.

    Scores are (K_tau . Q_t) / sqrt(d_a); each row is a masked softmax over
    valid frames. ``valid`` masks the key axis: [batch, 1, frames] for a
    batch, so padded query rows still see their utterance's frames.
    """
    d_a = k.shape[-1]
    # Scaling q rather than the scores keeps one [.., T, T] array fewer on the tape.
    scores = tc.matmul(tc.div(q, math.sqrt(float(d_a))), tc.transpose(k))
    return tc.masked_softmax(scores, valid)


def utt_context(alpha: Tensor, v: Tensor) -> Tensor:
    """Per-frame context vectors: weighted sums of value rows."""
    return tc.matmul(alpha, v)


def utt_params(c: Tensor, gen: UttAbnGenerator) -> tuple[Tensor, Tensor]:
    """Per-frame scale and shift from per-frame context vectors."""
    gamma = tc.affine(c, gen.w_gamma, gen.b_gamma)
    beta = tc.affine(c, gen.w_beta, gen.b_beta)
    return gamma, beta


VARIANTS = ("bn", "abn-f", "abn-u")


def abn_forward(
    batch: SequenceBatch,
    state: BatchNormState,
    gen,
    variant: str,
    mode: str,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SequenceBatch:
    """Normalize a batch with learned or attention-generated scale/shift.

    Variant ``bn`` is plain batch norm with the state's learned parameters.
    The attention variants standardize identically, then generate
    (gamma, beta) per utterance (``abn-f``) or per frame (``abn-u``) from
    the standardized activations themselves and apply those instead.
    Dropout, when active, hits the generator's intermediate activations
    only (frame embeddings, or context vectors), never the main signal.
    """
    if variant not in VARIANTS:
        raise ContractError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if variant == "bn":
        return bn_forward(batch, state, mode)
    if variant == "abn-f" and not isinstance(gen, FrameAbnGenerator):
        raise ContractError(f"variant 'abn-f' needs a FrameAbnGenerator, got {type(gen).__name__}")
    if variant == "abn-u" and not isinstance(gen, UttAbnGenerator):
        raise ContractError(f"variant 'abn-u' needs a UttAbnGenerator, got {type(gen).__name__}")
    if gen.feature_dim != batch.dim:
        raise ShapeError(
            f"generator feature dim {gen.feature_dim} does not match batch {batch.dim}"
        )

    b, t_max, p = batch.features.shape
    xhat = tc.reshape(standardize_batch(batch, state, mode), (b, t_max, p))
    mask = batch.frame_mask()  # [B, T]
    if variant == "abn-f":
        e = frame_embed(xhat, gen)
        e = tc.dropout(e, dropout_rate, rng, mode)
        alpha = frame_attention(e, mask)
        u = tc.reshape(frame_pool(e, alpha), (b, 1, gen.embed_dim))
        gamma, beta = frame_params(u, gen)  # [B, 1, p]
        del e, alpha, u
    else:
        k, q, v = utt_project(xhat, gen)
        alpha = utt_attention(k, q, mask[:, None, :])
        c = utt_context(alpha, v)
        # Without a tape this frees the [B, T, T] weights before the heads
        # allocate gamma and beta.
        del k, q, v, alpha
        c = tc.dropout(c, dropout_rate, rng, mode)
        gamma, beta = utt_params(c, gen)  # [B, T, p]
        del c
    return masked_affine(xhat, gamma, beta, batch)
