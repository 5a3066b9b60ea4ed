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


def _check_heads(p: int, d: int, w_gamma, b_gamma, w_beta, b_beta) -> None:
    """Check the shapes of the two output heads, which map width ``d`` to ``p`` features."""
    for name, t, shape in (("w_gamma", w_gamma, (p, d)), ("b_gamma", b_gamma, (p,)),
                           ("w_beta", w_beta, (p, d)), ("b_beta", b_beta, (p,))):
        if t.shape != shape:
            raise ShapeError(f"{name} must be {list(shape)}, got {t.shape}")


def _fresh_heads(p: int, d: int) -> dict[str, Tensor]:
    """Output heads that emit gamma = 1 and beta = 0 whatever their input."""
    return dict(w_gamma=tc.zeros(p, d), b_gamma=tc.ones(p),
                w_beta=tc.zeros(p, d), b_beta=tc.zeros(p))


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
        _check_heads(p, d_e, w_gamma, b_gamma, w_beta, b_beta)
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
            **_fresh_heads(feature_dim, embed_dim),
        )

    @property
    def feature_dim(self) -> int:
        return self.w_embed.shape[1]

    def scale_shift(self, xhat: Tensor, mask, dropout_rate: float, rng, mode: str):
        """One (gamma, beta) pair per utterance, ``[B, 1, p]``, from ``[B, T, p]`` frames."""
        e = tc.dropout(frame_embed(xhat, self), dropout_rate, rng, mode)
        u = frame_pool(e, frame_attention(e, mask))  # [B, d_e]
        return head_params(tc.reshape(u, (u.shape[0], 1, u.shape[1])), self)


class UttAbnGenerator:
    """Self-attention generator: one (gamma_t, beta_t) per frame."""

    __slots__ = ("w_key", "w_query", "w_value", "w_gamma", "b_gamma", "w_beta", "b_beta")

    def __init__(self, w_key, w_query, w_value, w_gamma, b_gamma, w_beta, b_beta):
        d_a, p = w_key.shape
        for name, t in (("w_query", w_query), ("w_value", w_value)):
            if t.shape != (d_a, p):
                raise ShapeError(f"{name} must be [{d_a}, {p}], got {t.shape}")
        _check_heads(p, d_a, w_gamma, b_gamma, w_beta, b_beta)
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
            **_fresh_heads(feature_dim, attn_dim),
        )

    @property
    def feature_dim(self) -> int:
        return self.w_key.shape[1]

    def scale_shift(self, xhat: Tensor, mask, dropout_rate: float, rng, mode: str):
        """One (gamma_t, beta_t) pair per frame, ``[B, T, p]``, from ``[B, T, p]`` frames."""
        k, q, v = utt_project(xhat, self)
        alpha = utt_attention(k, q, mask[:, None, :])
        c = utt_context(alpha, v)
        # Without a tape this frees the [B, T, T] weights before the heads
        # allocate gamma and beta.
        del k, q, v, alpha
        c = tc.dropout(c, dropout_rate, rng, mode)
        return head_params(c, self)


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


def head_params(z: Tensor, gen) -> tuple[Tensor, Tensor]:
    """Scale and shift from a generator's output heads.

    ``z`` is abn-f's pooled embedding (one pair per utterance) or abn-u's
    per-frame context vectors (one pair per frame).
    """
    gamma = tc.affine(z, gen.w_gamma, gen.b_gamma)
    beta = tc.affine(z, gen.w_beta, gen.b_beta)
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


# Each attention variant's generator class, and the ModelConfig field that
# holds its width. Plain "bn" has no generator.
GENERATORS = {"abn-f": (FrameAbnGenerator, "embed_dim"), "abn-u": (UttAbnGenerator, "attn_dim")}
VARIANTS = ("bn", *GENERATORS)


def abn_forward(
    batch: SequenceBatch,
    state: BatchNormState,
    gen,
    mode: str,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SequenceBatch:
    """Normalize a batch with learned or attention-generated scale/shift.

    With no generator (``gen is None``) this is plain batch norm with the
    state's learned parameters. A generator standardizes identically, then
    generates (gamma, beta) from the standardized activations themselves
    (``gen.scale_shift``) and applies those instead. Dropout, when active,
    hits the generator's intermediate activations only (frame embeddings,
    or context vectors), never the main signal.
    """
    if gen is None:
        return bn_forward(batch, state, mode)
    if gen.feature_dim != batch.dim:
        raise ShapeError(
            f"generator feature dim {gen.feature_dim} does not match batch {batch.dim}"
        )
    b, t_max, p = batch.features.shape
    xhat = tc.reshape(standardize_batch(batch, state, mode), (b, t_max, p))
    gamma, beta = gen.scale_shift(xhat, batch.frame_mask(), dropout_rate, rng, mode)
    return masked_affine(xhat, gamma, beta, batch)
