"""Batch normalization over the valid frames of padded sequence batches.

Statistics are per feature, pooled over every valid frame of every
utterance in the mini-batch; padded frames never contribute. Training mode
standardizes with batch statistics and folds them into exponential running
averages; inference standardizes with the running averages. Outputs are
zeroed on padded frames so downstream consumers see no garbage there.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tc
from .data import SequenceBatch
from .errors import DegenerateBatchError, ShapeError
from .tensor import Tensor


class BatchNormState:
    """Learnable scale/shift plus running statistics for one normalizer."""

    __slots__ = ("gamma", "beta", "running_mean", "running_var", "epsilon", "momentum")

    def __init__(self, gamma, beta, running_mean, running_var, epsilon, momentum):
        if not epsilon > 0:
            raise ShapeError(f"epsilon must be positive, got {epsilon}")
        if not 0.0 < momentum <= 1.0:
            raise ShapeError(f"momentum must lie in (0, 1], got {momentum}")
        p = gamma.shape[0]
        for name, t in (("beta", beta), ("running_mean", running_mean),
                        ("running_var", running_var)):
            if t.shape != (p,):
                raise ShapeError(f"{name} shape {t.shape} does not match gamma {gamma.shape}")
        if not np.all(running_var.data >= 0):
            raise ShapeError("running_var must be non-negative")
        self.gamma = gamma
        self.beta = beta
        self.running_mean = running_mean
        self.running_var = running_var
        self.epsilon = float(epsilon)
        self.momentum = float(momentum)

    @classmethod
    def fresh(cls, feature_dim: int, epsilon: float = 1e-5, momentum: float = 0.1):
        return cls(
            gamma=tc.ones(feature_dim),
            beta=tc.zeros(feature_dim),
            running_mean=tc.zeros(feature_dim),
            running_var=tc.ones(feature_dim),
            epsilon=epsilon,
            momentum=momentum,
        )

    @property
    def feature_dim(self) -> int:
        return self.gamma.shape[0]


def standardize_batch(batch: SequenceBatch, state: BatchNormState, mode: str) -> Tensor:
    """Standardized (pre-affine) frames, flattened to [batch*frames, dim].

    One taped node. Train mode takes the per-feature mean and population
    variance over the valid frames and updates the running averages in
    place; infer mode reads the running averages. Every row, padded ones
    included, is ``(x - mu) / sqrt(var + epsilon)``. The affine stage is
    left to the caller because generated scale/shift parameters substitute
    for the learned ones in the attention variants.

    The VJP is the closed-form batch-norm backward (Ioffe & Szegedy 2015,
    section 3). Padded rows of xhat also read mu and var, so its sums run
    over every row, while only valid rows pass gradient into the
    statistics: with ``m`` the frame mask and ``n`` the valid count,
    ``dx = (g - m * (sum(g) + xhat * sum(g * xhat)) / n) / sqrt(var + eps)``.
    """
    if mode not in ("train", "infer"):
        raise ShapeError(f"mode must be 'train' or 'infer', got {mode!r}")
    if batch.dim != state.feature_dim:
        raise ShapeError(
            f"batch feature dim {batch.dim} does not match state {state.feature_dim}"
        )
    b, t_max, p = batch.features.shape
    flat = batch.features.data.reshape(b * t_max, p)
    if mode == "train":
        n = batch.frames.valid
        if n < 2:
            raise DegenerateBatchError(
                f"need at least 2 valid frames for batch statistics, got {n}"
            )
        maskcol = batch.frames.mask.astype(np.float64).reshape(-1, 1)
        mu = np.sum(flat * maskcol, axis=0) / n
        diff = flat - mu
        squares = diff * maskcol
        squares *= squares
        var = np.sum(squares, axis=0) / n
        del squares  # one [B*T, p] array fewer while xhat is made
        m = state.momentum
        state.running_mean = Tensor._wrap((1.0 - m) * state.running_mean.data + m * mu)
        state.running_var = Tensor._wrap((1.0 - m) * state.running_var.data + m * var)
    else:
        mu, var = state.running_mean.data, state.running_var.data
        diff = flat - mu
    std = np.sqrt(var + state.epsilon)
    xhat = diff
    xhat /= std
    out = Tensor._wrap(xhat)

    def vjp(g):
        if mode == "infer":
            return ((g / std).reshape(b, t_max, p),)
        g = g.reshape(b * t_max, p)
        shift = np.sum(g, axis=0) / n + xhat * (np.sum(g * xhat, axis=0) / n)
        return (((g - maskcol * shift) / std).reshape(b, t_max, p),)

    tc.record_op(out, (batch.features,), vjp)
    return out


def masked_affine(
    xhat: Tensor, gamma: Tensor, beta: Tensor, batch: SequenceBatch
) -> SequenceBatch:
    """``(xhat * gamma + beta) * mask`` in the batch's layout, one taped node.

    ``xhat`` holds the batch's standardized frames, ``[B*T, p]`` or
    ``[B, T, p]``. ``gamma`` and ``beta`` share one shape that broadcasts
    to ``[B, T, p]``: learned ``[p]``, one pair per utterance ``[B, 1, p]``,
    or one per frame ``[B, T, p]``. Padded frames come out exactly zero and
    pass no gradient back. Plain batch norm runs this node; the attention
    generators' nodes end in the same arithmetic (``masked_affine_array``
    and ``masked_affine_vjp``), so zero-initialized generator heads
    reproduce plain batch norm bit for bit.
    """
    b, t_max, p = batch.features.shape
    if gamma.shape != beta.shape or gamma.shape[-1] != p:
        raise ShapeError(
            f"affine shapes disagree: xhat {xhat.shape}, gamma {gamma.shape}, beta {beta.shape}"
        )
    x = xhat.data.reshape(b, t_max, p)
    mask = batch.frames.mask[:, :, None]
    out = Tensor._wrap(masked_affine_array(x, gamma.data, beta.data, mask))

    def vjp(g):
        g_x, g_gamma, g_beta = masked_affine_vjp(g, x, gamma.data, mask)
        return g_x.reshape(xhat.shape), g_gamma, g_beta

    tc.record_op(out, (xhat, gamma, beta), vjp)
    return SequenceBatch._wrap(out, batch.frames)


def masked_affine_array(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """``(x * gamma + beta) * mask`` for ``[B, T, p]`` frames, in one fresh array.

    ``mask`` is the ``[B, T, 1]`` frame mask; ``gamma`` and ``beta`` share
    one shape that broadcasts to ``x``.
    """
    y = np.multiply(x, gamma)
    y += beta
    y *= mask
    return y


def masked_affine_vjp(g: np.ndarray, x: np.ndarray, gamma: np.ndarray, mask: np.ndarray):
    """Gradients of ``masked_affine_array`` for ``x``, ``gamma`` and ``beta``."""
    g = g * mask
    return g * gamma, tc._unbroadcast(g * x, gamma.shape), tc._unbroadcast(g, gamma.shape)


def bn_forward(batch: SequenceBatch, state: BatchNormState, mode: str) -> SequenceBatch:
    """Full batch-norm pass: standardize, scale/shift, re-zero padding."""
    return masked_affine(standardize_batch(batch, state, mode), state.gamma, state.beta, batch)
