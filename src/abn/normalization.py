"""Batch normalization over the valid frames of padded sequence batches.

Statistics are per feature, pooled over every valid frame of every
utterance in the mini-batch; padded frames never contribute. Training mode
standardizes with batch statistics and folds them into exponential running
averages; inference standardizes with the running averages. This module
holds the statistics, the standardization and the masked scale/shift
arithmetic; ``abn.generators.abn_forward`` joins them in one taped node,
whose outputs are zero on padded frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tc
from .data import SequenceBatch
from .tensor import Tensor


@dataclass(slots=True, eq=False)
class BatchNormState:
    """Running statistics of one normalizer, with its variance floor and
    update weight. The scale and shift come from the layer's generator.

    A plain record: ``ModelConfig`` bounds epsilon and momentum, and
    ``Model.set_parameter`` checks every stored array that enters from
    outside (its shape, and a non-negative ``running_var``)."""

    running_mean: Tensor
    running_var: Tensor
    epsilon: float
    momentum: float

    @classmethod
    def fresh(cls, feature_dim: int, epsilon: float = 1e-5, momentum: float = 0.1):
        return cls(tc.zeros(feature_dim), tc.ones(feature_dim), epsilon, momentum)


def standardize_batch(batch: SequenceBatch, state: BatchNormState, mode: str):
    """Standardized (pre-affine) frames ``[B, T, p]`` and their VJP.

    Train mode takes the per-feature mean and population variance over the
    valid frames and updates the running averages in place; infer mode
    reads the running averages. Every frame, padded ones included, is
    ``(x - mu) / sqrt(var + epsilon)``. Nothing is recorded: the caller's
    node (``abn.generators.abn_forward``) scales and shifts the frames and
    runs the returned VJP, which maps a ``[B, T, p]`` gradient of the
    standardized frames to one of ``batch.features``.

    The VJP is the closed-form batch-norm backward (Ioffe & Szegedy 2015,
    section 3). Padded rows of xhat also read mu and var, so its sums run
    over every row, while only valid rows pass gradient into the
    statistics: with ``m`` the frame mask and ``n`` the valid count,
    ``dx = (g - m * (sum(g) + xhat * sum(g * xhat)) / n) / sqrt(var + eps)``.

    Untaped in train mode, the batch may carry a leading replica axis
    (``tc.per_replica``): each replica then takes its own statistics, and
    the running averages are not updated. Nothing is checked here: the
    pass's gate (``abn.recurrent.run_layers``) refuses any other mode, a
    train batch of fewer than 2 valid frames and a batch of the wrong
    width before any stage runs.
    """
    lead, (b, t_max, p) = batch.features.shape[:-3], batch.features.shape[-3:]
    flat = batch.features.data.reshape(lead + (b * t_max, p))
    if mode == "train":
        n = batch.frames.valid
        maskcol = batch.frames.mask.astype(np.float64).reshape(-1, 1)
        mu = np.sum(flat * maskcol, axis=-2, keepdims=True) / n
        diff = flat - mu
        squares = diff * maskcol
        squares *= squares
        var = np.sum(squares, axis=-2, keepdims=True) / n
        del squares  # one [B*T, p] array fewer while xhat is made
        if not lead:  # a replica pass keeps the one [p] of each statistic
            m = state.momentum
            state.running_mean = Tensor._wrap((1.0 - m) * state.running_mean.data + m * mu[0])
            state.running_var = Tensor._wrap((1.0 - m) * state.running_var.data + m * var[0])
    else:
        mu, var = state.running_mean.data, state.running_var.data
        diff = flat - mu
    std = np.sqrt(var + state.epsilon)
    xhat = diff
    xhat /= std

    def vjp(g):
        if mode == "infer":
            return g / std
        g = g.reshape(b * t_max, p)
        shift = np.sum(g, axis=0) / n + xhat * (np.sum(g * xhat, axis=0) / n)
        return ((g - maskcol * shift) / std).reshape(b, t_max, p)

    return xhat.reshape(lead + (b, t_max, p)), vjp


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
