"""Padded utterance batches and their frame masks."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor


class SequenceBatch:
    """A mini-batch of variable-length feature sequences.

    ``features`` is ``[batch, max_frames, dim]`` with zero padding past each
    utterance's true length; ``lengths`` gives those true lengths. Padding
    frames carry no information and every consumer must respect the mask.
    """

    __slots__ = ("features", "lengths")

    def __init__(self, features: Tensor, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if features.ndim != 3:
            raise ShapeError(f"features must be [batch, frames, dim], got {features.shape}")
        if lengths.ndim != 1 or lengths.shape[0] != features.shape[0]:
            raise ShapeError(
                f"lengths {lengths.shape} does not match batch of {features.shape[0]}"
            )
        if np.any(lengths < 1) or np.any(lengths > features.shape[1]):
            raise ShapeError("each length must lie in [1, max_frames]")
        self.features = features
        self.lengths = lengths

    @classmethod
    def _wrap(cls, features: Tensor, lengths: np.ndarray) -> "SequenceBatch":
        # Internal fast path: features computed from a batch already checked
        # against these lengths.
        batch = cls.__new__(cls)
        batch.features = features
        batch.lengths = lengths
        return batch

    @property
    def batch_size(self) -> int:
        return self.features.shape[0]

    @property
    def max_frames(self) -> int:
        return self.features.shape[1]

    @property
    def dim(self) -> int:
        return self.features.shape[2]

    def frame_mask(self) -> np.ndarray:
        """Boolean ``[batch, max_frames]``, True on real frames."""
        return np.arange(self.max_frames)[None, :] < self.lengths[:, None]

    def valid_frames(self) -> int:
        return int(self.lengths.sum())
