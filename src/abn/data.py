"""Padded utterance batches and their frame layout."""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor


class Frames:
    """Which frames of a padded ``[batch, max_frames, .]`` batch are real.

    Built once from the lengths and shared, read-only, by every stage that
    keeps the batch's layout (normalizers, generators, LSTM directions,
    projection, CTC), so no stage rebuilds a mask:

    * ``lengths`` ``[B]``, each utterance's true length
    * ``mask`` ``[B, T]``, True on real frames
    * ``mask_tm`` ``[T, B, 1]``, the same mask time-major
    * ``full``, the shortest length: frames ``t < full`` are real in every
      utterance
    * ``live`` ``[T]``, one past the last utterance still running at each
      frame: rows ``live[t]`` on are padding at frame t (0 once every
      utterance has ended), so a recursion can stop at that row prefix
    * ``valid``, the number of real frames
    """

    __slots__ = ("lengths", "mask", "mask_tm", "full", "live", "valid")

    def __init__(self, lengths: np.ndarray, max_frames: int):
        steps = np.arange(max_frames)
        running = steps[:, None] < lengths  # [T, B]
        self.lengths = lengths
        self.mask = steps < lengths[:, None]
        self.mask_tm = running[:, :, None]
        self.full = int(lengths.min())
        self.live = (running * np.arange(1, len(lengths) + 1)).max(axis=1)
        self.valid = int(lengths.sum())
        for arr in (lengths, self.mask, self.mask_tm, self.live):
            arr.flags.writeable = False


class SequenceBatch:
    """A mini-batch of variable-length feature sequences.

    ``features`` is ``[batch, max_frames, dim]`` with zero padding past each
    utterance's true length; ``frames`` holds those true lengths and the
    masks made from them. Padding frames carry no information and every
    consumer must respect the mask.
    """

    __slots__ = ("features", "frames")

    def __init__(self, features: Tensor, lengths):
        lengths = np.array(lengths, dtype=np.int64)
        if features.ndim != 3:
            raise ShapeError(f"features must be [batch, frames, dim], got {features.shape}")
        if lengths.ndim != 1 or lengths.shape[0] != features.shape[0]:
            raise ShapeError(
                f"lengths {lengths.shape} does not match batch of {features.shape[0]}"
            )
        if np.any(lengths < 1) or np.any(lengths > features.shape[1]):
            raise ShapeError("each length must lie in [1, max_frames]")
        self.features = features
        self.frames = Frames(lengths, features.shape[1])

    @classmethod
    def _wrap(cls, features: Tensor, frames: Frames) -> "SequenceBatch":
        # Internal fast path: features computed from a batch already checked
        # against this layout.
        batch = cls.__new__(cls)
        batch.features = features
        batch.frames = frames
        return batch

    @property
    def lengths(self) -> np.ndarray:
        return self.frames.lengths

    # Read from the trailing axes: features computed in a replica pass
    # carry a leading replica axis (``abn.tensor.per_replica``).
    @property
    def batch_size(self) -> int:
        return self.features.shape[-3]

    @property
    def dim(self) -> int:
        return self.features.shape[-1]

    def valid_frames(self) -> int:
        return self.frames.valid
