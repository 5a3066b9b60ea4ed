"""Length-sorted batching with a padded-frame budget."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .ctc import CtcTargets, LabelSequence
from .data import SequenceBatch
from .errors import BatchingError
from .tensor import Tensor


class Utterance(NamedTuple):
    features: np.ndarray  # [frames, dim]
    labels: LabelSequence


class _BatchFields(NamedTuple):
    features: SequenceBatch
    labels: CtcTargets


class Batch(_BatchFields):
    """A padded batch and its targets. ``labels`` comes as a sequence of
    ``LabelSequence`` and is kept as their ``CtcTargets``, so the lattice is
    built once, here, for every loss and score of the batch."""

    __slots__ = ()

    def __new__(cls, features: SequenceBatch, labels: Sequence[LabelSequence]):
        return super().__new__(cls, features, CtcTargets(labels))


def make_batches(utterances: Sequence[Utterance], max_frames: int) -> list[Batch]:
    """Group consecutive utterances so padded frames stay within budget.

    Input must already be sorted by length, longest first. Each batch holds
    floor(max_frames / longest) utterances, all zero-padded to the longest
    in that batch, so batch_size * longest never exceeds ``max_frames``.
    Each batch's frame layout and CTC lattice are built here, once.
    """
    lengths = [u.features.shape[0] for u in utterances]
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise BatchingError("utterances must be sorted by length, longest first")
    batches = []
    i = 0
    while i < len(utterances):
        l_max = lengths[i]
        per_batch = max_frames // l_max
        if per_batch < 1:
            raise BatchingError(
                f"utterance {i} has {l_max} frames, over the budget of {max_frames}"
            )
        group = utterances[i : i + per_batch]
        dim = group[0].features.shape[1]
        padded = np.zeros((len(group), l_max, dim))
        for j, utt in enumerate(group):
            padded[j, : utt.features.shape[0]] = utt.features
        batches.append(
            Batch(
                SequenceBatch(Tensor(padded), [u.features.shape[0] for u in group]),
                [u.labels for u in group],
            )
        )
        i += per_batch
    return batches
