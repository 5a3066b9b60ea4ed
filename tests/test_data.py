"""The frame layout that every stage of a padded batch shares."""

import numpy as np
import pytest

from abn import errors
from abn.batching import Utterance, make_batches
from abn.ctc import CtcTargets, LabelSequence
from abn.data import Frames, SequenceBatch
from abn.tensor import Tensor


def batch_of(lengths, t_max, dim=3):
    feats = np.random.default_rng(0).normal(size=(len(lengths), t_max, dim))
    return SequenceBatch(Tensor(feats), lengths)


class TestFrames:
    @pytest.mark.parametrize(
        "lengths,t_max",
        [((5, 1, 3), 5), ((4, 4), 4), ((1,), 1), ((1, 1, 1), 1), ((1, 6), 7)],
        ids=["mixed", "full", "one-frame", "t1-batch", "short-of-t"],
    )
    def test_invariants(self, lengths, t_max):
        frames = batch_of(lengths, t_max).frames
        b = len(lengths)
        expect = np.array([[t < n for t in range(t_max)] for n in lengths])
        assert frames.lengths.dtype == np.int64 and frames.lengths.tolist() == list(lengths)
        assert frames.mask.dtype == bool and frames.mask.shape == (b, t_max)
        assert frames.mask_tm.dtype == bool and frames.mask_tm.shape == (t_max, b, 1)
        np.testing.assert_array_equal(frames.mask, expect)
        np.testing.assert_array_equal(frames.mask_tm[:, :, 0], expect.T)
        assert frames.full == min(lengths) and type(frames.full) is int
        assert frames.valid == sum(lengths) and type(frames.valid) is int
        # Every frame before the shortest length is real in every utterance.
        assert frames.mask[:, : frames.full].all()
        live = [max((r + 1 for r, n in enumerate(lengths) if t < n), default=0)
                for t in range(t_max)]
        assert frames.live.dtype == np.int64 and frames.live.tolist() == live

    def test_batch_readers_see_the_layout(self):
        batch = batch_of((5, 1, 3), 5)
        assert batch.lengths is batch.frames.lengths
        assert batch.valid_frames() == 9

    def test_shared_arrays_are_read_only(self):
        lengths = np.array([3, 2])
        frames = batch_of(lengths, 3).frames
        for arr in (frames.lengths, frames.mask, frames.mask_tm, frames.live):
            with pytest.raises(ValueError):
                arr[0] = 0
        lengths[0] = 1  # the caller's array is copied, not frozen
        assert frames.lengths[0] == 3

    def test_wrap_shares_the_object(self):
        batch = batch_of((2, 1), 2)
        assert SequenceBatch._wrap(batch.features, batch.frames).frames is batch.frames

    @pytest.mark.parametrize("lengths", [(0, 2), (3, 4)])
    def test_lengths_checked_before_the_layout(self, lengths):
        with pytest.raises(errors.ShapeError):
            batch_of(lengths, 3)

    def test_live_rows_are_a_prefix(self):
        # Rows from live[t] on are padding at frame t; unsorted lengths keep
        # padded rows inside the prefix, and frames past every length have none.
        frames = Frames(np.array([2, 5, 1, 3]), 7)
        assert frames.live.tolist() == [4, 4, 4, 2, 2, 0, 0]
        for t, k in enumerate(frames.live):
            assert not frames.mask_tm[t, k:].any()
            assert k == 0 or frames.mask_tm[t, k - 1, 0]

    def test_built_from_lengths_alone(self):
        frames = Frames(np.array([2, 1]), 3)
        np.testing.assert_array_equal(frames.mask, [[True, True, False], [True, False, False]])


def test_make_batches_builds_layout_and_targets_once():
    rng = np.random.default_rng(1)
    utts = [Utterance(rng.normal(size=(n, 3)), LabelSequence([1] * (n // 2)))
            for n in (6, 5, 2, 1)]
    batches = make_batches(utts, 12)
    assert [b.features.lengths.tolist() for b in batches] == [[6, 5], [2, 1]]
    for batch, group in zip(batches, (utts[:2], utts[2:])):
        assert isinstance(batch.labels, CtcTargets)
        assert list(batch.labels) == [u.labels for u in group]
        assert batch.features.frames.valid == sum(u.features.shape[0] for u in group)
