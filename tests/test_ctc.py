"""CTC loss against closed forms and the enumeration oracle."""

import itertools
import math

import numpy as np
import pytest

from abn import errors
from abn.ctc import (
    BLANK,
    CtcTargets,
    LabelSequence,
    ctc_brute_force,
    edit_distance,
    greedy_decode,
    sequence_ctc_loss,
)
from abn.data import Frames, SequenceBatch
from abn.tensor import GradTape, Tensor, backward, recording

from taped import finite_diff_check


def min_frames(labels: LabelSequence) -> int:
    """Fewest frames that can emit the labels (repeats force a blank between),
    counted one utterance at a time: the reference for ``CtcTargets.min_frames``."""
    repeats = sum(
        1 for a, b in zip(labels.tokens, labels.tokens[1:]) if a == b
    )
    return len(labels) + repeats


def one_utterance(logits, tokens) -> tuple[SequenceBatch, CtcTargets]:
    """A batch of one utterance, every frame real, from ``[T, V]`` logits,
    and its targets."""
    batch = SequenceBatch(Tensor(np.asarray(logits)[None]), [len(logits)])
    return batch, CtcTargets([LabelSequence(tokens)])


class TestLabelSequence:
    def test_rejects_blank(self):
        with pytest.raises(errors.ContractError):
            LabelSequence([1, BLANK, 2])

    def test_rejects_negative(self):
        with pytest.raises(errors.ContractError):
            LabelSequence([-1])

    def test_empty_allowed(self):
        assert len(LabelSequence([])) == 0

    def test_min_frames_counts_repeats(self):
        assert min_frames(LabelSequence([1, 2, 3])) == 3
        assert min_frames(LabelSequence([1, 1])) == 3
        assert min_frames(LabelSequence([1, 1, 1])) == 5
        assert min_frames(LabelSequence([])) == 0


class TestCtcLossClosedForms:
    def test_single_frame_uniform(self):
        loss = sequence_ctc_loss(*one_utterance([[0.0, 0.0]], [1]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_two_frames_uniform(self):
        loss = sequence_ctc_loss(*one_utterance([[0.0, 0.0], [0.0, 0.0]], [1]))
        # paths (a,a), (a,-), (-,a): p = 3/4
        assert loss.item() == pytest.approx(-math.log(0.75), abs=1e-12)
        assert loss.item() == pytest.approx(0.2876820724517809, abs=1e-12)

    def test_empty_labels_all_blank_path(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(3, 4))
        loss = sequence_ctc_loss(*one_utterance(logits, []))
        y_log = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        assert loss.item() == pytest.approx(-y_log[:, BLANK].sum(), abs=1e-12)

    def test_infeasible_gives_infinite_loss_and_zero_grad(self):
        batch, targets = one_utterance(np.random.default_rng(3).normal(size=(2, 3)), [1, 1])
        tape = GradTape()
        with recording(tape):
            loss = sequence_ctc_loss(batch, targets)  # needs 3 frames
        assert math.isinf(loss.item())
        g = backward(tape, loss).wrt(batch.features)
        np.testing.assert_array_equal(g, np.zeros((1, 2, 3)))
        assert CtcTargets([LabelSequence([1, 1])]).min_frames[0] > 2

    def test_label_outside_vocab_rejected(self):
        with pytest.raises(errors.ContractError):
            sequence_ctc_loss(*one_utterance(np.zeros((3, 2)), [2]))

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 3))
        base = sequence_ctc_loss(*one_utterance(logits, [2, 1])).item()
        shifted = logits + rng.normal(size=(4, 1))  # per-frame constant
        got = sequence_ctc_loss(*one_utterance(shifted, [2, 1])).item()
        assert got == pytest.approx(base, abs=1e-10)


class TestBruteForce:
    def test_matches_closed_forms(self):
        lp_uniform = np.log(np.full((1, 2), 0.5))
        assert ctc_brute_force(lp_uniform, LabelSequence([1])) == pytest.approx(
            math.log(2.0), abs=1e-12
        )
        lp2 = np.log(np.full((2, 2), 0.5))
        assert ctc_brute_force(lp2, LabelSequence([1])) == pytest.approx(
            -math.log(0.75), abs=1e-12
        )

    def test_labels_longer_than_frames(self):
        lp = np.log(np.full((2, 3), 1.0 / 3.0))
        assert math.isinf(ctc_brute_force(lp, LabelSequence([1, 2, 1])))

    def test_deterministic_path_probability_one(self):
        lp = np.full((3, 2), -np.inf)
        lp[0, 1] = 0.0  # emit token 1
        lp[1, 0] = 0.0  # blank
        lp[2, 1] = 0.0  # emit token 1 again
        assert ctc_brute_force(lp, LabelSequence([1, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_refuses_large_instances(self):
        with pytest.raises(errors.ContractError):
            ctc_brute_force(np.zeros((9, 2)), LabelSequence([1]))
        with pytest.raises(errors.ContractError):
            ctc_brute_force(np.zeros((3, 5)), LabelSequence([1]))


def all_label_sequences(vocab, max_len):
    tokens = range(1, vocab)
    for length in range(max_len + 1):
        for combo in itertools.product(tokens, repeat=length):
            yield LabelSequence(list(combo))


class TestOracleSweep:
    @pytest.mark.parametrize("vocab", [2, 3])
    def test_exhaustive_agreement(self, vocab):
        rng = np.random.default_rng(1000 + vocab)
        for t_frames in range(1, 7):
            for labels in all_label_sequences(vocab, 3):
                logits = rng.normal(size=(t_frames, vocab))
                y_log = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
                expect = ctc_brute_force(y_log, labels)
                got = sequence_ctc_loss(*one_utterance(logits, labels.tokens)).item()
                if math.isinf(expect):
                    assert math.isinf(got), f"T={t_frames}, labels={labels}"
                else:
                    assert got == pytest.approx(expect, abs=1e-9), (
                        f"T={t_frames}, labels={labels}"
                    )


class TestGradient:
    @pytest.mark.parametrize(
        "t_frames,tokens",
        [(3, [1]), (4, [2, 1]), (5, [1, 1]), (6, [1, 2, 1]), (2, [])],
    )
    def test_finite_differences(self, t_frames, tokens):
        rng = np.random.default_rng(60 + t_frames)
        logits = Tensor(rng.normal(size=(1, t_frames, 3)))
        targets = CtcTargets([LabelSequence(tokens)])
        err = finite_diff_check(
            lambda t: sequence_ctc_loss(SequenceBatch(t, [t_frames]), targets), logits
        )
        assert err < 1e-4

    def test_gradient_rows_sum_to_zero(self):
        # Shift invariance implies each frame's gradient sums to zero.
        rng = np.random.default_rng(70)
        batch, targets = one_utterance(rng.normal(size=(5, 3)), [1, 2])
        tape = GradTape()
        with recording(tape):
            loss = sequence_ctc_loss(batch, targets)
        g = backward(tape, loss).wrt(batch.features)[0]
        np.testing.assert_allclose(g.sum(axis=1), np.zeros(5), atol=1e-12)


def _decode_one(logits: np.ndarray) -> list[int]:
    """``greedy_decode`` on a batch of one utterance, every frame real."""
    tokens, lengths = greedy_decode(SequenceBatch(Tensor(logits[None]), [len(logits)]))
    return tokens[0, : lengths[0]].tolist()


def _loop_decode(logits: np.ndarray, length: int) -> list[int]:
    """The per-frame loop that ``greedy_decode`` replaced, over one
    utterance's real frames: the reference for its hypotheses."""
    out = []
    prev = None
    for sym in np.argmax(logits[:length], axis=1):
        if sym != prev and sym != BLANK:
            out.append(int(sym))
        prev = sym
    return out


class TestGreedyDecode:
    def test_collapse_repeats(self):
        logits = np.full((4, 3), -5.0)
        for t, sym in enumerate((1, 1, 0, 1)):
            logits[t, sym] = 5.0
        assert _decode_one(logits) == [1, 1]

    def test_all_blank(self):
        logits = np.zeros((3, 2))
        logits[:, BLANK] = 9.0
        assert _decode_one(logits) == []

    def test_blank_separates(self):
        logits = np.full((3, 3), -5.0)
        for t, sym in enumerate((1, 0, 2)):
            logits[t, sym] = 5.0
        assert _decode_one(logits) == [1, 2]

    def test_ties_pick_lowest_index(self):
        assert _decode_one(np.zeros((2, 3))) == []

    def test_padded_batch_matches_per_frame_loop(self):
        # Small integer logits tie often; padded frames favour the last
        # token, so any frame past an utterance's length that leaked into its
        # hypothesis, or into the repeat test of its last real frame, shows.
        rng = np.random.default_rng(71)
        for trial in range(200):
            b = int(rng.integers(1, 6))
            t_max = int(rng.integers(1, 9))
            vocab = int(rng.integers(2, 5))
            logits = rng.integers(-1, 2, size=(b, t_max, vocab)).astype(np.float64)
            n_frames = rng.integers(1, t_max + 1, size=b)
            n_frames[0] = t_max
            if b > 1:
                n_frames[1] = 1
            if b > 2:
                logits[2, :, BLANK] = 5.0  # an all-blank row
            for row, length in enumerate(n_frames):
                logits[row, length:] = 0.0
                logits[row, length:, vocab - 1] = 9.0
            tokens, lengths = greedy_decode(SequenceBatch(Tensor(logits), n_frames))
            assert tokens.shape == (b, t_max) and lengths.shape == (b,)
            for row, length in enumerate(n_frames):
                expect = _loop_decode(logits[row], length)
                assert lengths[row] == len(expect), trial
                assert tokens[row, : len(expect)].tolist() == expect, trial
                assert (tokens[row, len(expect) :] == BLANK).all(), trial  # the padding

    def test_refuses_a_replica_axis(self):
        logits = SequenceBatch._wrap(Tensor(np.zeros((2, 1, 3, 4))), Frames(np.array([3]), 3))
        with pytest.raises(errors.ShapeError):
            greedy_decode(logits)


def _loop_edit_distance(hyp, ref) -> int:
    """Levenshtein distance with unit costs, one pair at a time: the
    reference for the batched ``edit_distance``."""
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        curr = [i] + [0] * len(ref)
        for j, r in enumerate(ref, start=1):
            curr[j] = min(
                prev[j] + 1,          # delete h
                curr[j - 1] + 1,      # insert r
                prev[j - 1] + (h != r),
            )
        prev = curr
    return prev[-1]


def _batch_distances(hyps, refs, pad=0) -> list[int]:
    """``edit_distance`` of token lists, the hypotheses laid out as
    ``greedy_decode`` returns them: left-aligned rows padded with the blank,
    ``pad`` columns wider than the longest."""
    lengths = np.array([len(h) for h in hyps])
    tokens = np.full((len(hyps), lengths.max() + pad), BLANK)
    for row, hyp in enumerate(hyps):
        tokens[row, : len(hyp)] = hyp
    return edit_distance(tokens, lengths, CtcTargets([LabelSequence(r) for r in refs])).tolist()


class TestErrorRate:
    """Training's token error rate is edit distance over reference tokens."""

    def test_edit_distance_dp(self):
        kitten, sitting = ([ord(c) - ord("a") + 1 for c in word] for word in ("kitten", "sitting"))
        hyps = [[1, 2, 3], [], [1, 3, 5], kitten]
        refs = [[2, 3, 4], [1, 1], [1, 3, 5], sitting]
        for hyp, ref, expect in zip(hyps, refs, (2, 2, 0, 3)):
            assert _loop_edit_distance(hyp, ref) == expect
            assert _batch_distances([hyp], [ref], pad=1) == [expect]
        assert _batch_distances(hyps, refs) == [2, 2, 0, 3]

    def test_empty_sides(self):
        hyps = [[], [], [2, 1, 2], [1]]
        refs = [[], [1, 2], [], [1, 1, 2, 1]]
        assert _batch_distances(hyps, refs, pad=2) == [0, 2, 3, 3]
        assert _batch_distances([[]], [[]]) == [0]  # every row empty: no DP row runs
        assert _batch_distances([[3, 3, 1, 2, 1]], [[1]]) == [4]

    def test_all_blank_logits_score_every_reference_token(self):
        logits = np.zeros((3, 4, 3))
        logits[:, :, BLANK] = 1.0
        tokens, lengths = greedy_decode(SequenceBatch(Tensor(logits), [4, 2, 1]))
        assert lengths.tolist() == [0, 0, 0] and (tokens == BLANK).all()
        targets = CtcTargets([LabelSequence([1, 2]), LabelSequence([]), LabelSequence([2])])
        assert edit_distance(tokens, lengths, targets).tolist() == [2, 0, 1]

    def test_matches_per_pair_loop(self):
        # Decoded from small integer logits, which tie often: hypotheses of
        # 0 to T tokens against references of 0-5, so empty ones on either
        # side, hypotheses longer than their references and B = 1 all occur.
        rng = np.random.default_rng(72)
        seen = {"empty hyp": 0, "empty ref": 0, "longer hyp": 0, "B=1": 0}
        for trial in range(3000):
            b = int(rng.integers(1, 8))
            t_max = int(rng.integers(1, 12))
            vocab = int(rng.integers(2, 5))
            logits = rng.integers(-1, 2, size=(b, t_max, vocab)).astype(np.float64)
            n_frames = rng.integers(1, t_max + 1, size=b)
            refs = [rng.integers(1, vocab, size=int(rng.integers(0, 6))).tolist() for _ in range(b)]
            tokens, lengths = greedy_decode(SequenceBatch(Tensor(logits), n_frames))
            targets = CtcTargets([LabelSequence(r) for r in refs])
            got = edit_distance(tokens, lengths, targets)
            hyps = [_loop_decode(logits[row], n) for row, n in enumerate(n_frames)]
            assert got.tolist() == [_loop_edit_distance(h, r) for h, r in zip(hyps, refs)], trial
            seen["empty hyp"] += sum(not h for h in hyps)
            seen["empty ref"] += sum(not r for r in refs)
            seen["longer hyp"] += sum(len(h) > len(r) for h, r in zip(hyps, refs))
            seen["B=1"] += b == 1
        assert min(seen.values()) >= 100, seen


class TestSequenceLoss:
    def test_mean_over_utterances(self):
        rng = np.random.default_rng(80)
        feats = rng.normal(size=(2, 4, 3))
        batch = SequenceBatch(Tensor(feats), [4, 2])
        total = sequence_ctc_loss(batch, CtcTargets([LabelSequence([1, 2]), LabelSequence([1])]))
        l0 = sequence_ctc_loss(*one_utterance(feats[0], [1, 2])).item()
        l1 = sequence_ctc_loss(*one_utterance(feats[1, :2], [1])).item()
        assert total.item() == pytest.approx((l0 + l1) / 2.0, abs=1e-12)

    def test_only_valid_frames_consumed(self):
        rng = np.random.default_rng(81)
        feats = rng.normal(size=(1, 5, 3))
        corrupted = feats.copy()
        corrupted[0, 3:] = 77.0
        labels = CtcTargets([LabelSequence([2])])
        a = sequence_ctc_loss(SequenceBatch(Tensor(feats), [3]), labels)
        b = sequence_ctc_loss(SequenceBatch(Tensor(corrupted), [3]), labels)
        assert a.item() == b.item()

    def test_infeasible_member_poisons_batch(self):
        feats = Tensor(np.zeros((2, 2, 3)))
        batch = SequenceBatch(feats, [2, 1])
        labels = CtcTargets([LabelSequence([1]), LabelSequence([1, 1])])
        tape = GradTape()
        with recording(tape):
            loss = sequence_ctc_loss(batch, labels)
        assert math.isinf(loss.item())
        np.testing.assert_array_equal(backward(tape, loss).wrt(feats), np.zeros((2, 2, 3)))

    def test_label_count_mismatch(self):
        batch = SequenceBatch(Tensor(np.zeros((2, 2, 3))), [2, 2])
        with pytest.raises(errors.ShapeError):
            sequence_ctc_loss(batch, CtcTargets([LabelSequence([1])]))

    def test_gradient_through_batch(self):
        rng = np.random.default_rng(82)
        feats = Tensor(rng.normal(size=(2, 4, 3)))
        labels = CtcTargets([LabelSequence([1, 2]), LabelSequence([2])])

        def f(theta):
            return sequence_ctc_loss(SequenceBatch(theta, [4, 3]), labels)

        assert finite_diff_check(f, feats) < 1e-4


class TestBatchedAgainstPerUtterance:
    """One padded batch through the batched kernel against each utterance alone.

    The batch mixes a full-length utterance with lengths 1, 3 and 6, an
    empty label (a one-column lattice), a repeat that forces a blank, and
    labels shorter than the widest, so lattice columns are padded.
    """

    LENGTHS = [7, 1, 3, 6, 4]
    TOKENS = [[1, 2, 1, 2], [], [2, 2], [1], [2, 1]]

    def _batch(self, seed):
        feats = np.random.default_rng(seed).normal(size=(5, 7, 3)) * 2.0
        return feats, CtcTargets([LabelSequence(t) for t in self.TOKENS])

    def test_loss_and_gradient_rows(self):
        feats, labels = self._batch(90)
        x = Tensor(feats)
        tape = GradTape()
        with recording(tape):
            loss = sequence_ctc_loss(SequenceBatch(x, self.LENGTHS), labels)
        assert len(tape) == 1
        grad = backward(tape, loss).wrt(x)

        singles = []
        for b, (length, lab) in enumerate(zip(self.LENGTHS, labels)):
            row, target = one_utterance(feats[b, :length], lab.tokens)
            t = GradTape()
            with recording(t):
                single = sequence_ctc_loss(row, target)
            singles.append(single.item())
            expect = backward(t, single).wrt(row.features)[0] / len(labels)
            np.testing.assert_allclose(grad[b, :length], expect, rtol=0, atol=1e-12)
            assert np.all(grad[b, length:] == 0.0)
        assert loss.item() == pytest.approx(np.mean(singles), rel=1e-12, abs=0)

    def test_finite_differences(self):
        feats, labels = self._batch(91)

        def f(theta):
            return sequence_ctc_loss(SequenceBatch(theta, self.LENGTHS), labels)

        assert finite_diff_check(f, Tensor(feats)) < 1e-4


class TestPaddedBatchOracle:
    def test_batch_mean_matches_enumeration(self):
        rng = np.random.default_rng(95)
        for _ in range(20):
            n_utt = int(rng.integers(1, 5))
            t_max = int(rng.integers(1, 7))
            vocab = int(rng.integers(2, 4))
            lengths = rng.integers(1, t_max + 1, size=n_utt)
            # Up to 3 tokens and no more than frames; repeats can still make
            # a member infeasible, which must make the batch loss infinite.
            sizes = [int(rng.integers(0, min(n, 3) + 1)) for n in lengths]
            labels = [LabelSequence(rng.integers(1, vocab, size=k).tolist()) for k in sizes]
            logits = rng.normal(size=(n_utt, t_max, vocab))
            y_log = logits - np.log(np.exp(logits).sum(axis=2, keepdims=True))
            expect = np.mean([
                ctc_brute_force(y_log[b, :n], lab)
                for b, (n, lab) in enumerate(zip(lengths, labels))
            ])
            batch = SequenceBatch(Tensor(logits), lengths)
            got = sequence_ctc_loss(batch, CtcTargets(labels)).item()
            if math.isinf(expect):
                assert math.isinf(got), (lengths, labels)
            else:
                assert got == pytest.approx(expect, rel=0, abs=1e-9), (lengths, labels)


class TestCtcTargets:
    LABELS = [LabelSequence([1, 1, 2]), LabelSequence([]), LabelSequence([2]),
              LabelSequence([2, 1, 2])]

    def test_lattice_and_min_frames(self):
        targets = CtcTargets(self.LABELS)
        assert len(targets) == 4 and list(targets) == self.LABELS
        assert targets[2].tokens == [2]
        np.testing.assert_array_equal(targets.s_lens, [7, 1, 3, 7])
        np.testing.assert_array_equal(targets.ext, [
            [0, 1, 0, 1, 0, 2, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 2, 0, 0, 0, 0, 0],
            [0, 2, 0, 1, 0, 2, 0],
        ])
        # A skip two columns back needs a fresh token: not a blank, not a repeat.
        for b, lab in enumerate(self.LABELS):
            for s in range(5):
                fresh = targets.ext[b, s + 2] not in (BLANK, targets.ext[b, s])
                assert targets.skip[b, s] == (0.0 if fresh else -np.inf)
        np.testing.assert_array_equal(targets.min_frames, [min_frames(l) for l in self.LABELS])

    def test_out_of_vocabulary_raises_alike(self):
        batch = SequenceBatch(Tensor(np.zeros((2, 4, 3))), [4, 2])
        labels = [LabelSequence([1, 2]), LabelSequence([5])]
        messages = []
        with pytest.raises(errors.ContractError) as exc:
            sequence_ctc_loss(batch, CtcTargets(labels))
        messages.append(str(exc.value))
        # The oracle refuses the same token with the same message.
        with pytest.raises(errors.ContractError) as exc:
            ctc_brute_force(np.zeros((4, 3)), labels[1])
        messages.append(str(exc.value))
        assert messages == ["label token 5 outside vocabulary of 3"] * 2

    def test_infeasible_member_infinite_alike(self):
        batch = SequenceBatch(Tensor(np.zeros((2, 3, 3))), [3, 2])
        labels = [LabelSequence([1]), LabelSequence([2, 2])]
        assert math.isinf(sequence_ctc_loss(batch, CtcTargets(labels)).item())
        # One frame more for the repeat and both are finite again.
        batch = SequenceBatch(Tensor(np.zeros((2, 3, 3))), [3, 3])
        assert math.isfinite(sequence_ctc_loss(batch, CtcTargets(labels)).item())


def masked_ctc(u, frames, targets):
    """``sequence_ctc_loss``'s loss and its gradient for ``g = 1`` as they were
    before alpha skipped dead work: every frame runs on all rows, the skip
    transition on every column, and the shift is ``u.max``. The reference
    for ``TestLiveRows``; ``u`` is ``[B, T, V]`` or ``[R, B, T, V]``."""
    lead = u.shape[:-3]
    u = u.reshape((-1,) + u.shape[-2:])
    n_utt, t_max, vocab = u.shape
    ext, skip, s_lens, lengths = targets.ext, targets.skip, targets.s_lens, frames.lengths
    reps = n_utt // len(targets)
    ext, skip = np.tile(ext, (reps, 1)), np.tile(skip, (reps, 1))
    s_lens, lengths = np.tile(s_lens, reps), np.tile(lengths, reps)
    shift = u.max(axis=-1, keepdims=True)
    y_log = u - (shift + np.log(np.exp(u - shift).sum(axis=-1, keepdims=True)))
    s_max = ext.shape[1]
    utt = np.arange(n_utt)
    emit = y_log.transpose(1, 0, 2)[:, utt[:, None], ext]
    alpha = np.full((t_max, n_utt, s_max), -np.inf)
    alpha[0, :, :2] = emit[0, :, :2]
    for t in range(1, t_max):
        prev, acc = alpha[t - 1], alpha[t]
        acc[:, 0] = prev[:, 0]
        np.logaddexp(prev[:, 1:], prev[:, :-1], out=acc[:, 1:])
        np.logaddexp(acc[:, 2:], prev[:, :-2] + skip, out=acc[:, 2:])
        acc += emit[t]
    ends = lengths - 1
    final = alpha[ends, utt]
    before_last = np.where(s_lens > 1, final[utt, s_lens - 2], -np.inf)
    log_p = np.logaddexp(final[utt, s_lens - 1], before_last)
    n_b = len(targets)
    loss = -log_p.reshape(lead + (n_b,)).sum(axis=-1) / n_b
    if lead:
        return loss, None
    beta = np.full_like(alpha, -np.inf)
    beta[ends, utt, s_lens - 1] = 0.0
    beta[ends, utt, np.maximum(s_lens - 2, 0)] = 0.0
    for t in range(t_max - 2, -1, -1):
        nxt = beta[t + 1] + emit[t + 1]
        acc = nxt.copy()
        np.logaddexp(nxt[:, :-1], nxt[:, 1:], out=acc[:, :-1])
        np.logaddexp(acc[:, :-2], nxt[:, 2:] + skip, out=acc[:, :-2])
        np.maximum(beta[t], acc, out=beta[t])
    occupancy = np.exp(alpha + beta - log_p[:, None])
    one_hot = (ext[:, :, None] == np.arange(vocab)).astype(np.float64)
    grad = np.exp(y_log) - np.matmul(occupancy.transpose(1, 0, 2), one_hot)
    grad *= frames.mask[:, :, None] * (1.0 / n_utt)
    return loss, grad


class TestLiveRows:
    """Alpha on each frame's live rows, the skip on token columns and the
    shift as elementwise maxima, against the fully masked recursions, bit
    for bit: sorted and unsorted lengths, length-1 utterances, frames past
    every length, and replica axes."""

    def _case(self, rng):
        b = int(rng.integers(1, 6))
        vocab = int(rng.integers(2, 6))
        lengths = rng.integers(1, 9, size=b)
        if rng.random() < 0.3:
            lengths[rng.integers(b)] = 1
        if rng.random() < 0.5:
            lengths = -np.sort(-lengths)  # longest first, as batches come
        t_max = int(lengths.max()) + int(rng.integers(0, 3))
        # Feasible labels, with repeats: each fits its utterance's frames.
        labels = []
        for n in lengths:
            tokens = rng.integers(1, vocab, size=int(rng.integers(0, n // 2 + 1))).tolist()
            labels.append(LabelSequence(tokens))
        return Frames(lengths, t_max), CtcTargets(labels), vocab

    def test_loss_and_gradient(self):
        rng = np.random.default_rng(120)
        for _ in range(150):
            frames, targets, vocab = self._case(rng)
            x = Tensor(rng.normal(size=(len(targets), frames.mask.shape[1], vocab)) * 3.0)
            tape = GradTape()
            with recording(tape):
                loss = sequence_ctc_loss(SequenceBatch._wrap(x, frames), targets)
            grad = backward(tape, loss).wrt(x)
            ref_loss, ref_grad = masked_ctc(x.data, frames, targets)
            assert np.isfinite(ref_loss)
            assert np.array_equal(loss.data, ref_loss)
            assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("reps", [1, 3])
    def test_replica_losses(self, reps):
        rng = np.random.default_rng(121 + reps)
        for _ in range(60):
            frames, targets, vocab = self._case(rng)
            shape = (reps, len(targets), frames.mask.shape[1], vocab)
            x = Tensor(rng.normal(size=shape) * 3.0)
            loss = sequence_ctc_loss(SequenceBatch._wrap(x, frames), targets)
            ref_loss, _ = masked_ctc(x.data, frames, targets)
            assert loss.shape == (reps,)
            assert np.array_equal(loss.data, ref_loss)
