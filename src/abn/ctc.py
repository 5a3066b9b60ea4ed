"""CTC loss in log space, a path-enumeration oracle, decoding, and edit distance.

The blank symbol is index 0 everywhere (the checkpoint format records
this). ``sequence_ctc_loss`` is the one loss entry: it takes a padded
batch of raw logits and the batch's ``CtcTargets``, and applies the
softmax itself, so the whole loss is one fused, numerically stable
operation on the tape. A single utterance is a batch of one.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import ContractError, ShapeError
from .tensor import Tensor, record_op

BLANK = 0

# Brute-force enumeration walks V**T paths; refuse anything bigger.
MAX_BRUTE_T = 8
MAX_BRUTE_V = 4


class LabelSequence:
    """Reference token indices; the blank never appears among them."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: Sequence[int]):
        toks = [int(t) for t in tokens]
        for t in toks:
            if t == BLANK:
                raise ContractError(f"label tokens must not include the blank ({BLANK})")
            if t < 0:
                raise ContractError(f"label tokens must be nonnegative, got {t}")
        self.tokens = toks

    def __len__(self) -> int:
        return len(self.tokens)

    def __repr__(self) -> str:
        return f"LabelSequence({self.tokens})"


def _check_vocab(tokens: np.ndarray, vocab: int) -> None:
    """Refuse the first of ``tokens`` that is no symbol of a ``vocab``-wide output."""
    outside = tokens[tokens >= vocab]
    if outside.size:
        raise ContractError(f"label token {outside[0]} outside vocabulary of {vocab}")


class CtcTargets(Sequence):
    """The label sequences of one batch, with their CTC lattice built once.

    A read-only sequence of ``LabelSequence`` that also holds what the loss
    needs of them on every call:

    * ``ext`` ``[B, S]``, each utterance's blank-interleaved lattice
      (-, l1, -, l2, ..., -), padded with blanks to the widest
    * ``skip`` ``[B, S-2]``, 0 where a path may skip over a blank from two
      columns back into a fresh token (not a repeat), -inf where it may not
    * ``s_lens`` ``[B]``, each lattice's own width ``2 * len + 1``
    * ``min_frames`` ``[B]``, the fewest frames that can emit each sequence
    """

    __slots__ = ("labels", "ext", "skip", "s_lens", "min_frames")

    def __init__(self, labels: Sequence[LabelSequence]):
        self.labels = tuple(labels)
        self.s_lens = 2 * np.array([len(lab) for lab in self.labels]) + 1
        ext = np.full((len(self.labels), int(self.s_lens.max())), BLANK)
        for b, lab in enumerate(self.labels):
            ext[b, 1 : self.s_lens[b] : 2] = lab.tokens
        self.ext = ext
        self.skip = np.where((ext[:, 2:] != BLANK) & (ext[:, 2:] != ext[:, :-2]), 0.0, -np.inf)
        # A repeated token needs a blank frame between its two copies.
        tokens = ext[:, 1::2]
        repeats = ((tokens[:, 1:] == tokens[:, :-1]) & (tokens[:, 1:] != BLANK)).sum(axis=1)
        self.min_frames = self.s_lens // 2 + repeats
        for arr in (self.s_lens, self.ext, self.skip, self.min_frames):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        return self.labels[index]


def sequence_ctc_loss(logits_batch, targets: CtcTargets) -> Tensor:
    """Mean CTC loss over a padded batch of raw logits, one taped node.

    Utterance b scores its first ``lengths[b]`` frames of the ``[B, T, V]``
    logits against ``targets[b]``; padded frames get a zero gradient. The
    alpha/beta recursions of Graves et al. (2006) run for every utterance
    at once over the targets' lattice, [B, S]; alpha runs frame t on the
    first ``frames.live[t]`` utterances only, the rows after them having
    ended. Any infeasible utterance (too few frames for its labels) makes
    the batch loss +inf and the gradient zero; callers detect the
    condition by checking for an infinite value.

    Untaped, the logits may carry a leading replica axis, ``[R, B, T, V]``
    (``abn.tensor.per_replica``). The replicas' utterances then run as
    ``R*B`` rows of one recursion, and the result is ``[R]``, each
    replica's mean.
    """
    if logits_batch.batch_size != len(targets):
        raise ShapeError(
            f"{logits_batch.batch_size} utterances but {len(targets)} label sequences"
        )
    logits, frames = logits_batch.features, logits_batch.frames
    u = logits.data.reshape((-1,) + logits.shape[-2:])
    n_utt, t_max, vocab = u.shape
    ext, s_lens = targets.ext, targets.s_lens
    _check_vocab(ext, vocab)
    lengths = frames.lengths
    lead = logits.shape[:-3]
    if (lengths < targets.min_frames).any():
        out = Tensor._wrap(np.full(lead, np.inf))
        record_op(out, (logits,), lambda g: (np.zeros(logits.shape),))
        return out
    n_b = len(targets)
    reps = n_utt // n_b
    ext = np.tile(ext, (reps, 1))
    s_lens, lengths = np.tile(s_lens, reps), np.tile(lengths, reps)

    # The shift is each frame's largest logit, taken as elementwise maxima:
    # a reduction over the short vocabulary axis costs far more.
    shift = u[..., :1]
    for v in range(1, vocab):
        shift = np.maximum(shift, u[..., v : v + 1])
    y_log = u - (shift + np.log(np.exp(u - shift).sum(axis=-1, keepdims=True)))

    s_max = ext.shape[1]
    # emit[t, b, s]: log probability of lattice symbol s at frame t. Padded
    # columns need no mask: alpha only flows rightward out of the columns
    # that are read, and beta, which flows leftward, starts at -inf there.
    # Padded frames need none either: alpha stays -inf past the live rows,
    # and beta is -inf on every frame after an utterance's end.
    utt = np.arange(n_utt)
    emit = y_log.transpose(1, 0, 2)[:, utt[:, None], ext]
    # A path may skip a blank only into a token column (odd s >= 3), so the
    # skip runs on those columns alone: on a blank it could only add -inf.
    tok_skip = targets.skip[:, 1::2]

    # Forward recursion; alpha[t, b, s] includes the emission at frame t.
    # Frame t runs on the first live[t] utterances of each replica.
    alpha = np.full((t_max, n_utt, s_max), -np.inf)
    alpha[0, :, :2] = emit[0, :, :2]
    by_rep = alpha.reshape(t_max, reps, n_b, s_max)
    emit_by_rep = emit.reshape(t_max, reps, n_b, s_max)
    for t in range(1, t_max):
        k = frames.live[t]
        prev, acc = by_rep[t - 1, :, :k], by_rep[t, :, :k]
        acc[..., 0] = prev[..., 0]
        np.logaddexp(prev[..., 1:], prev[..., :-1], out=acc[..., 1:])
        np.logaddexp(acc[..., 3::2], prev[..., 1:-2:2] + tok_skip[:k], out=acc[..., 3::2])
        acc += emit_by_rep[t, :, :k]

    # Each utterance ends at its own last frame, in its last blank or token.
    ends = lengths - 1
    final = alpha[ends, utt]
    before_last = np.where(s_lens > 1, final[utt, s_lens - 2], -np.inf)
    log_p = np.logaddexp(final[utt, s_lens - 1], before_last)
    out = Tensor._wrap(-log_p.reshape(lead + (n_b,)).sum(axis=-1) / n_b)

    def vjp(g):
        # Backward recursion; beta[t, b, s] covers frames t+1..ends[b] (the
        # emission at t itself lives in alpha), so alpha + beta scores paths
        # through (t, s). beta is -inf after each utterance's end frame,
        # which zeroes the occupancy of its padded frames.
        beta = np.full_like(alpha, -np.inf)
        beta[ends, utt, s_lens - 1] = 0.0
        beta[ends, utt, np.maximum(s_lens - 2, 0)] = 0.0
        for t in range(t_max - 2, -1, -1):
            nxt = beta[t + 1] + emit[t + 1]
            acc = nxt.copy()
            np.logaddexp(nxt[:, :-1], nxt[:, 1:], out=acc[:, :-1])
            np.logaddexp(acc[:, 1:-2:2], nxt[:, 3::2] + tok_skip, out=acc[:, 1:-2:2])
            # At an utterance's end frame the recursion gives -inf and its
            # preset start row is kept; before that frame the preset is -inf.
            np.maximum(beta[t], acc, out=beta[t])

        occupancy = np.exp(alpha + beta - log_p[:, None])  # [T, B, S]
        one_hot = (ext[:, :, None] == np.arange(vocab)).astype(np.float64)  # [B, S, V]
        grad = np.exp(y_log) - np.matmul(occupancy.transpose(1, 0, 2), one_hot)
        grad *= frames.mask[:, :, None] * (float(g) / n_utt)
        return (grad.reshape(logits.shape),)

    record_op(out, (logits,), vjp)
    return out


def ctc_brute_force(logprobs: np.ndarray, labels: LabelSequence) -> float:
    """Loss by exhaustive path enumeration; the oracle for ``sequence_ctc_loss``.

    ``logprobs`` is a [frames, vocab] array of LOG probabilities (rows
    already normalized); it may hold -inf for impossible symbols.
    """
    lp = np.asarray(logprobs, dtype=np.float64)
    if lp.ndim != 2:
        raise ShapeError(f"logprobs must be [frames, vocab], got {lp.shape}")
    t_frames, vocab = lp.shape
    if t_frames > MAX_BRUTE_T or vocab > MAX_BRUTE_V:
        raise ContractError(
            f"brute force limited to T <= {MAX_BRUTE_T}, V <= {MAX_BRUTE_V};"
            f" got T={t_frames}, V={vocab}"
        )
    _check_vocab(np.array(labels.tokens, dtype=int), vocab)
    target = labels.tokens
    matches = []
    for path in itertools.product(range(vocab), repeat=t_frames):
        collapsed = []
        prev = None
        for sym in path:
            if sym != prev and sym != BLANK:
                collapsed.append(sym)
            prev = sym
        if collapsed == target:
            matches.append(sum(lp[t, sym] for t, sym in enumerate(path)))
    if not matches:
        return float("inf")
    return float(-logsumexp(matches))


def greedy_decode(logits_batch) -> tuple[np.ndarray, np.ndarray]:
    """Best-path decoding of a padded batch of logits: per-frame argmax,
    collapse repeats, drop blanks.

    Returns ``(tokens [B, T], lengths [B])``: utterance b's hypothesis is
    ``tokens[b, :lengths[b]]``, and the rest of its row is ``BLANK``. A
    frame is kept if it is real, its pick is not the blank and its pick
    differs from the previous frame's. Real frames are a prefix, so padding
    never reaches a hypothesis.
    """
    logits = logits_batch.features
    if logits.ndim != 3:
        raise ShapeError(f"logits must be [batch, frames, vocab], got {logits.shape}")
    picks = np.argmax(logits.data, axis=2)  # ties resolve to the lowest index
    keep = logits_batch.frames.mask & (picks != BLANK)
    keep[:, 1:] &= picks[:, 1:] != picks[:, :-1]
    lengths = keep.sum(axis=1)
    tokens = np.full_like(picks, BLANK)
    # Both masks run row by row, so each row's kept picks land left-aligned.
    tokens[np.arange(picks.shape[1]) < lengths[:, None]] = picks[keep]
    return tokens, lengths


def edit_distance(hyp: np.ndarray, hyp_lens: np.ndarray, targets: CtcTargets) -> np.ndarray:
    """Levenshtein distances, unit costs, of a batch of hypotheses to the
    targets' label sequences; ``[B]``.

    ``hyp`` ``[B, H]`` and ``hyp_lens`` ``[B]`` are as ``greedy_decode``
    returns them. The references are the lattice's token columns. One DP
    row per hypothesis position serves the whole batch: row i holds each
    hypothesis's distance from its first i tokens to every prefix of its
    reference. A hypothesis that has ended keeps its row, and each
    distance is read at its own reference's length.
    """
    ref = targets.ext[:, 1::2]
    j = np.arange(ref.shape[1] + 1)
    row = np.broadcast_to(j, (len(ref), j.size))  # from the empty hypothesis
    for i in range(int(hyp_lens.max(initial=0))):
        # Delete hyp[:, i], or substitute it for (or match) a reference token.
        c = row + 1
        np.minimum(c[:, 1:], row[:, :-1] + (hyp[:, i : i + 1] != ref), out=c[:, 1:])
        # Insert reference tokens: row[j] = min over k <= j of c[k] + (j - k).
        row = np.where((i < hyp_lens)[:, None], np.minimum.accumulate(c - j, axis=1) + j, row)
    return row[np.arange(len(ref)), targets.s_lens // 2]
