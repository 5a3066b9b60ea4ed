"""Synthetic token-template utterances for end-to-end training runs.

Each vocabulary token owns a fixed random feature template; an utterance
renders its token sequence by repeating each template for a random number
of frames and adding Gaussian noise. Everything derives from explicit
seeds, so a dataset is a pure function of (task, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batching import Utterance
from .ctc import LabelSequence
from .errors import ContractError


@dataclass(frozen=True)
class SyntheticTask:
    vocab: int
    feature_dim: int
    min_tokens: int = 2
    max_tokens: int = 5
    min_duration: int = 2
    max_duration: int = 4
    noise: float = 0.1
    gain_spread: float = 0.0
    offset_spread: float = 0.0
    distinct_neighbors: bool = False
    seed: int = 0

    def __post_init__(self):
        # Messages open with the field they bound; NaN and infinity fail
        # every float bound.
        if self.vocab < 2:
            raise ContractError(f"vocab: need the blank plus a real token, got {self.vocab}")
        if self.feature_dim < 1:
            raise ContractError(f"feature_dim: must be at least 1, got {self.feature_dim}")
        for low, high in (("min_tokens", "max_tokens"), ("min_duration", "max_duration")):
            if getattr(self, low) < 1:
                raise ContractError(f"{low}: must be at least 1, got {getattr(self, low)}")
            if getattr(self, high) < getattr(self, low):
                raise ContractError(
                    f"{high}: {getattr(self, high)} is below {low} {getattr(self, low)}"
                )
        for key in ("noise", "gain_spread", "offset_spread"):
            if not 0.0 <= getattr(self, key) < math.inf:
                raise ContractError(
                    f"{key}: must be non-negative and finite, got {getattr(self, key)}"
                )
        if self.distinct_neighbors and self.vocab < 3:
            raise ContractError("distinct_neighbors: needs at least two real tokens")

    def templates(self) -> np.ndarray:
        """One feature template per vocabulary entry (row 0, the blank, unused)."""
        rng = np.random.default_rng([self.seed, 0])
        return rng.normal(size=(self.vocab, self.feature_dim))


def synth_generate(task: SyntheticTask, n_utterances: int, seed: int) -> list[Utterance]:
    """Render utterances deterministically from (task.seed, seed, index).

    A nonzero ``gain_spread`` scales every frame of an utterance by a shared
    random factor exp(U(-spread, spread)); a nonzero ``offset_spread`` adds a
    shared random feature offset to every frame. Both imitate per-recording
    channel differences that a static normalizer cannot undo. With
    ``distinct_neighbors`` the token sampler rejects adjacent duplicates,
    trading away blank-separation pressure for faster greedy decodability.

    Utterance ``i`` draws from its own ``default_rng([task.seed, seed, i])``,
    in this order, which fixes every byte of the data:

    1. the token count, one ``integers`` call;
    2. each token, one ``integers`` call, repeated while it equals its left
       neighbour under ``distinct_neighbors``;
    3. the gain, one ``uniform``, only if ``gain_spread > 0``;
    4. the offset, one ``normal`` of ``feature_dim`` values, only if
       ``offset_spread > 0``;
    5. per token in turn, its duration ``d`` (one ``integers`` call), then
       its ``(d, feature_dim)`` noise block, only if ``noise > 0``.

    Two rewrites look equivalent and change every utterance: giving an
    ``integers`` call a ``size`` (a sized call takes two bounded values
    from one 64-bit draw), and drawing the noise blocks after all the
    durations (both come from the one generator). Each feature is then
    rendered once as ``gain * template + offset + noise * noise_value``.
    """
    templates = task.templates()
    out = []
    for i in range(n_utterances):
        rng = np.random.default_rng([task.seed, seed, i])
        n_tokens = int(rng.integers(task.min_tokens, task.max_tokens + 1))
        tokens = []
        for _ in range(n_tokens):
            tok = int(rng.integers(1, task.vocab))
            while task.distinct_neighbors and tokens and tok == tokens[-1]:
                tok = int(rng.integers(1, task.vocab))
            tokens.append(tok)
        gain = 1.0
        if task.gain_spread > 0:
            gain = float(np.exp(rng.uniform(-task.gain_spread, task.gain_spread)))
        offset = 0.0
        if task.offset_spread > 0:
            offset = task.offset_spread * rng.normal(size=task.feature_dim)
        durations, blocks = [], []
        for _ in tokens:
            duration = int(rng.integers(task.min_duration, task.max_duration + 1))
            durations.append(duration)
            if task.noise > 0:
                blocks.append(rng.normal(size=(duration, task.feature_dim)))
        features = np.repeat(gain * templates[tokens] + offset, durations, axis=0)
        if task.noise > 0:
            features += task.noise * np.concatenate(blocks)
        out.append(Utterance(features, LabelSequence(tokens)))
    return out


def sorted_for_batching(utterances: list[Utterance]) -> list[Utterance]:
    """Length-descending order with a stable tiebreak on original position."""
    return sorted(
        utterances,
        key=lambda u: u.features.shape[0],
        reverse=True,
    )
