"""Training loop: batches, Adam, the improvement-driven schedule, metrics."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import tensor as tc
from .batching import Batch, make_batches
from .checkpoint import save_checkpoint
from .config import TrainConfig
from .ctc import CtcTargets, edit_distance, greedy_decode, sequence_ctc_loss
from .data import SequenceBatch
from .errors import DegenerateBatchError, EmptyEpochError
from .optim import AdamState, adam_step, lr_schedule
from .recurrent import Model, project, run_layers, stack_forward
from .synth import sorted_for_batching, synth_generate
from .tensor import Tensor

METRICS_HEADER = "epoch,split,loss,ter,lr,wall_s"
TRAIN_SEED, DEV_SEED = 1, 2  # data seeds of the two splits


def deterministic_mode() -> bool:
    """Bitwise-reproducible mode; wall-clock readings are suppressed."""
    return os.environ.get("ABN_DETERMINISTIC") == "1"


def split_batches(cfg: TrainConfig, n_utterances: int, seed: int) -> list[Batch]:
    """``n_utterances`` of the config's task, drawn at ``seed`` and batched.

    An utterance needs a frame per label token (two for a repeat), or its
    batch's loss is inf; the first that has fewer is refused, named by its
    split (``train``, ``dev`` or ``seed N``), batch and place in the batch."""
    utts = synth_generate(cfg.task(), n_utterances, seed=seed)
    batches = make_batches(sorted_for_batching(utts), cfg.max_frames_per_batch)
    split = {TRAIN_SEED: "train", DEV_SEED: "dev"}.get(seed, f"seed {seed}")
    for i, (features, targets) in enumerate(batches):
        short = np.flatnonzero(features.lengths < targets.min_frames)
        if short.size:
            u = short[0]
            raise DegenerateBatchError(
                f"{split} batch {i}, utterance {u}: {features.lengths[u]} frame(s),"
                f" but its labels {targets[u].tokens} need at least {targets.min_frames[u]}"
            )
    return batches


def _decode_errors(logits_batch, targets: CtcTargets) -> tuple[int, int]:
    """Corpus-level error counts: (edit distance, reference tokens)."""
    dist = edit_distance(*greedy_decode(logits_batch), targets)
    return int(dist.sum()), int((targets.s_lens // 2).sum())


def _mean_scores(scores: list[tuple[float, int, int]]) -> tuple[float, float]:
    """Mean batch loss and corpus token error rate of (loss, edit distance,
    reference tokens) triples."""
    # Left to right with +=: from Python 3.12 the builtin sum() compensates
    # float sums, which would change the bits of metrics.csv.
    total_loss = 0.0
    dist = ref_len = 0
    for loss, d, r in scores:
        total_loss += loss
        dist += d
        ref_len += r
    return total_loss / len(scores), dist / max(ref_len, 1)


def evaluate(model: Model, batches: list[Batch]) -> tuple[float, float]:
    """Mean batch loss and corpus token error rate of ``batches``, from one
    untaped inference-mode pass each."""
    scores = []
    for batch in batches:
        logits = stack_forward(batch.features, model, "infer")
        scores.append((sequence_ctc_loss(logits, batch.labels).item(),
                       *_decode_errors(logits, batch.labels)))
    return _mean_scores(scores)


def loss_and_gradients(
    model: Model, batch: SequenceBatch, targets: CtcTargets, rng: np.random.Generator | None = None
) -> tuple[Tensor, SequenceBatch, list[SequenceBatch], dict[str, np.ndarray] | None]:
    """The train-mode loss from one taped pass, layer by layer, with its
    logits, the pass's input to each layer (the projection's last) and
    every parameter's gradient from one ``backward``; the gradients are
    ``None``, and ``backward`` does not run, if the loss is not finite.
    Dropout draws from ``rng`` as ``stack_forward`` does, so the pass is
    bit for bit that of ``stack_forward`` and its CTC loss."""
    tape = tc.GradTape()
    inputs = [batch]
    with tc.recording(tape):
        for l in range(len(model.layers)):
            inputs.append(run_layers(inputs[l], model, l, "train", rng, stop=l + 1))
        logits = project(inputs[-1], model)
        loss = sequence_ctc_loss(logits, targets)
    if not np.isfinite(loss.item()):
        return loss, logits, inputs, None
    grads = tc.backward(tape, loss)
    return loss, logits, inputs, {name: grads.wrt(t) for name, t in model.parameters().items()}


@dataclass
class TrainState:
    """What training carries from batch to batch and epoch to epoch."""

    model: Model
    adam: AdamState
    drop_rng: np.random.Generator
    lr: float
    dev_history: list[float] = field(default_factory=list)
    skipped_batches: int = 0  # non-finite loss or gradient
    nonfinite_gradients: int = 0  # of those, finite loss but a non-finite gradient

    @classmethod
    def start(cls, cfg: TrainConfig, variant: str) -> TrainState:
        """The state before epoch 1: a fresh model and Adam, the initial lr."""
        model = Model(cfg.model_config(variant), np.random.default_rng([cfg.seed, 1]))
        adam = AdamState(model.parameters(), cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps)
        return cls(model, adam, np.random.default_rng([cfg.seed, 2]), cfg.initial_lr)


def train_step(state: TrainState, batch: Batch) -> tuple[float, int, int] | None:
    """One taped step on ``batch``: Adam updates ``state.model``, and the
    loss, edit distance and reference tokens of the train-mode pass are
    returned. A batch whose loss or gradient is not finite is counted in
    ``state`` and skipped: ``None``, with the weights and Adam untouched."""
    loss, logits, _, grads = loss_and_gradients(state.model, *batch, state.drop_rng)
    # A NaN gradient under a finite loss would reach the weights.
    if grads is None or not all(np.isfinite(g).all() for g in grads.values()):
        state.skipped_batches += 1
        state.nonfinite_gradients += grads is not None
        return None
    for name, t in adam_step(state.model.parameters(), grads, state.adam, state.lr).items():
        state.model.set_parameter(name, t)
    return loss.item(), *_decode_errors(logits, batch.labels)


def train_epoch(state: TrainState, batches: list[Batch]) -> tuple[float, float]:
    """``train_step`` over each of ``batches``; the mean loss and corpus
    token error rate of the batches it did not skip. If it skipped them
    all, ``EmptyEpochError``."""
    scores = [s for s in (train_step(state, batch) for batch in batches) if s is not None]
    if not scores:
        raise EmptyEpochError(f"epoch {len(state.dev_history) + 1}: all {len(batches)}"
                              " training batches had a non-finite loss or gradient")
    return _mean_scores(scores)


def run_training(cfg: TrainConfig, variant: str, out_dir: str) -> dict:
    """Train one model; writes metrics.csv and model.ckpt under ``out_dir``.

    Returns a summary with the per-epoch dev history and final numbers.
    """
    os.makedirs(out_dir, exist_ok=True)
    train_batches = split_batches(cfg, cfg.train_utterances, TRAIN_SEED)
    dev_batches = split_batches(cfg, cfg.dev_utterances, DEV_SEED)
    # Batch statistics need 2 valid frames: refuse a train batch with fewer
    # before epoch 1 rather than abort or skip it later.
    for i, (features, _) in enumerate(train_batches):
        if features.frames.valid < 2:
            raise DegenerateBatchError(
                f"train batch {i} has {features.batch_size} utterance(s) and"
                f" {features.frames.valid} valid frame(s); batch statistics need at least 2"
            )

    state = TrainState.start(cfg, variant)
    quiet_clock = deterministic_mode()
    stopped_early = False
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as metrics:
        metrics.write(METRICS_HEADER + "\n")
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.monotonic()
            train_loss, train_ter = train_epoch(state, train_batches)
            train_wall = 0.0 if quiet_clock else time.monotonic() - t0
            t1 = time.monotonic()
            dev_loss, dev_ter = evaluate(state.model, dev_batches)
            dev_wall = 0.0 if quiet_clock else time.monotonic() - t1
            for split, loss, ter, wall in (("train", train_loss, train_ter, train_wall),
                                           ("dev", dev_loss, dev_ter, dev_wall)):
                metrics.write(f"{epoch},{split},{loss:.17g},{ter:.17g},"
                              f"{state.lr:.17g},{wall:.3f}\n")
            metrics.flush()
            state.dev_history.append(dev_loss)
            if len(state.dev_history) >= 2:
                action = lr_schedule(state.dev_history, cfg.halve_threshold, cfg.stop_threshold)
                if action == "stop":
                    stopped_early = True
                    break
                if action == "halve":
                    state.lr *= 0.5

    save_checkpoint(state.model, os.path.join(out_dir, "model.ckpt"), cfg)
    return {
        "variant": variant,
        "seed": cfg.seed,
        "epochs_run": len(state.dev_history),
        "skipped_batches": state.skipped_batches,
        "nonfinite_gradients": state.nonfinite_gradients,
        "stopped_early": stopped_early,
        "dev_loss_history": state.dev_history,
        "final_dev_loss": state.dev_history[-1],
        "final_dev_ter": dev_ter,
    }
