"""Training loop: batches, Adam, the improvement-driven schedule, metrics."""

from __future__ import annotations

import os
import time
from typing import NamedTuple

import numpy as np

from .batching import Batch, make_batches
from .checkpoint import save_checkpoint
from .config import TrainConfig
from .ctc import edit_distance, greedy_decode, sequence_ctc_loss
from .errors import DegenerateBatchError, EmptyEpochError
from .optim import AdamState, adam_step, lr_schedule
from .recurrent import Model, stack_forward
from .synth import sorted_for_batching, synth_generate
from .tensor import GradTape, backward, recording

METRICS_HEADER = "epoch,split,loss,ter,lr,wall_s"


def deterministic_mode() -> bool:
    """Bitwise-reproducible mode; wall-clock readings are suppressed."""
    return os.environ.get("ABN_DETERMINISTIC") == "1"


class MetricsRow(NamedTuple):
    epoch: int
    split: str
    loss: float
    ter: float
    lr: float
    wall_s: float

    def to_csv(self) -> str:
        return (
            f"{self.epoch},{self.split},{self.loss:.17g},{self.ter:.17g},"
            f"{self.lr:.17g},{self.wall_s:.3f}"
        )


def _decode_errors(logits_batch, labels) -> tuple[int, int]:
    """Corpus-level error counts: (edit distance, reference tokens)."""
    hyps = greedy_decode(logits_batch)
    dist = sum(edit_distance(hyp.tokens, ref.tokens) for hyp, ref in zip(hyps, labels))
    return dist, sum(len(ref) for ref in labels)


def evaluate(model: Model, batches: list[Batch]) -> tuple[float, float]:
    """Mean batch loss and corpus token error rate, inference mode."""
    total_loss = 0.0
    dist = 0
    ref_len = 0
    for batch in batches:
        logits = stack_forward(batch.features, model, "infer")
        total_loss += sequence_ctc_loss(logits, batch.labels).item()
        d, r = _decode_errors(logits, batch.labels)
        dist += d
        ref_len += r
    return total_loss / len(batches), dist / max(ref_len, 1)


def run_training(cfg: TrainConfig, variant: str, out_dir: str) -> dict:
    """Train one model; writes metrics.csv and model.ckpt under ``out_dir``.

    Returns a summary with the per-epoch dev history and final numbers.
    """
    os.makedirs(out_dir, exist_ok=True)
    task = cfg.task()
    train_utts = sorted_for_batching(synth_generate(task, cfg.train_utterances, seed=1))
    dev_utts = sorted_for_batching(synth_generate(task, cfg.dev_utterances, seed=2))
    train_batches = make_batches(train_utts, cfg.max_frames_per_batch)
    dev_batches = make_batches(dev_utts, cfg.max_frames_per_batch)
    # Batch statistics need 2 valid frames; refuse such a batch before
    # epoch 1 rather than abort the run when it comes up.
    for i, batch in enumerate(train_batches):
        if batch.features.frames.valid < 2:
            raise DegenerateBatchError(
                f"train batch {i} has {batch.features.batch_size} utterance(s) and"
                f" {batch.features.frames.valid} valid frame(s); batch statistics"
                " need at least 2"
            )

    model = Model(cfg.model_config(variant), np.random.default_rng([cfg.seed, 1]))
    drop_rng = np.random.default_rng([cfg.seed, 2])
    adam = AdamState(
        model.parameters(), beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps
    )
    lr = cfg.initial_lr
    quiet_clock = deterministic_mode()

    metrics_path = os.path.join(out_dir, "metrics.csv")
    dev_history: list[float] = []
    summary = {
        "variant": variant,
        "seed": cfg.seed,
        "epochs_run": 0,
        "skipped_batches": 0,  # non-finite loss or gradient
        "nonfinite_gradients": 0,  # of those, finite loss but a non-finite gradient
        "stopped_early": False,
    }
    with open(metrics_path, "w", encoding="utf-8") as metrics:
        metrics.write(METRICS_HEADER + "\n")
        for epoch in range(1, cfg.epochs + 1):
            t0 = time.monotonic()
            epoch_loss = 0.0
            used = 0
            dist = 0
            ref_len = 0
            for batch in train_batches:
                tape = GradTape()
                with recording(tape):
                    logits = stack_forward(batch.features, model, "train", rng=drop_rng)
                    loss = sequence_ctc_loss(logits, batch.labels)
                if not np.isfinite(loss.item()):
                    summary["skipped_batches"] += 1
                    continue
                grads = backward(tape, loss)
                params = model.parameters()
                grad_arrays = {name: grads.wrt(t) for name, t in params.items()}
                # A NaN gradient under a finite loss would reach the weights.
                if not all(np.isfinite(g).all() for g in grad_arrays.values()):
                    summary["skipped_batches"] += 1
                    summary["nonfinite_gradients"] += 1
                    continue
                for name, t in adam_step(params, grad_arrays, adam, lr).items():
                    model.set_parameter(name, t)
                epoch_loss += loss.item()
                used += 1
                d, r = _decode_errors(logits, batch.labels)
                dist += d
                ref_len += r
            if used == 0:
                raise EmptyEpochError(
                    f"epoch {epoch}: all {len(train_batches)} training batches"
                    " had a non-finite loss or gradient"
                )
            train_wall = 0.0 if quiet_clock else time.monotonic() - t0
            train_loss = epoch_loss / used
            train_ter = dist / max(ref_len, 1)

            t1 = time.monotonic()
            dev_loss, dev_ter = evaluate(model, dev_batches)
            dev_wall = 0.0 if quiet_clock else time.monotonic() - t1

            metrics.write(
                MetricsRow(epoch, "train", train_loss, train_ter, lr, train_wall).to_csv()
                + "\n"
            )
            metrics.write(
                MetricsRow(epoch, "dev", dev_loss, dev_ter, lr, dev_wall).to_csv() + "\n"
            )
            metrics.flush()

            dev_history.append(dev_loss)
            summary["epochs_run"] = epoch
            if len(dev_history) >= 2:
                action = lr_schedule(
                    dev_history, cfg.halve_threshold, cfg.stop_threshold
                )
                if action == "stop":
                    summary["stopped_early"] = True
                    break
                if action == "halve":
                    lr *= 0.5

    save_checkpoint(model, os.path.join(out_dir, "model.ckpt"), cfg.seed)
    summary["dev_loss_history"] = dev_history
    summary["final_dev_loss"] = dev_history[-1]
    summary["final_dev_ter"] = dev_ter
    return summary
