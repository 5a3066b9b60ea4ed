"""Flat key=value configuration with typo-proof parsing."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError
from .recurrent import ModelConfig
from .synth import SyntheticTask

# key -> (type, default, description). Every key is optional in the file;
# anything not listed here is a hard error.
SCHEMA = {
    # model
    "num_layers": (int, 2, "BiLSTM layers in the stack"),
    "hidden": (int, 64, "LSTM cells per direction"),
    "features": (int, 16, "input feature dimension"),
    "vocab": (int, 12, "output symbols including the blank"),
    "embed_dim": (int, 8, "bottleneck width of the pooled generator"),
    "attn_dim": (int, 8, "key/query/value width of the self-attention generator"),
    "dropout": (float, 0.3, "dropout rate for LSTM outputs and generators"),
    "bn_eps": (float, 1e-5, "variance floor of the normalizer"),
    "bn_momentum": (float, 0.1, "running-statistics update weight"),
    # optimization
    "max_frames_per_batch": (int, 5000, "padded-frame budget per mini-batch"),
    "initial_lr": (float, 0.0001, "Adam learning rate at epoch 1"),
    "halve_threshold": (float, 0.004, "relative dev improvement below which lr halves"),
    "stop_threshold": (float, 0.0005, "relative dev improvement below which training ends"),
    "adam_beta1": (float, 0.9, "Adam first-moment decay"),
    "adam_beta2": (float, 0.999, "Adam second-moment decay"),
    "adam_eps": (float, 1e-8, "Adam denominator floor"),
    "epochs": (int, 30, "epoch cap"),
    "seed": (int, 0, "base seed for data, init, and dropout"),
    # synthetic task
    "train_utterances": (int, 400, "training set size"),
    "dev_utterances": (int, 100, "dev set size"),
    "task_min_tokens": (int, 2, "shortest token sequence"),
    "task_max_tokens": (int, 5, "longest token sequence"),
    "task_min_duration": (int, 2, "fewest frames per token"),
    "task_max_duration": (int, 4, "most frames per token"),
    "task_noise": (float, 0.1, "additive feature noise level"),
    "task_gain_spread": (float, 0.0, "per-utterance log-gain half-range"),
    "task_offset_spread": (float, 0.0, "per-utterance feature offset scale"),
    "task_distinct_neighbors": (int, 0, "1 forbids adjacent repeated tokens"),
}


@dataclass
class TrainConfig:
    num_layers: int
    hidden: int
    features: int
    vocab: int
    embed_dim: int
    attn_dim: int
    dropout: float
    bn_eps: float
    bn_momentum: float
    max_frames_per_batch: int
    initial_lr: float
    halve_threshold: float
    stop_threshold: float
    adam_beta1: float
    adam_beta2: float
    adam_eps: float
    epochs: int
    seed: int
    train_utterances: int
    dev_utterances: int
    task_min_tokens: int
    task_max_tokens: int
    task_min_duration: int
    task_max_duration: int
    task_noise: float
    task_gain_spread: float
    task_offset_spread: float
    task_distinct_neighbors: int

    def __post_init__(self):
        for key, least in (("hidden", 1), ("features", 1), ("embed_dim", 1),
                           ("attn_dim", 1), ("vocab", 2)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be at least {least}, got {getattr(self, key)}")
        if self.task_distinct_neighbors not in (0, 1):
            raise ConfigError(
                f"task_distinct_neighbors must be 0 or 1, got {self.task_distinct_neighbors}"
            )
        # abn-f's bottleneck must be narrower than every layer's input.
        if self.embed_dim >= self.features:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must be below features {self.features}"
            )
        if self.num_layers > 1 and self.embed_dim >= 2 * self.hidden:
            raise ConfigError(
                f"embed_dim {self.embed_dim} must be below 2*hidden {2 * self.hidden},"
                " the input width of every layer after the first"
            )
        if self.stop_threshold >= self.halve_threshold:
            raise ConfigError(
                f"stop_threshold {self.stop_threshold} must be below"
                f" halve_threshold {self.halve_threshold}"
            )
        if self.stop_threshold <= 0 or self.halve_threshold <= 0:
            raise ConfigError("schedule thresholds must be positive")
        if self.initial_lr <= 0:
            raise ConfigError(f"initial_lr must be positive, got {self.initial_lr}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")

    def model_config(self, variant: str) -> ModelConfig:
        return ModelConfig(
            num_layers=self.num_layers,
            hidden=self.hidden,
            features=self.features,
            vocab=self.vocab,
            variants=variant,
            dropout=self.dropout,
            embed_dim=self.embed_dim,
            attn_dim=self.attn_dim,
            bn_eps=self.bn_eps,
            bn_momentum=self.bn_momentum,
        )

    def task(self) -> SyntheticTask:
        return SyntheticTask(
            vocab=self.vocab,
            feature_dim=self.features,
            min_tokens=self.task_min_tokens,
            max_tokens=self.task_max_tokens,
            min_duration=self.task_min_duration,
            max_duration=self.task_max_duration,
            noise=self.task_noise,
            gain_spread=self.task_gain_spread,
            offset_spread=self.task_offset_spread,
            distinct_neighbors=bool(self.task_distinct_neighbors),
            seed=self.seed,
        )


def parse_config_text(text: str, source: str = "<string>") -> TrainConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        typ = SCHEMA[key][0]
        try:
            values[key] = typ(value)
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: {key} needs {typ.__name__}, got {value!r}"
            ) from None
    merged = {key: values.get(key, default) for key, (_, default, _) in SCHEMA.items()}
    return TrainConfig(**merged)


def load_config(path: str) -> TrainConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=path)


def default_config() -> TrainConfig:
    return parse_config_text("")


# Keep the dataclass and the schema from drifting apart.
assert {f.name for f in fields(TrainConfig)} == set(SCHEMA), "schema/dataclass mismatch"
