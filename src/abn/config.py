"""Flat key=value configuration with typo-proof parsing."""

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError, ContractError
from .recurrent import ModelConfig
from .synth import SyntheticTask


def _key(default, doc: str):
    return field(default=default, metadata={"doc": doc})


@dataclass
class TrainConfig:
    """Every key a config file may set. Every key is optional in the file;
    anything not listed here is a hard error. The model keys are bounded
    by ``ModelConfig``."""

    # model
    num_layers: int = _key(2, "BiLSTM layers in the stack")
    hidden: int = _key(64, "LSTM cells per direction")
    features: int = _key(16, "input feature dimension")
    vocab: int = _key(12, "output symbols including the blank")
    embed_dim: int = _key(8, "bottleneck width of the pooled generator")
    attn_dim: int = _key(8, "key/query/value width of the self-attention generator")
    dropout: float = _key(0.3, "dropout rate for LSTM outputs and generators")
    bn_eps: float = _key(1e-5, "variance floor of the normalizer")
    bn_momentum: float = _key(0.1, "running-statistics update weight")
    # optimization
    max_frames_per_batch: int = _key(5000, "padded-frame budget per mini-batch")
    initial_lr: float = _key(0.0001, "Adam learning rate at epoch 1")
    halve_threshold: float = _key(0.004, "relative dev improvement below which lr halves")
    stop_threshold: float = _key(0.0005, "relative dev improvement below which training ends")
    adam_beta1: float = _key(0.9, "Adam first-moment decay")
    adam_beta2: float = _key(0.999, "Adam second-moment decay")
    adam_eps: float = _key(1e-8, "Adam denominator floor")
    epochs: int = _key(30, "epoch cap")
    seed: int = _key(0, "base seed for data, init, and dropout")
    # synthetic task
    train_utterances: int = _key(400, "training set size")
    dev_utterances: int = _key(100, "dev set size")
    task_min_tokens: int = _key(2, "shortest token sequence")
    task_max_tokens: int = _key(5, "longest token sequence")
    task_min_duration: int = _key(2, "fewest frames per token")
    task_max_duration: int = _key(4, "most frames per token")
    task_noise: float = _key(0.1, "additive feature noise level")
    task_gain_spread: float = _key(0.0, "per-utterance log-gain half-range")
    task_offset_spread: float = _key(0.0, "per-utterance feature offset scale")
    task_distinct_neighbors: int = _key(0, "1 forbids adjacent repeated tokens")

    def __post_init__(self):
        try:
            self.model_config("bn")  # the bounds hold for every variant
        except ContractError as exc:
            raise ConfigError(str(exc)) from None
        try:
            self.task()
        except ContractError as exc:
            # Task keys are its fields prefixed "task_"; its messages open with the field.
            raise ConfigError(f"task_{exc}") from None
        # Each float bound is written so that NaN and infinity fail it.
        for key in ("initial_lr", "stop_threshold", "adam_eps"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {getattr(self, key)}")
        if not self.stop_threshold < self.halve_threshold < math.inf:
            raise ConfigError(
                f"stop_threshold {self.stop_threshold} must be below"
                f" halve_threshold {self.halve_threshold}, which must be finite"
            )
        for key in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ConfigError(f"{key} must lie in [0, 1), got {getattr(self, key)}")
        for key in ("epochs", "max_frames_per_batch", "train_utterances", "dev_utterances"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.task_distinct_neighbors not in (0, 1):
            raise ConfigError(
                f"task_distinct_neighbors must be 0 or 1, got {self.task_distinct_neighbors}"
            )

    def model_config(self, variants: str | list[str]) -> ModelConfig:
        settings = {f.name: getattr(self, f.name) for f in fields(ModelConfig)
                    if f.name != "variants"}
        return ModelConfig(variants=variants, **settings)

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


# key -> (type, default, description), read from TrainConfig's fields.
SCHEMA = {f.name: (f.type, f.default, f.metadata["doc"]) for f in fields(TrainConfig)}


def format_config(cfg: TrainConfig) -> str:
    """Every key of ``cfg`` as a ``key = value`` line, in field order: the
    ``repr`` of each value as its declared type (a ``True`` is written 1),
    which ``parse_config_text`` reads back exactly."""
    return "".join(f"{f.name} = {f.type(getattr(cfg, f.name))!r}\n" for f in fields(cfg))


def parse_config_text(text: str, source: str = "<string>",
                      every_key: bool = False) -> TrainConfig:
    """The config of ``text``; with ``every_key``, one that omits a key is refused."""
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
    missing = [key for key in SCHEMA if key not in values] if every_key else []
    if missing:
        raise ConfigError(f"{source}: key {missing[0]!r} missing")
    return TrainConfig(**values)


def load_config(path: str) -> TrainConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_config_text(text, source=path)
