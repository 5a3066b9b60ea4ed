"""Self-describing text checkpoints with lossless float64 roundtrips.

Layout: a version line, the training seed, the model configuration, then
one ``tensor`` or ``stat`` block per array (name, shape, and row-major
values printed with 17 significant digits), closed by an ``end`` sentinel
that catches truncation. The blank symbol is index 0 by construction; the
header records that for consumers of decoded outputs. The seed fixes the
synthetic task's templates, so a model can be checked against the task it
is scored on. Each LSTM direction is stored as four gate-stacked tensors
(``w_x``, ``w_h``, ``w_co``, ``b``). Version 2 had no seed and version 1
stored thirteen per-gate tensors; neither is read.
"""

from __future__ import annotations

import os
from typing import get_type_hints

import numpy as np

from .errors import CheckpointError, ContractError, ShapeError
from .recurrent import Model, ModelConfig
from .tensor import Tensor

FORMAT_LINE = "abn-checkpoint v3"
# Earlier formats, refused by name with the reason.
_RETIRED = {
    "abn-checkpoint v1": "stores per-gate LSTM tensors, a layout no longer read",
    "abn-checkpoint v2": "records no training seed, so the task its model was"
                         " trained on is unknown",
}

# The header's settings, in ModelConfig's field order with ``variants``
# last, each with the parser of its declared type.
_SETTINGS = {name: typ for name, typ in get_type_hints(ModelConfig).items()
             if name != "variants"}
_SETTINGS["variants"] = lambda text: text.split(",")


def _format_setting(value) -> str:
    return ",".join(value) if isinstance(value, list) else str(value)


def _format_values(t: Tensor) -> str:
    return " ".join(map("{:.17g}".format, t.data.ravel().tolist()))


def save_checkpoint(model: Model, path: str, seed: int) -> None:
    """Write ``model``, trained on the task of ``seed``, to ``path`` atomically.

    The blocks stream into a temporary file beside ``path`` that is synced
    to disk and then replaces it, so a failed or interrupted save, or a
    power loss after it, leaves the previous checkpoint or the whole new one.
    """
    cfg = model.config
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"{FORMAT_LINE}\n# blank symbol index: 0\nseed {int(seed)}\n")
            for name in _SETTINGS:
                fh.write(f"config {name} {_format_setting(getattr(cfg, name))}\n")
            for kind, table in (("tensor", model.parameters()),
                                ("stat", model.running_stats())):
                for name, t in table.items():
                    dims = " ".join(str(d) for d in t.shape)
                    fh.write(f"{kind} {name} {dims}\n{_format_values(t)}\n")
            fh.write("end\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_array(name: str, dims_text: list[str], values_line: str) -> Tensor:
    try:
        shape = tuple(int(d) for d in dims_text)
    except ValueError:
        raise CheckpointError(f"parameter {name}: malformed shape {dims_text}") from None
    try:
        flat = np.array([float(v) for v in values_line.split()])
    except ValueError:
        raise CheckpointError(f"parameter {name}: non-numeric value") from None
    expected = int(np.prod(shape)) if shape else 1
    if flat.size != expected:
        raise CheckpointError(
            f"parameter {name}: expected {expected} values for shape {shape},"
            f" found {flat.size}"
        )
    if not np.all(np.isfinite(flat)):
        raise CheckpointError(f"parameter {name}: non-finite value")
    return Tensor._wrap(flat.reshape(shape))


def load_checkpoint(path: str, seed: int | None = None) -> Model:
    """Rebuild a model from a checkpoint, bit-exact.

    With ``seed``, the seed of the task the caller will score the model
    on, a checkpoint trained on another task's seed is refused.
    """
    model, trained_seed = read_checkpoint(path)
    if seed is not None and trained_seed != seed:
        raise CheckpointError(f"seed: the model was trained on the task of seed {trained_seed},"
                              f" but the config's seed is {seed}")
    return model


def read_checkpoint(path: str) -> tuple[Model, int]:
    """The model of a checkpoint, bit-exact, and the seed of its training task."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if lines and lines[0] in _RETIRED:
        raise CheckpointError(
            f"checkpoint format {lines[0].split()[-1]} {_RETIRED[lines[0]]};"
            f" expected {FORMAT_LINE!r}"
        )
    if not lines or lines[0] != FORMAT_LINE:
        head = lines[0] if lines else "<empty file>"
        raise CheckpointError(f"not a recognized checkpoint (header {head!r})")

    seeds: list[str] = []
    raw_config: dict[str, str] = {}
    arrays: list[tuple[str, str, Tensor]] = []
    saw_end = False
    i = 1
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line or line.startswith("#"):
            continue
        if line == "end":
            saw_end = True
            break
        parts = line.split()
        if parts[0] == "seed" and len(parts) == 2:
            seeds.append(parts[1])
        elif parts[0] == "config" and len(parts) >= 3:
            if parts[1] in raw_config:
                raise CheckpointError(f"config field {parts[1]}: given twice")
            raw_config[parts[1]] = line.split(None, 2)[2]
        elif parts[0] in ("tensor", "stat") and len(parts) >= 2:
            name = parts[1]
            if i >= len(lines):
                raise CheckpointError(f"parameter {name}: values missing (truncated file)")
            arrays.append((parts[0], name, _parse_array(name, parts[2:], lines[i])))
            i += 1
        else:
            raise CheckpointError(f"unrecognized checkpoint line: {line!r}")
    if not saw_end:
        raise CheckpointError("checkpoint truncated: no end marker")
    if len(seeds) != 1:
        raise CheckpointError(f"seed: given {len(seeds)} times, expected once")
    try:
        trained_seed = int(seeds[0])
    except ValueError:
        raise CheckpointError(f"seed: cannot parse {seeds[0]!r}") from None

    settings = {}
    for name, parse in _SETTINGS.items():
        if name not in raw_config:
            raise CheckpointError(f"checkpoint missing config field {name}")
        text = raw_config.pop(name)
        try:
            settings[name] = parse(text)
        except ValueError:
            raise CheckpointError(f"config field {name}: cannot parse {text!r}") from None
    if raw_config:
        raise CheckpointError(f"config field {next(iter(raw_config))}: not a model setting")
    try:
        model = Model(ModelConfig(**settings), np.random.default_rng(0))
    except (ContractError, ShapeError) as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from None

    kinds = {**dict.fromkeys(model.parameters(), "tensor"),
             **dict.fromkeys(model.running_stats(), "stat")}
    seen = set()
    for kind, name, tensor in arrays:
        if name in seen:
            raise CheckpointError(f"parameter {name}: stored twice")
        if name not in kinds:
            raise CheckpointError(f"parameter {name}: not part of this model")
        if kind != kinds[name]:
            raise CheckpointError(f"parameter {name}: stored as {kind}, expected {kinds[name]}")
        try:
            model.set_parameter(name, tensor)
        except (ContractError, ShapeError) as exc:
            raise CheckpointError(f"parameter {name}: {exc}") from None
        seen.add(name)
    missing = [name for name in kinds if name not in seen]
    if missing:
        raise CheckpointError(f"parameter {missing[0]}: absent from checkpoint")
    return model, trained_seed
