"""Self-describing text checkpoints with lossless float64 roundtrips.

Layout: a version line, a ``variants`` line naming each layer's normalizer,
then the whole training config as ``key = value`` lines in the format of a
config file, then one ``tensor`` or ``stat`` block per array (name, shape,
and row-major values printed with 17 significant digits), closed by an
``end`` sentinel that catches truncation. The blank symbol is index 0 by
construction; the header records that for consumers of decoded outputs.
The config fixes the synthetic task, its seed and every task key, so a
model can be checked against, or decoded on, the task it was trained on.
Each LSTM direction is stored as four gate-stacked tensors (``w_x``,
``w_h``, ``w_co``, ``b``). Versions 1 to 3 are refused by name.
"""

from __future__ import annotations

import os

import numpy as np

from .config import TrainConfig, format_config, parse_config_text
from .errors import CheckpointError, ConfigError, ContractError, ShapeError
from .recurrent import Model
from .tensor import Tensor

FORMAT_LINE = "abn-checkpoint v4"
# Earlier formats, refused by name with the reason.
_RETIRED = {
    "abn-checkpoint v1": "stores per-gate LSTM tensors, a layout no longer read",
    "abn-checkpoint v2": "records no training seed, so the task its model was"
                         " trained on is unknown",
    "abn-checkpoint v3": "records no task keys, so the task its model was"
                         " trained on is incomplete",
}


def _format_values(t: Tensor) -> str:
    return " ".join(map("{:.17g}".format, t.data.ravel().tolist()))


def save_checkpoint(model: Model, path: str, cfg: TrainConfig) -> None:
    """Write ``model``, trained under ``cfg``, to ``path`` atomically.

    ``cfg`` must describe ``model``; a config that does not is refused
    before any file is written. The blocks stream into a temporary file
    beside ``path`` that is synced to disk and then replaces it, so a failed
    or interrupted save, or a power loss after it, leaves the previous
    checkpoint or the whole new one.
    """
    variants = model.config.variants
    described = cfg.model_config(variants)
    if described != model.config:
        raise ContractError(f"the config describes {described}, not the model's {model.config}")
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"{FORMAT_LINE}\n# blank symbol index: 0\nvariants {','.join(variants)}\n")
            fh.write(format_config(cfg))
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
        shape = None
    if shape is None or min(shape, default=0) < 0:
        raise CheckpointError(f"parameter {name}: malformed shape {dims_text}")
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


def load_checkpoint(path: str) -> tuple[Model, TrainConfig]:
    """The model of a checkpoint, bit-exact, and the config it was trained under."""
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

    # The header runs up to the first block. Apart from its variants line it
    # is a config file that must set every key; blanking the version and
    # variants lines keeps the parser's line numbers the file's.
    blocks = next((i for i, line in enumerate(lines)
                   if line.split(" ", 1)[0] in ("tensor", "stat", "end")), len(lines))
    header = ["", *lines[1:blocks]]
    named = [i for i, line in enumerate(header) if line.startswith("variants ")]
    if len(named) != 1:
        raise CheckpointError(f"variants: given {len(named)} times, expected once")
    variants = header[named[0]].split(" ", 1)[1].split(",")
    header[named[0]] = ""
    try:
        cfg = parse_config_text("\n".join(header), source=path, every_key=True)
        model = Model(cfg.model_config(variants), np.random.default_rng(0))
    except (ConfigError, ContractError, ShapeError) as exc:
        raise CheckpointError(f"checkpoint header: {exc}") from None

    kinds = {**dict.fromkeys(model.parameters(), "tensor"),
             **dict.fromkeys(model.running_stats(), "stat")}
    seen = set()
    i = blocks
    while i < len(lines):
        line = lines[i]
        i += 1
        parts = line.split()
        if not parts or line.startswith("#"):
            continue
        if line == "end":
            break
        if parts[0] not in ("tensor", "stat") or len(parts) < 2:
            raise CheckpointError(f"unrecognized checkpoint line: {line!r}")
        kind, name = parts[:2]
        if i >= len(lines):
            raise CheckpointError(f"parameter {name}: values missing (truncated file)")
        tensor = _parse_array(name, parts[2:], lines[i])
        i += 1
        if name in seen:
            raise CheckpointError(f"parameter {name}: stored twice")
        if name not in kinds:
            raise CheckpointError(f"parameter {name}: not part of this model")
        if kind != kinds[name]:
            raise CheckpointError(f"parameter {name}: stored as {kind}, expected {kinds[name]}")
        try:
            model.set_parameter(name, tensor)
        except (ContractError, ShapeError) as exc:
            raise CheckpointError(str(exc)) from None  # the message names the block
        seen.add(name)
    else:
        raise CheckpointError("checkpoint truncated: no end marker")
    missing = [name for name in kinds if name not in seen]
    if missing:
        raise CheckpointError(f"parameter {missing[0]}: absent from checkpoint")
    return model, cfg
