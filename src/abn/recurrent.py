"""BiLSTM layers fed by normalized inputs, and the full model stack.

Normalization happens BEFORE the input weight matrices of each LSTM layer:
the layer consumes BN(x) (or its attention-generated variant), never raw
activations. The input path has no bias of its own: standardization
cancels any constant offset, and the shift parameter plays that role.

The cell follows the peephole form where the output gate alone sees the
fresh cell state through a diagonal connection. Gate biases are included
(zero-initialized, forget bias +1) even though the normalized-input
formulation does not require them; with zero biases the cell reduces to
the bias-free equations exactly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import tensor as tc
from .data import SequenceBatch
from .errors import ContractError, DegenerateBatchError, ShapeError
from .generators import GENERATORS, VARIANTS, LearnedScaleShift, abn_forward
from .normalization import BatchNormState
from .tensor import Tensor


@dataclass(slots=True, eq=False)
class LstmLayerParams:
    """Weights of one directional LSTM, stacked by gate in the order i, f, c, o.

    ``w_x [4n, p]`` and ``w_h [4n, n]`` hold the input and recurrent
    weights, ``b [4n]`` the gate biases, and ``w_co [n]`` the output gate's
    peephole; rows ``k*n:(k+1)*n`` of a stacked tensor belong to gate ``k``.
    """

    w_x: Tensor
    w_h: Tensor
    w_co: Tensor
    b: Tensor

    @classmethod
    def init(cls, hidden: int, input_dim: int, rng: np.random.Generator):
        # The draw order (w_h, then w_x, then the output layer in Model)
        # fixes every seeded model; changing it changes every run.
        w_h = rng.normal(0.0, 1.0 / math.sqrt(hidden), size=(4 * hidden, hidden))
        w_x = rng.normal(0.0, 1.0 / math.sqrt(input_dim), size=(4 * hidden, input_dim))
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0  # positive forget bias keeps early memory open
        return cls(Tensor(w_x), Tensor(w_h), tc.zeros(hidden), Tensor(b))

    # The kernels read this, from the trailing axis: in a replica pass the
    # fields carry a leading replica axis (``tc.per_replica``). The input
    # width needs no property: ``run_layers`` checks it.
    @property
    def hidden(self) -> int:
        return self.w_co.shape[-1]


def run_direction(batch: SequenceBatch, params: LstmLayerParams, reverse: bool):
    """Unroll one direction over time: its outputs ``[B, T, n]`` and their
    BPTT VJP, which maps their gradient to those of ``batch.features`` and
    of the fields of ``params`` in ``__slots__`` order. While no tape
    records, ``None`` takes the VJP's place, so that the gates and cells
    are freed on return. Nothing is recorded here (see ``bilstm_layer``).
    The batch's width is not checked: ``run_layers`` compares it with the
    model once, where the batch enters the stack.

    The input projection of every frame is one ``[T*B, p] x [p, 4n]``
    product hoisted out of the recurrence (Appleyard, Kocisky & Blunsom
    2016); the recurrence runs in plain numpy. Each frame applies the
    peephole cell of the module docstring: sigmoid input, forget and
    output gates, a tanh candidate, and an output gate that also reads the
    fresh cell through ``w_co``. The kernel works time-major, ``[T, B, .]``,
    so in a single pass every frame's gates, state and gradients are
    contiguous slices.

    The hidden outputs and the cells each live in a buffer of ``T + 1``
    frames whose border frame holds the zero state before the first step:
    frame 0 running forward, frame T running backward. The other T frames
    are the outputs (``out``, ``cell``), and the T frames nearer the border
    the states entering each step (``h_in``, ``c_in``), which the VJP reads
    as views. The buffers are separate allocations, so an untaped pass,
    whose result keeps the outputs' buffer, still frees its cells on return.

    Padded frames emit zeros and hold the state at zero. Valid frames are
    a prefix of each utterance, so this is the ``t < length`` freeze: no
    valid frame follows the padding in the forward direction, and running
    backward the state stays at its zero initialization through the
    padding and starts evolving at the utterance's last valid frame.
    Frames before the shortest length are valid for every utterance and
    skip the mask. From the shortest length on, a frame's activations,
    cell and output updates, and the BPTT step's elementwise updates, run
    on its live rows alone, ``[.., :live[t], :]`` (``Frames.live``), with
    the mask on those; the rows after them keep exact zeros as state, gate
    entries and ``dz``. The recurrent products still take all B rows, so
    every live row keeps the bits of a fully masked step.

    Untaped, ``batch`` and ``params`` may carry a leading replica axis
    (``tc.per_replica``), a unit one broadcasting against R, and the result
    is then ``[R, B, T, n]``. Every product keeps R as a batch axis, so each
    replica's numbers are bit for bit those of its own pass. The state
    buffers run ``[T+1, R, B, n]``; the gates stay in the projection's
    ``[R, T, B, 4n]`` buffer, and each frame reads its ``[R, B, 4n]`` view.
    """
    x = batch.features
    x_lead, (b, t_max, p) = x.shape[:-3], x.shape[-3:]
    n = params.hidden
    w_x, w_co = params.w_x.data, tc.per_replica(params.w_co.data, 1, 3)
    lead = np.broadcast_shapes(x_lead, w_x.shape[:-2])
    w_h_t = np.ascontiguousarray(params.w_h.data.mT)
    frames = batch.frames
    full, live, mask = frames.full, frames.live, frames.mask_tm  # mask: [T, B, 1]

    # Each step overwrites its slice of the input projection with the gate
    # activations (sigmoid i, f, o; tanh candidate) that the VJP reads.
    x_tm = np.ascontiguousarray(np.swapaxes(x.data, -3, -2)).reshape(x_lead + (t_max * b, p))
    gates = np.moveaxis((x_tm @ w_x.mT).reshape(lead + (t_max, b, 4 * n)), -3, 0)
    gates += tc.per_replica(params.b.data, 1, 3)
    # Step t writes frame t of out and cell and reads frame t of h_in and c_in.
    border = t_max if reverse else 0
    hs = np.empty((t_max + 1,) + lead + (b, n))
    cs = np.empty((t_max + 1,) + lead + (b, n))
    h, c = hs[border], cs[border]
    h[...] = c[...] = 0.0
    ahead, behind = slice(1, None), slice(None, -1)
    written, read = (behind, ahead) if reverse else (ahead, behind)
    out, cell, h_in, c_in = hs[written], cs[written], hs[read], cs[read]
    order = range(t_max - 1, -1, -1) if reverse else range(t_max)
    for t in order:
        z, h_new, c_new = gates[t], out[t], cell[t]
        z += h @ w_h_t
        if t >= full:  # rows past live[t] keep zero gates, cell and output
            k = live[t]
            z[..., k:, :] = h_new[..., k:, :] = c_new[..., k:, :] = 0.0
            z, h_new, c_new, c = (a[..., :k, :] for a in (z, h_new, c_new, c))
        expit(z[..., : 2 * n], out=z[..., : 2 * n])
        np.tanh(z[..., 2 * n : 3 * n], out=z[..., 2 * n : 3 * n])
        np.multiply(z[..., n : 2 * n], c, out=c_new)
        c_new += z[..., :n] * z[..., 2 * n : 3 * n]
        o = z[..., 3 * n :]
        o += w_co * c_new
        expit(o, out=o)
        if t >= full:
            c_new *= mask[t, :k]
        np.tanh(c_new, out=h_new)
        h_new *= o  # zero where the cell was masked
        h, c = out[t], cell[t]
    result = np.moveaxis(out, 0, -2)
    if not tc.is_recording():
        return result, None

    def vjp(grad):
        # Per-frame factors of the gate derivatives, for all frames at once.
        i, f, g, o = (gates[:, :, k * n : (k + 1) * n] for k in range(4))
        tanh_c = np.tanh(cell)
        do_fac = o * (1.0 - o) * tanh_c  # d(o pre-activation) per unit dh
        dc_fac = o * (1.0 - tanh_c * tanh_c)  # dc per unit dh
        ifg = np.empty((t_max, b, 3, n))  # i, f, g blocks of dz per unit dc
        ifg[:, :, 0] = g * i * (1.0 - i)
        ifg[:, :, 1] = c_in * f * (1.0 - f)
        ifg[:, :, 2] = i * (1.0 - g * g)

        d_out = np.multiply(grad.transpose(1, 0, 2), mask, out=np.empty((t_max, b, n)))
        dz = np.empty((t_max, b, 4 * n))
        dz4 = dz.reshape(t_max, b, 4, n)
        dh, dc = np.zeros((b, n)), np.zeros((b, n))
        for t in reversed(order):
            at, dh_t, dc_t = t, dh, dc
            if t >= full:  # rows past live[t] keep a zero dz and are never read
                k = live[t]
                dz4[t, k:] = 0.0
                at, dh_t, dc_t = (t, slice(k)), dh[:k], dc[:k]
                dh_t *= mask[at]
                dc_t *= mask[at]
            dh_t += d_out[at]
            da_o = np.multiply(dh_t, do_fac[at], out=dz4[at][:, 3])
            dc_t += dh_t * dc_fac[at]
            dc_t += da_o * w_co
            np.multiply(dc_t[:, None, :], ifg[at], out=dz4[at][:, :3])
            dh = dz[t] @ params.w_h.data
            dc_t *= f[at]
        dz_flat = dz.reshape(t_max * b, 4 * n)
        d_wx = dz_flat.T @ x_tm
        d_wh = dz_flat.T @ h_in.reshape(t_max * b, n)
        d_bias = dz_flat.sum(axis=0)
        d_wco = (dz4[:, :, 3] * cell).sum(axis=(0, 1))
        d_x = (dz_flat @ w_x).reshape(t_max, b, p).transpose(1, 0, 2)
        return d_x, d_wx, d_wh, d_wco, d_bias

    return result, vjp


def bilstm_layer(
    batch: SequenceBatch,
    params_fwd: LstmLayerParams,
    params_bwd: LstmLayerParams,
    rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SequenceBatch:
    """Per-frame ``[forward, backward]`` halves of one BiLSTM layer, with
    inverted dropout at ``rate``, as one taped node.

    The two directions' outputs (``run_direction``) are concatenated and
    multiplied by ``tc.dropout_scale`` of the joined shape, drawn once both
    have run (nothing at rate 0, as at inference). The node reads
    ``batch.features``, then the fields of ``params_fwd`` and of
    ``params_bwd`` in ``__slots__`` order; its VJP scales the gradient and
    runs the backward direction's VJP, then the forward's. Padded frames
    emit exact zeros. Untaped, a half on a unit replica axis broadcasts
    against the other's R.
    """
    fwd, fwd_vjp = run_direction(batch, params_fwd, reverse=False)
    bwd, bwd_vjp = run_direction(batch, params_bwd, reverse=True)
    out = np.concatenate(np.broadcast_arrays(fwd, bwd), axis=-1)
    scale = tc.dropout_scale(out.shape, rate, rng)
    if scale is not None:
        out *= scale
    n = params_fwd.hidden

    def vjp(g):
        if scale is not None:
            g = g * scale
        d_x_bwd, *d_bwd = bwd_vjp(g[:, :, n:])
        d_x_fwd, *d_fwd = fwd_vjp(g[:, :, :n])
        return (d_x_bwd + d_x_fwd, *d_fwd, *d_bwd)

    result = Tensor._wrap(out)
    fields = [getattr(p, name) for p in (params_fwd, params_bwd)
              for name in LstmLayerParams.__slots__]
    tc.record_op(result, (batch.features, *fields), vjp)
    return SequenceBatch._wrap(result, batch.frames)


@dataclass(slots=True)
class ModelConfig:
    """Shape and variant choices for the full stack, with their bounds.

    ``variants`` names each layer's normalizer; a single name applies to
    every layer. Config files and checkpoint headers both build their
    model settings here, so they share the bounds below; the parameter
    holders, drawn from a config that passed them, check none again.
    """

    num_layers: int
    hidden: int
    features: int
    vocab: int
    variants: list[str]
    dropout: float = 0.0
    embed_dim: int = 2
    attn_dim: int = 2
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        for key, least in (("num_layers", 1), ("hidden", 1), ("features", 1),
                           ("embed_dim", 1), ("attn_dim", 1), ("vocab", 2)):
            if getattr(self, key) < least:
                raise ContractError(f"{key} must be at least {least}, got {getattr(self, key)}")
        # Written so that NaN and infinity fail every float bound.
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must lie in [0, 1), got {self.dropout}")
        if not 0.0 < self.bn_eps < math.inf:
            raise ContractError(f"bn_eps must be positive and finite, got {self.bn_eps}")
        if not 0.0 < self.bn_momentum <= 1.0:
            raise ContractError(f"bn_momentum must lie in (0, 1], got {self.bn_momentum}")
        if isinstance(self.variants, str):
            self.variants = [self.variants] * self.num_layers
        self.variants = list(self.variants)
        if len(self.variants) != self.num_layers:
            raise ContractError(
                f"variants: {len(self.variants)} given for {self.num_layers} layers"
            )
        for v in self.variants:
            if v not in VARIANTS:
                raise ContractError(f"variants: unknown {v!r}; choose from {VARIANTS}")
        # abn-f's bottleneck must be narrower than every layer's input.
        if self.embed_dim >= self.features:
            raise ContractError(
                f"embed_dim {self.embed_dim} must be below features {self.features}"
            )
        if self.num_layers > 1 and self.embed_dim >= 2 * self.hidden:
            raise ContractError(
                f"embed_dim {self.embed_dim} must be below 2*hidden {2 * self.hidden},"
                " the input width of every layer after the first"
            )

    def layer_input_dim(self, layer: int) -> int:
        return self.features if layer == 0 else 2 * self.hidden


@dataclass(slots=True, eq=False)
class Layer:
    """One stack stage: a normalizer, its source of scale and shift, and a BiLSTM."""

    norm: BatchNormState
    gen: object  # a source of ``GENERATORS``
    fwd: LstmLayerParams
    bwd: LstmLayerParams


@dataclass(slots=True, eq=False)
class Projection:
    """The output layer: logits ``w [vocab, 2n]`` times features plus ``b [vocab]``.

    Kept apart from ``Model`` so that the parameter registry never holds
    the model itself: a model in no reference cycle is freed as soon as it
    is dropped, not at the next cyclic garbage collection.
    """

    w: Tensor
    b: Tensor


def module_of(name: str) -> str:
    """``layer{l}.bn|gen|fwd|bwd`` or ``out``: the module of parameter ``name``."""
    return name.rsplit(".", 1)[0]


class Model:
    """Normalized BiLSTM stack with an affine projection to vocabulary logits."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        self.layers: list[Layer] = []
        for l in range(config.num_layers):
            dim = config.layer_input_dim(l)
            norm = BatchNormState.fresh(dim, config.bn_eps, config.bn_momentum)
            cls, width = GENERATORS[config.variants[l]]
            gen = cls.init(dim, getattr(config, width) if width else None, rng)
            fwd = LstmLayerParams.init(config.hidden, dim, rng)
            bwd = LstmLayerParams.init(config.hidden, dim, rng)
            self.layers.append(Layer(norm, gen, fwd, bwd))
        out_dim = 2 * config.hidden
        self.out = Projection(
            Tensor(rng.normal(0.0, 1.0 / math.sqrt(out_dim), size=(config.vocab, out_dim))),
            tc.zeros(config.vocab),
        )
        self._registry = self._build_registry()

    def _build_registry(self):
        # name -> (owner, attribute, the index of the layer that reads the
        # parameter, the number of layers for the projection); running
        # statistics are stored but not trained, so they have no layer.
        reg: dict[str, tuple[object, str, int | None]] = {}
        for l, layer in enumerate(self.layers):
            # Checkpoint names keep bn's learned pair beside its running statistics.
            group = "bn" if isinstance(layer.gen, LearnedScaleShift) else "gen"
            for field in type(layer.gen).__slots__:
                reg[f"layer{l}.{group}.{field}"] = (layer.gen, field, l)
            for field in ("running_mean", "running_var"):
                reg[f"layer{l}.bn.{field}"] = (layer.norm, field, None)
            for direction in ("fwd", "bwd"):
                obj = getattr(layer, direction)
                for field in LstmLayerParams.__slots__:
                    reg[f"layer{l}.{direction}.{field}"] = (obj, field, l)
        reg["out.w"] = (self.out, "w", len(self.layers))
        reg["out.b"] = (self.out, "b", len(self.layers))
        return reg

    def parameters(self) -> dict[str, Tensor]:
        """Trainable tensors by name, in stable order."""
        return {name: getattr(obj, attr)
                for name, (obj, attr, l) in self._registry.items() if l is not None}

    def running_stats(self) -> dict[str, Tensor]:
        """Non-trainable normalizer state by name, in stable order."""
        return {name: getattr(obj, attr)
                for name, (obj, attr, l) in self._registry.items() if l is None}

    def set_parameter(self, name: str, value: Tensor) -> None:
        """Replace the stored array ``name``, a parameter or a running statistic.

        Every array that replaces one the model drew (a checkpoint block,
        Adam's update) passes here: its shape must be the replaced one's,
        and a ``running_var`` must be non-negative."""
        obj, attr, _ = self._registry[name]
        current = getattr(obj, attr)
        if current.shape != value.shape:
            raise ShapeError(
                f"parameter {name} has shape {current.shape}, got {value.shape}"
            )
        if attr == "running_var" and not np.all(value.data >= 0.0):
            raise ContractError(f"{name} must be non-negative")
        setattr(obj, attr, value)

    @contextmanager
    def replicas(self, module: str, points: np.ndarray):
        """Within the block, every parameter of ``module`` (a ``module_of``
        name) holds one value per replica: row r of ``points``, ``[R, N]``
        over the module's N values flattened in registry order, split into
        read-only ``[R, *shape]`` views. Yields the index of the layer that
        reads the module (the projection's at the number of layers); every
        parameter comes back on exit. Stages that read none of it run on a
        unit replica axis that broadcasts. Only an untaped train-mode pass
        may read the model in the block (``abn.gradcheck.resume``)."""
        params = self.parameters()
        names = [name for name in params if module_of(name) == module]
        if not names:
            raise ContractError(f"no parameters in module {module!r}")
        sizes = [params[name].size for name in names]
        if points.ndim != 2 or points.shape[1] != sum(sizes):
            raise ShapeError(f"points must be [R, {sum(sizes)}], got {points.shape}")
        columns = np.split(points, np.cumsum(sizes)[:-1], axis=1)
        for name, column in zip(names, columns):
            obj, attr, _ = self._registry[name]
            setattr(obj, attr, Tensor._wrap(column.reshape((-1,) + params[name].shape)))
        try:
            yield self._registry[names[0]][2]
        finally:
            for name in names:
                obj, attr, _ = self._registry[name]
                setattr(obj, attr, params[name])

    def parameter_count(self) -> dict[str, int]:
        """Per-module and total trainable parameter counts."""
        counts: dict[str, int] = {}
        for name, t in self.parameters().items():
            module = module_of(name)
            counts[module] = counts.get(module, 0) + t.size
        counts["total"] = sum(t.size for t in self.parameters().values())
        return counts


def run_layers(
    current: SequenceBatch,
    model: Model,
    start: int,
    mode: str,
    rng: np.random.Generator | None = None,
    stop: int | None = None,
) -> SequenceBatch:
    """Layers ``start`` up to ``stop`` (the last, by default), fed the input
    of layer ``start``. Every pass enters the stack here, and this is its
    one gate. Before any stage runs, so that a refused pass leaves the
    model as it was, it refuses a mode other than ``"train"`` or
    ``"infer"``, a batch whose width (its trailing axis, so replica inputs
    pass) is not the one layer ``start`` reads, train-mode dropout without
    ``rng``, and a train batch of fewer than 2 valid frames. The stages
    behind it check none of these; they apply the dropout rate it hands
    them, ``ModelConfig.dropout`` in train mode and 0.0 at inference."""
    if mode not in ("train", "infer"):
        raise ContractError(f"mode must be 'train' or 'infer', got {mode!r}")
    want = model.config.layer_input_dim(start)
    if current.dim != want:
        raise ShapeError(f"layer {start} reads {want} features, got {current.dim}")
    rate = model.config.dropout if mode == "train" else 0.0
    if rate > 0.0 and rng is None:
        raise ContractError("dropout in train mode needs a random generator")
    n = current.frames.valid
    if mode == "train" and n < 2:
        raise DegenerateBatchError(f"need at least 2 valid frames for batch statistics, got {n}")
    for layer in model.layers[start:stop]:
        # Rebinding ``current`` at once lets an untaped pass free each
        # layer's input as soon as its normalized copy exists.
        current = abn_forward(current, layer.norm, layer.gen, mode, rate, rng)
        current = bilstm_layer(current, layer.fwd, layer.bwd, rate, rng)
    return current


def project(features: SequenceBatch, model: Model) -> SequenceBatch:
    """Per-frame vocabulary logits from the last layer's output, one taped node.

    The node applies the weight (``tc.linear_array``) and then adds the
    bias; its VJP gives the gradients of that affine map. Logits on padded
    frames carry only the projection bias and must not be consumed.
    Untaped, the features, ``w`` and ``b`` may carry a leading replica axis
    (``tc.per_replica``), kept as a batch axis of the product, a unit one
    broadcasting against R.
    """
    x, w, bias = features.features, model.out.w, model.out.b
    logits = tc.linear_array(x.data, w.data)
    logits += tc.per_replica(bias.data, 1, 4)
    out = Tensor._wrap(logits)

    def vjp(g):
        g_x, g_w = tc.linear_vjp(g, x.data, w.data)
        return g_x, g_w, tc._unbroadcast(g, bias.shape)

    tc.record_op(out, (x, w, bias), vjp)
    return SequenceBatch._wrap(out, features.frames)


def stack_forward(
    batch: SequenceBatch,
    model: Model,
    mode: str,
    rng: np.random.Generator | None = None,
) -> SequenceBatch:
    """Run the full stack; returns per-frame vocabulary logits.

    Each layer normalizes its input with its own variant (``abn_forward``),
    then runs the BiLSTM with dropout on its outputs in train mode
    (``bilstm_layer``); the last layer's output is projected to the
    vocabulary (``project``). Each of those stages records one taped node:
    two per layer, then the projection's. ``run_layers`` and ``project``
    let a caller resume the stack at any layer (see ``abn.gradcheck``).
    A bad mode or batch, or train-mode dropout without ``rng``, is refused
    in ``run_layers``, the pass's gate, before any stage runs.
    """
    return project(run_layers(batch, model, 0, mode, rng), model)
