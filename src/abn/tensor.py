"""Dense float64 tensors, the gradient tape, and the numpy cores that the
fused nodes share.

Every forward operation runs eagerly on numpy arrays. The program's
differentiable operations are four fused nodes, one per stage, each
written by hand in the module whose stage it computes: the normalizer
with its scale and shift, a BiLSTM layer with its dropout, the
projection, CTC. The kernels below a stage return their value and its VJP
and record nothing. While a ``GradTape`` is active (see ``recording``),
each stage appends one node (``record_op``) holding a closure that maps
the output gradient back to input gradients; replaying the tape in
reverse visits every node exactly once in reverse topological order,
because nodes are appended in execution order.
Inference paths simply run with no active tape and record nothing.

All math is double precision: the test suite leans on tight gradient
tolerances and speed is secondary.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

import numpy as np

from .errors import ContractError, DomainError, ShapeError


class Tensor:
    """Immutable dense array of 64-bit floats, row-major."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.array(data, dtype=np.float64, order="C")
        if any(d <= 0 for d in arr.shape):
            raise ShapeError(f"tensor dimensions must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor values must be finite")
        arr.flags.writeable = False
        self.data = arr

    @classmethod
    def _wrap(cls, arr) -> "Tensor":
        # Internal fast path: takes ownership of a freshly computed array.
        t = cls.__new__(cls)
        a = np.asarray(arr, dtype=np.float64)
        if a.flags.writeable:
            a.flags.writeable = False
        t.data = a
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def zeros(*shape: int) -> Tensor:
    return Tensor._wrap(np.zeros(shape, dtype=np.float64))


def ones(*shape: int) -> Tensor:
    return Tensor._wrap(np.ones(shape, dtype=np.float64))


class _Node:
    __slots__ = ("output", "inputs", "vjp")

    def __init__(self, output, inputs, vjp):
        self.output = output
        self.inputs = inputs
        self.vjp = vjp


class GradTape:
    """Ordered record of executed operations, one node each."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

    def __len__(self) -> int:
        return len(self.nodes)


_ACTIVE_TAPE: GradTape | None = None


@contextmanager
def recording(tape: GradTape):
    """Make ``tape`` the active recording target within the block."""
    global _ACTIVE_TAPE
    if _ACTIVE_TAPE is not None:
        raise ContractError("a GradTape is already recording; nesting is not supported")
    _ACTIVE_TAPE = tape
    try:
        yield tape
    finally:
        _ACTIVE_TAPE = None


def is_recording() -> bool:
    """True while a ``GradTape`` is recording."""
    return _ACTIVE_TAPE is not None


def record_op(output: Tensor, inputs: tuple[Tensor, ...], vjp) -> None:
    """Register an operation on the active tape (no-op when idle).

    ``vjp`` receives the output gradient and must return one gradient per
    input (``None`` for inputs that do not need one).
    """
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.nodes.append(_Node(output, inputs, vjp))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def linear_array(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` over the last axis of ``x``; ``w`` is stored
    ``[out_features, in_features]``.

    ``x`` holds one sample (a vector) or up to three axes of them (``[B, T,
    in]``), which go through one 2-d product. Axes in front of those, and in
    front of ``w``'s own two, are replica axes (``per_replica``): each
    replica takes a 2-d product of its own, bit for bit the one an
    unreplicated call makes, where folding the replicas into the rows of
    one product would change bits.
    """
    lead = x.shape[:-3]
    rows = x.reshape(lead + (-1, x.shape[-1])) @ w.mT
    return rows.reshape(rows.shape[:-2] + x.shape[len(lead) : -1] + (w.shape[-2],))


def per_replica(param: np.ndarray, own: int, rank: int) -> np.ndarray:
    """``param`` shaped to meet an activation of ``rank`` axes elementwise.

    A parameter with only its ``own`` axes is returned as it is. In a
    replica pass (``abn.gradcheck``) each parameter of the swept module
    carries one value per replica on a leading axis, ``[R, *shape]``, and
    so does every activation computed from it; unit axes after R line replica r's value
    up with replica r's activation, whose replica axis lies ``rank - own``
    axes before its last; the others keep a unit axis, which broadcasts.
    """
    if param.ndim == own:
        return param
    return param.reshape(param.shape[:1] + (1,) * (rank - param.ndim) + param.shape[1:])


def linear_vjp(g: np.ndarray, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``linear_array`` for ``x`` and ``w``."""
    g_rows = g.reshape(-1, g.shape[-1])
    return (g_rows @ w).reshape(x.shape), g_rows.T @ x.reshape(-1, x.shape[-1])


def masked_softmax_array(scores: np.ndarray, valid=None) -> np.ndarray:
    """Softmax of an array over its last axis, restricted to valid positions.

    ``valid`` is a boolean mask that broadcasts to ``scores`` (a ``[B, 1, T]``
    key mask serves every query row of ``[B, T, T]`` scores), an integer
    prefix length of the last axis, or ``None`` for all-valid. Masked
    positions are excluded before exponentiation, so their probability and
    gradient are exactly zero; every row needs one valid position. The
    maximum valid score is subtracted for stability.
    """
    if scores.ndim < 1:
        raise ShapeError("masked_softmax needs at least one axis")
    width = scores.shape[-1]
    if valid is None:
        mask = np.ones(width, dtype=bool)
    elif isinstance(valid, (int, np.integer)):
        if not 0 <= valid <= width:
            raise ShapeError(f"valid length {valid} out of range for width {width}")
        mask = np.arange(width) < int(valid)
    else:
        mask = np.asarray(valid, dtype=bool)
    try:
        mask = np.broadcast_to(mask, scores.shape)
    except ValueError:
        raise ShapeError(
            f"mask shape {np.shape(valid)} does not broadcast to scores {scores.shape}"
        ) from None
    if not mask.any(axis=-1).all():
        raise DomainError("masked_softmax: a row has every position masked")
    # One fresh array, worked in place: abn-u's [B, T, T] attention scores
    # make every copy a large transient.
    p = np.where(mask, scores, -np.inf)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def masked_softmax_vjp(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient of ``masked_softmax_array``'s scores, from its output ``p``."""
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def dropout_scale(
    shape: tuple[int, ...], rate: float, rng: np.random.Generator | None, mode: str
) -> np.ndarray | None:
    """Inverted-dropout factors for an array of ``shape``, drawn from ``rng``:
    ``1/(1-rate)`` on kept entries, 0 on dropped ones. ``None`` at inference
    or rate 0, where dropout is the identity and draws nothing."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode not in ("train", "infer"):
        raise ContractError(f"mode must be 'train' or 'infer', got {mode!r}")
    if mode == "infer" or rate == 0.0:
        return None
    if rng is None:
        raise ContractError("dropout in train mode needs a random generator")
    keep = (rng.random(shape) >= rate).astype(np.float64)
    return keep / (1.0 - rate)


class Gradients:
    """Gradient lookup produced by ``backward``; absent tensors get zeros."""

    def __init__(self, table: dict):
        self._table = table

    def wrt(self, t: Tensor) -> np.ndarray:
        g = self._table.get(t)
        if g is None:
            return np.zeros(t.shape, dtype=np.float64)
        return g

    def __contains__(self, t: Tensor) -> bool:
        return t in self._table


def backward(tape: GradTape, loss: Tensor) -> Gradients:
    """Accumulate gradients of a scalar ``loss`` for every tensor on the tape."""
    if not isinstance(loss, Tensor):
        raise ContractError("loss must be a Tensor")
    if loss.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    table: dict[Tensor, np.ndarray] = {loss: np.ones(loss.shape, dtype=np.float64)}
    for node in reversed(tape.nodes):
        g = table.get(node.output)
        if g is None:
            continue
        parts = node.vjp(g)
        for inp, part in zip(node.inputs, parts):
            if part is None:
                continue
            prior = table.get(inp)
            table[inp] = part if prior is None else prior + part
    return Gradients(table)


def central_points(theta: np.ndarray, h: float, start: int = 0, stop: int | None = None):
    """Points ``start:stop`` of a central-difference sweep over ``theta``,
    stacked ``[stop - start, *theta.shape]``.

    Point ``2i`` raises coordinate ``i`` (row-major) by ``h`` and point
    ``2i + 1`` lowers it by ``h``. Each point is built from the unperturbed
    ``theta``, so it is exactly ``x + h`` or ``x - h`` in its coordinate and
    ``theta`` everywhere else.
    """
    flat = theta.ravel()
    k = np.arange(start, 2 * flat.size if stop is None else stop)
    coord = k // 2
    points = np.repeat(flat[None], k.size, axis=0)
    points[np.arange(k.size), coord] = flat[coord] + np.where(k % 2 == 0, h, -h)
    return points.reshape((k.size,) + theta.shape)


def central_error(losses: np.ndarray, analytic: np.ndarray, h: float) -> float:
    """Max relative error between ``analytic`` and the central differences
    of ``losses``, the loss at each of ``central_points``.

    Relative error per coordinate is ``|analytic - numeric| / (|analytic| +
    1e-8)``; the maximum over coordinates is returned, and ``inf`` if any
    coordinate's error is not a number, so that a NaN fails every
    tolerance and every ``max`` over errors.
    """
    numeric = (losses[0::2] - losses[1::2]) / (2.0 * h)
    analytic = analytic.ravel()
    err = np.abs(analytic - numeric) / (np.abs(analytic) + 1e-8)
    return float("inf") if np.isnan(err).any() else float(np.max(err))


def finite_diff_check(f: Callable[[Tensor], Tensor], theta: Tensor, h: float = 1e-5) -> float:
    """Max relative error (``central_error``) between the taped gradient of
    ``f`` at ``theta`` and central finite differences, ``f`` evaluated at
    each of ``central_points`` in turn."""
    tape = GradTape()
    with recording(tape):
        out = f(theta)
    if not isinstance(out, Tensor) or out.size != 1:
        raise ContractError("finite_diff_check needs f to return a scalar Tensor")
    analytic = backward(tape, out).wrt(theta)
    losses = [
        float(f(Tensor._wrap(central_points(theta.data, h, k, k + 1)[0])).item())
        for k in range(2 * theta.size)
    ]
    return central_error(np.array(losses), analytic, h)
