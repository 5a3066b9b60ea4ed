"""Generic taped primitives: the reference library of the test suite.

The program records only fused nodes, each a hand-written forward and VJP
for one whole stage. These primitives are the small, obviously correct
operations those nodes are checked against: a test composes them into the
stage a fused node replaces and asserts the same output and gradients,
bit for bit. Acceptance criterion 1 (``tests/test_acceptance.py``) checks
each primitive against central finite differences; ``dropout`` is a ``mul``
by factors drawn with ``abn.tensor.dropout_scale``. ``standardize`` and
``masked_affine`` are the two halves of the normalizer node
(``abn.generators.abn_forward``) as one node each, over the program's own
numpy cores. ``finite_diff_check`` checks any taped function of one
tensor against central finite differences.

The primitives record on the active tape of ``abn.tensor`` (one node each,
but ``affine`` and ``tmean`` are two) and run eagerly on float64 arrays;
scalars and arrays are accepted wherever a ``Tensor`` is.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.special import expit

from abn.data import SequenceBatch
from abn.errors import ContractError, DomainError, ShapeError
from abn.gradcheck import central_errors, central_points
from abn.normalization import masked_affine_array, masked_affine_vjp, standardize_batch
from abn.tensor import (
    GradTape,
    Tensor,
    _unbroadcast,
    backward,
    dropout_scale,
    linear_array,
    linear_vjp,
    masked_softmax_array,
    masked_softmax_vjp,
    record_op,
    recording,
)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _broadcast_op(a, b, forward, name: str):
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out_data = forward(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: cannot combine shapes {a.shape} and {b.shape}") from None
    return a, b, Tensor._wrap(out_data)


def add(a, b) -> Tensor:
    a, b, out = _broadcast_op(a, b, np.add, "add")

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    record_op(out, (a, b), vjp)
    return out


def sub(a, b) -> Tensor:
    a, b, out = _broadcast_op(a, b, np.subtract, "sub")

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    record_op(out, (a, b), vjp)
    return out


def mul(a, b) -> Tensor:
    a, b, out = _broadcast_op(a, b, np.multiply, "mul")

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    record_op(out, (a, b), vjp)
    return out


def div(a, b) -> Tensor:
    a, b, out = _broadcast_op(a, b, np.divide, "div")

    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    record_op(out, (a, b), vjp)
    return out


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading (batch) axes must be equal."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim != a.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(
            f"matmul needs operands of 2+ axes with equal batch axes, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} @ {b.shape}")
    out = Tensor._wrap(a.data @ b.data)

    def vjp(g):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    record_op(out, (a, b), vjp)
    return out


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose needs at least 2 axes, got {a.shape}")
    out = Tensor._wrap(np.swapaxes(a.data, -1, -2).copy())
    record_op(out, (a,), lambda g: (np.swapaxes(g, -1, -2),))
    return out


def linear(x, w) -> Tensor:
    """``x @ w.T`` over the last axis of ``x``, which holds one sample
    (a vector) or a batch of them (rows, or ``[B, T, in]`` frames).

    ``w`` is stored ``[out_features, in_features]``. All samples go
    through one 2-d product.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if w.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-d, got {w.shape}")
    if x.shape[-1:] != (w.shape[1],):
        raise ShapeError(f"linear: cannot apply weight {w.shape} to input {x.shape}")
    out = Tensor._wrap(linear_array(x.data, w.data))
    record_op(out, (x, w), lambda g: linear_vjp(g, x.data, w.data))
    return out


def affine(x, w, b) -> Tensor:
    """Weight application plus bias, ``linear(x, w) + b``, sample by sample."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if b.ndim != 1 or b.shape[0] != w.shape[0]:
        raise ShapeError(f"affine: bias {b.shape} does not match weight {w.shape}")
    y = linear(x, w)
    return add(y, b)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor._wrap(expit(x.data))

    def vjp(g):
        y = out.data
        return (g * y * (1.0 - y),)

    record_op(out, (x,), vjp)
    return out


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    out = Tensor._wrap(np.tanh(x.data))

    def vjp(g):
        y = out.data
        return (g * (1.0 - y * y),)

    record_op(out, (x,), vjp)
    return out


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data < 0):
        raise DomainError("sqrt requires non-negative inputs")
    out = Tensor._wrap(np.sqrt(x.data))
    record_op(out, (x,), lambda g: (g * 0.5 / out.data,))
    return out


def tsum(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = Tensor._wrap(np.sum(x.data, axis=axis, keepdims=keepdims, dtype=np.float64))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).copy(),)

    record_op(out, (x,), vjp)
    return out


def tmean(x, axis: int | None = None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    count = x.size if axis is None else x.shape[axis]
    return div(tsum(x, axis=axis, keepdims=keepdims), float(count))


def masked_softmax(scores, valid: np.ndarray) -> Tensor:
    """Softmax over the last axis restricted to the positions of the
    boolean mask ``valid``; taped ``masked_softmax_array``."""
    scores = _as_tensor(scores)
    p = masked_softmax_array(scores.data, valid)
    out = Tensor._wrap(p)
    record_op(out, (scores,), lambda g: (masked_softmax_vjp(g, p),))
    return out


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    x = _as_tensor(x)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} into {shape}")
    out = Tensor._wrap(np.reshape(x.data, shape))
    record_op(out, (x,), lambda g: (np.reshape(g, x.data.shape),))
    return out


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat needs at least one tensor")
    try:
        out = Tensor._wrap(np.concatenate([p.data for p in parts], axis=axis))
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[p.shape for p in parts]} on axis {axis}"
        ) from None
    offsets = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    record_op(out, tuple(parts), vjp)
    return out


def dropout(x, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: scales kept entries by ``1/(1-rate)``; identity at
    rate 0, the rate every stage applies at inference."""
    x = _as_tensor(x)
    scale = dropout_scale(x.shape, rate, rng)
    return x if scale is None else mul(x, Tensor._wrap(scale))


def standardize(batch: SequenceBatch, state, mode: str) -> Tensor:
    """The batch's standardized frames ``[B, T, p]``: the array and the
    closed-form VJP of ``standardize_batch``, as one node."""
    xhat, vjp = standardize_batch(batch, state, mode)
    out = Tensor._wrap(xhat)
    record_op(out, (batch.features,), lambda g: (vjp(g),))
    return out


def masked_affine(xhat, gamma, beta, batch: SequenceBatch) -> SequenceBatch:
    """``(xhat * gamma + beta) * mask`` in the batch's layout, as one node
    over ``masked_affine_array`` and ``masked_affine_vjp``. ``gamma`` and
    ``beta`` share one shape that broadcasts to ``[B, T, p]``: ``[p]``,
    ``[B, 1, p]`` or ``[B, T, p]``."""
    xhat, gamma, beta = _as_tensor(xhat), _as_tensor(gamma), _as_tensor(beta)
    x = xhat.data.reshape(batch.features.shape)
    mask = batch.frames.mask[:, :, None]
    out = Tensor._wrap(masked_affine_array(x, gamma.data, beta.data, mask))

    def vjp(g):
        g_x, g_gamma, g_beta = masked_affine_vjp(g, x, gamma.data, mask)
        return g_x.reshape(xhat.shape), g_gamma, g_beta

    record_op(out, (xhat, gamma, beta), vjp)
    return SequenceBatch._wrap(out, batch.frames)


def finite_diff_check(f: Callable[[Tensor], Tensor], theta: Tensor, h: float = 1e-5) -> float:
    """Max relative error (``central_errors``) between the taped gradient of
    ``f`` at ``theta`` and central finite differences, ``f`` evaluated at
    each of ``central_points`` in turn."""
    tape = GradTape()
    with recording(tape):
        out = f(theta)
    if not isinstance(out, Tensor) or out.size != 1:
        raise ContractError("finite_diff_check needs f to return a scalar Tensor")
    analytic = backward(tape, out).wrt(theta)
    losses = [float(f(Tensor._wrap(point)).item()) for point in central_points(theta.data, h)]
    return float(central_errors(np.array(losses), analytic, h).max())
