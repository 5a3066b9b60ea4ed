"""Adam updates and the relative-improvement learning-rate schedule."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor


class AdamState:
    """First/second moment accumulators per parameter, plus the step count."""

    __slots__ = ("m", "v", "t", "beta1", "beta2", "eps")

    def __init__(self, params: dict[str, Tensor], beta1=0.9, beta2=0.999, eps=1e-8):
        self.m = {name: np.zeros(p.shape) for name, p in params.items()}
        self.v = {name: np.zeros(p.shape) for name, p in params.items()}
        self.t = 0
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> dict[str, Tensor]:
    """One bias-corrected Adam update; returns fresh parameter tensors.

    The moments are updated in place and each new parameter is built in
    one fresh array. Every operation is the textbook formula's, in its
    order: ``b1*m + (1-b1)*g``, ``b2*v + ((1-b2)*g)*g``, then
    ``p - (lr*m_hat) / (sqrt(v_hat) + eps)``.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    updated = {}
    for name, p in params.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        square = (1.0 - b2) * g
        square *= g
        v *= b2
        v += square
        step = m / bc1
        step *= lr
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        updated[name] = Tensor._wrap(np.subtract(p.data, step, out=step))
    return updated


def lr_schedule(
    history,
    halve_threshold: float = 0.004,
    stop_threshold: float = 0.0005,
) -> str:
    """Action from the last two dev metrics: ``keep``, ``halve``, or ``stop``.

    Relative improvement is (prev - curr) / prev; falling below the stop
    threshold ends training, below the halve threshold halves the rate. A
    non-finite metric is refused: every comparison with NaN is false.
    """
    if len(history) < 2:
        raise ContractError("lr_schedule needs at least two epochs of history")
    prev, curr = float(history[-2]), float(history[-1])
    for value in (prev, curr):
        if not np.isfinite(value):
            raise ContractError(f"dev metric must be finite, got {value}")
    if prev <= 0.0:
        raise ContractError(f"dev metric must be positive, got {prev}")
    r = (prev - curr) / prev
    if r < stop_threshold:
        return "stop"
    if r < halve_threshold:
        return "halve"
    return "keep"
